/**
 * @file
 * LDQ-compressed ring all-reduce over the modeled interconnect.
 *
 * The collective averages one flat FP32 gradient per live chip with
 * the classic two-phase ring: a reduce-scatter (each hop sends one
 * chunk, LDQ-quantized, and the receiver dequantizes and accumulates)
 * followed by an all-gather (the chunk's final owner quantizes it
 * exactly once and the same serialized bytes travel the whole ring,
 * with every replica — the owner included — dequantizing that one
 * message). Because all replicas decode identical bytes, the reduced
 * gradient is bitwise identical on every chip, which is what keeps
 * N-chip training a replicated state machine.
 *
 * Callers pre-scale each chip's gradient by its shard weight
 * (shard_rows / global_batch) so the ring's sum is the exact
 * global-batch mean even with unequal shards.
 *
 * Failure semantics: any message whose delivery fails (retransmit
 * budget spent — silent peer or persistent drops) or whose simulated
 * delivery time exceeds the per-step collective deadline (a
 * straggler) classifies the *sending* chip as failed and aborts the
 * collective; the caller abandons the step, rebalances onto the
 * survivors, and retries. The CancelToken is polled inside every
 * wait loop (see Interconnect::send), so deadlines and drains fire
 * mid-collective.
 */

#ifndef CQ_DIST_COLLECTIVE_H
#define CQ_DIST_COLLECTIVE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "dist/interconnect.h"

namespace cq::dist {

/** Collective knobs. */
struct CollectiveConfig
{
    /** LDQ block size for gradient compression on the wire. */
    std::size_t blockSize = 64;
    /** LDQ level width in bits. */
    int bits = 8;
    /**
     * Per-message deadline in simulated microseconds (0 = none). A
     * delivery that takes longer — retransmits and straggler delay
     * included — classifies the sender as failed. Set it well above
     * the fault-free per-message cost; only a genuinely stuck or
     * straggling chip should trip it.
     */
    double deadlineUs = 10000.0;
};

/** Why a collective ended. */
enum class CollectiveStatus
{
    Ok,
    /** One or more chips failed (silent, drops, straggler). The
     *  caller must drop them and retry the step on the survivors. */
    ChipFailed,
    /** The CancelToken fired mid-collective. */
    Cancelled,
};

const char *collectiveStatusName(CollectiveStatus status);

struct CollectiveOutcome
{
    CollectiveStatus status = CollectiveStatus::Ok;
    /** Chip ids classified failed (status == ChipFailed). */
    std::vector<std::size_t> failed;
    /** Why the first failed chip was classified: "silent" (delivery
     *  failure) or "straggler" (deadline exceeded). */
    const char *failureKind = "";
    /** Simulated microseconds the collective consumed. */
    double simUs = 0.0;
    /** Bytes that crossed the wire (all attempts). */
    std::uint64_t bytesOnWire = 0;
    /** Retransmissions across all messages. */
    unsigned retransmits = 0;
    /** FP32 bytes the quantized wire format replaced (compression
     *  numerator; bytesOnWire is the denominator plus headers). */
    std::uint64_t fp32Bytes = 0;
};

/**
 * In-place averaging all-reduce. @p grads[i] is chip @p ring[i]'s
 * pre-weighted flat gradient; all vectors must have identical size.
 * @p ring lists the live chips in fixed ascending-id order (the
 * reduction order is a function of the ring alone, which is what
 * makes a fixed chip count + seed bitwise deterministic at any
 * CQ_THREADS). On Ok, every grads[i] holds the identical reduced
 * gradient. On ChipFailed/Cancelled the gradients are garbage and
 * the caller must abandon the step.
 */
CollectiveOutcome
ringAllReduceLdq(const std::vector<std::vector<float> *> &grads,
                 const std::vector<std::size_t> &ring,
                 Interconnect &net, const CollectiveConfig &config,
                 CancelToken *cancel = nullptr);

/** @name Wire codec (exposed for tests) */
/** @{ */
/**
 * Serialize @p x (length @p n) as an LDQ-quantized chunk: a 32-byte
 * header (magic, bits, n, blockSize, block count), one 8-byte scale
 * per block, then n levels of ceil(bits / 8) bytes each.
 */
std::vector<std::uint8_t> encodeLdqChunk(const float *x, std::size_t n,
                                         std::size_t blockSize,
                                         int bits);
/** Decode into @p out (resized). False on a malformed buffer. */
bool decodeLdqChunk(const std::vector<std::uint8_t> &bytes,
                    std::vector<float> &out);
/** @} */

} // namespace cq::dist

#endif // CQ_DIST_COLLECTIVE_H
