/**
 * @file
 * Modeled chip-to-chip interconnect for multi-chip training.
 *
 * The distributed trainer (dist_trainer.h) is a deterministic
 * lock-step simulation: one coordinator drives N simulated chips and
 * every inter-chip message goes through this Interconnect, which
 * charges simulated time (per-link latency plus bytes/bandwidth) and
 * injects seeded faults — payload bit corruption (via the shared
 * sim::FaultInjector, FaultSite::LinkPayload), whole-message drops,
 * and silent peers (a crashed or hung chip never gets a frame onto
 * the wire).
 *
 * Every frame carries a CRC32 over its payload. A receiver that sees
 * a CRC mismatch NACKs and the sender retransmits from the original
 * payload (fresh serialization, so a corrupted frame never
 * propagates); a dropped frame is detected by timeout and
 * retransmitted the same way. Retransmits are bounded: once the
 * budget is spent the peer is reported undelivered and the caller
 * (the collective) classifies the chip as failed.
 *
 * Everything runs serially on the calling thread with Rng-seeded
 * draws, so a fixed seed produces a bitwise-identical fault pattern
 * and simulated-time trace at any CQ_THREADS setting.
 */

#ifndef CQ_DIST_INTERCONNECT_H
#define CQ_DIST_INTERCONNECT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/faults/fault_injector.h"

namespace cq::dist {

/** Per-link timing + fault model (all links identical in a ring). */
struct LinkConfig
{
    /** Seed of the link-fault stream (drops + payload corruption). */
    std::uint64_t seed = 0x11CA;
    /** Per-hop propagation latency, simulated microseconds. */
    double latencyUs = 1.0;
    /** Link bandwidth in GB/s (1 GB/s = 1000 bytes per us). */
    double gbPerSec = 25.0;
    /** Receiver timeout per attempt when a frame never arrives. */
    double timeoutUs = 50.0;
    /** Seeded probability a given transmission attempt is dropped. */
    double dropProb = 0.0;
    /** Payload corruption rate, bit flips per Mbit per attempt (the
     *  FaultInjector's LinkPayload site). */
    double corruptFlipsPerMbit = 0.0;
    /** Retransmits allowed per message after the first attempt. */
    unsigned maxRetransmits = 3;
};

/** Outcome of delivering one message (including retransmits). */
struct SendOutcome
{
    /** False: the retransmit budget is spent (silent peer, persistent
     *  drops) and the destination never got an intact frame. */
    bool delivered = false;
    /** Retransmission attempts consumed (0 = clean first try). */
    unsigned retransmits = 0;
    /** Attempts rejected by the receiver's CRC check. */
    unsigned crcRejects = 0;
    /** Simulated time the delivery took, all attempts included. */
    double simUs = 0.0;
    /** Bytes that crossed the wire (every attempt counts). */
    std::uint64_t bytesOnWire = 0;
    /** True when the caller's CancelToken fired mid-delivery. */
    bool cancelled = false;
};

/**
 * N-chip interconnect. Not thread-safe: the coordinator is the only
 * caller (the simulation is lock-step).
 */
class Interconnect
{
  public:
    Interconnect(std::size_t chips, LinkConfig config);

    std::size_t chips() const { return chips_; }
    const LinkConfig &config() const { return config_; }

    /** Mark @p chip silent: its frames never reach the wire (crash or
     *  hang — the failure-classification difference is *when* the
     *  trainer marks it, not how the link behaves). */
    void setSilent(std::size_t chip, bool silent);
    bool silent(std::size_t chip) const;

    /** Add @p delayUs of simulated time to every send from @p chip
     *  (a persistent straggler). 0 clears. */
    void setSendDelay(std::size_t chip, double delayUs);
    double sendDelay(std::size_t chip) const;

    /**
     * Deliver @p payload from @p src to @p dst: frame it (header +
     * CRC32), charge simulated time, run the seeded drop/corrupt
     * draws, retransmit on CRC reject or timeout up to the budget.
     * On delivered == true, @p received holds a bit-exact copy of
     * @p payload (a corrupted frame is never surfaced — the CRC
     * catches it and the retransmit path replaces it).
     *
     * @p cancel (nullable) is polled every attempt, so a deadline or
     * SIGTERM drain fires *inside* a collective wait loop, not
     * only at step boundaries.
     */
    SendOutcome send(std::size_t src, std::size_t dst,
                     const std::vector<std::uint8_t> &payload,
                     std::vector<std::uint8_t> &received,
                     CancelToken *cancel = nullptr);

    /** Total simulated microseconds charged so far. */
    double totalSimUs() const { return totalSimUs_; }
    /** Total bytes that crossed the wire so far. */
    std::uint64_t totalBytesOnWire() const { return totalBytes_; }

    /** link.* counters (sends, retransmits, crc_rejects, drops). */
    const StatGroup &stats() const { return stats_; }

  private:
    double attemptCostUs(std::size_t src, std::size_t bytes) const;

    std::size_t chips_;
    LinkConfig config_;
    Rng rng_;                  ///< drop draws
    sim::FaultInjector faults_; ///< payload corruption
    std::vector<std::uint8_t> silent_;
    std::vector<double> sendDelayUs_;
    double totalSimUs_ = 0.0;
    std::uint64_t totalBytes_ = 0;
    StatGroup stats_;
};

} // namespace cq::dist

#endif // CQ_DIST_INTERCONNECT_H
