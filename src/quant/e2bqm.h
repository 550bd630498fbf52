/**
 * @file
 * Error-estimation-based Quantization Multiplexing (E2BQM),
 * Sec. III-B of the paper.
 *
 * E2BQM unifies the divergent long-tail handling techniques of the
 * literature (shiftable fixed point, BiScaled-FxP, direction-sensitive
 * gradient clipping, adaptive INT8/INT16 selection) into one hardware
 * mechanism: quantize the data with N candidate quantization functions
 * Q_i, estimate the error of each against the original data with a
 * configurable distance, and let an arbiter pick the best candidate.
 * The SQU executes the candidates time-multiplexed over the same
 * buffered block, so no extra memory traffic is incurred.
 */

#ifndef CQ_QUANT_E2BQM_H
#define CQ_QUANT_E2BQM_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "quant/qformat.h"
#include "quant/statistics.h"
#include "tensor/tensor.h"

namespace cq::quant {

/**
 * One candidate quantization function. Candidates vary in bit width
 * (Zhang-style adaptive precision), clipping ratio of the scale
 * statistic (Zhu-style gradient clipping) and shiftable encoding
 * (Zhong-style).
 */
struct QuantCandidate
{
    int bits = 8;
    /** Scale covers clipRatio * maxAbs; 1.0 means no clipping. */
    double clipRatio = 1.0;
    /** When > 0, use a shiftable format with this shift. */
    int shift = 0;

    std::string toString() const;
};

/** Result of quantizing one block with one candidate. */
struct CandidateResult
{
    QuantCandidate candidate;
    IntFormat format;          ///< effective (fine) format used
    std::vector<std::int16_t> levels;
    /** Per-element scale-select bits (only for shiftable candidates). */
    std::vector<std::uint8_t> wideBits;
    double error = 0.0;        ///< arbiter metric value

    /** Dequantize this candidate's levels. */
    Tensor dequantize(const Shape &shape) const;
};

/** Configuration of the multiplexer. */
struct E2bqmConfig
{
    std::vector<QuantCandidate> candidates;
    ErrorMetric metric = ErrorMetric::Rectilinear;

    /**
     * 4-way clipping ladder simulating Direction Sensitive Gradient
     * Clipping: candidates clip at 1, 1/2, 1/4, 1/8 of max|X|.
     */
    static E2bqmConfig clippingLadder(int bits = 8,
                                      ErrorMetric metric =
                                          ErrorMetric::Rectilinear);

    /**
     * 4-way shiftable ladder simulating the Shiftable Fixed-Point
     * Data Format: plain INT plus shiftable variants (shift 1..3).
     */
    static E2bqmConfig shiftableLadder(int bits = 8,
                                       ErrorMetric metric =
                                           ErrorMetric::Rectilinear);

    /**
     * Zhang-style adaptive precision: INT8 vs INT16 selected by
     * estimated error against a mean-bias/threshold arbiter.
     */
    static E2bqmConfig adaptivePrecision(ErrorMetric metric =
                                             ErrorMetric::MeanBias);
};

/**
 * Run E2BQM over one data block: statistic pass, candidate
 * quantization, error estimation, arbitration. Returns every
 * candidate's result with `error` filled in; `selected` is the index
 * of the winner (ties break toward earlier candidates, and toward
 * fewer bits on equal error so cheaper formats win).
 */
struct E2bqmResult
{
    std::vector<CandidateResult> candidates;
    std::size_t selected = 0;

    const CandidateResult &best() const { return candidates[selected]; }
};

/**
 * Relative tolerance under which two candidate errors count as equal
 * during arbitration: within it, the cheaper format (fewer bits, then
 * the earlier candidate) wins, so a 1-ULP error difference can never
 * force INT16 over INT8.
 */
inline constexpr double kArbitrationRelEps = 1e-9;

/**
 * Pick the winning candidate index from filled-in results: smallest
 * |error| wins; errors within kArbitrationRelEps (relative) of each
 * other are ties broken toward fewer bits, then the earlier
 * candidate. Signed metrics (MeanBias) are compared by magnitude.
 */
std::size_t arbitrate(const std::vector<CandidateResult> &candidates);

E2bqmResult e2bqmQuantize(const Tensor &x, const E2bqmConfig &config);

/**
 * Optional observability side-channel of the fake-quantize entry
 * points: which bit width the arbiter chose, per block. Filling it is
 * tally-only — requesting the info never changes the quantized data.
 */
struct E2bqmSelectionInfo
{
    /** Chosen bit width -> number of blocks that chose it. */
    std::map<int, std::uint64_t> bitsTally;
};

/**
 * Round-trip through the selected candidate: bit for bit
 * e2bqmQuantize(x, config).best().dequantize(x.shape()), computed by
 * a fused sweep that never materializes the candidates' levels.
 */
Tensor fakeQuantizeE2bqm(const Tensor &x, const E2bqmConfig &config,
                         E2bqmSelectionInfo *info = nullptr);

/**
 * Blocked E2BQM: apply the multiplexer independently to consecutive
 * blocks of @p block_size elements (LDQ + E2BQM composed, i.e. the
 * full HQT path). Returns the dequantized reconstruction, each block
 * equal to fakeQuantizeE2bqm of that block alone.
 */
Tensor fakeQuantizeHqt(const Tensor &x, std::size_t block_size,
                       const E2bqmConfig &config,
                       E2bqmSelectionInfo *info = nullptr);

} // namespace cq::quant

#endif // CQ_QUANT_E2BQM_H
