/**
 * @file
 * PE-array model (paper Sec. IV-D, Fig. 11).
 *
 * The array is N x M 4-bit PEs: each of the N accumulators owns M PEs
 * whose products feed an adder tree, a shift-adder composing wider
 * operands from 4-bit nibble passes, and a dequantizer producing FP32
 * results. Two views are provided:
 *
 *  - a *timing* view (mmCycles / utilization) used by the simulator;
 *  - a *functional* view (bitSerialMultiply / dotProduct) used by the
 *    unit tests to check that nibble-serial composition is exact.
 */

#ifndef CQ_ARCH_PE_ARRAY_H
#define CQ_ARCH_PE_ARRAY_H

#include <cstdint>
#include <vector>

#include "arch/config.h"
#include "common/types.h"

namespace cq::arch {

/** Adder-tree + output pipeline depth (fill cycles per tile). */
inline constexpr Tick kPeFill = 10;

/** Timing + functional model of the PE array. */
class PeArray
{
  public:
    explicit PeArray(const CambriconQConfig &config);

    /**
     * Cycles to execute an (m x k) * (k x n) matrix multiply with
     * operand widths bits_a / bits_b. Tiles the n dimension over the
     * N accumulators and k over the M reduction lanes; bit-serial
     * passes multiply the work by (bits_a/4)*(bits_b/4). The mesh
     * organization splits m over rows and n over columns.
     */
    Tick mmCycles(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                  int bits_a, int bits_b) const;

    /** MAC count (m*n*k) for activity/energy accounting. */
    static std::uint64_t
    macs(std::uint64_t m, std::uint64_t n, std::uint64_t k)
    {
        return m * n * k;
    }

    /** Achieved utilization of the array for a given MM (0..1]. */
    double utilization(std::uint64_t m, std::uint64_t n,
                       std::uint64_t k, int bits_a, int bits_b) const;

    /** Cycles for an elementwise vector op of @p elems elements. */
    Tick vectorCycles(std::uint64_t elems) const;

    /** @name Functional datapath reference */
    /** @{ */
    /**
     * Multiply two signed fixed-point levels nibble-serially with
     * 4-bit unsigned partial products and the shift-adder, exactly as
     * the hardware composes them. Result equals a*b for any operands
     * within the given widths.
     */
    static std::int64_t bitSerialMultiply(std::int32_t a, int bits_a,
                                          std::int32_t b, int bits_b);

    /**
     * Dot product through the adder-tree + shift-adder pipeline: each
     * product from bitSerialMultiply is accumulated in a wide
     * accumulator (the 38-bit accumulator of the paper; modeled as
     * int64 with a saturation check).
     */
    static std::int64_t dotProduct(const std::vector<std::int32_t> &a,
                                   int bits_a,
                                   const std::vector<std::int32_t> &b,
                                   int bits_b);

    /**
     * Dequantize an accumulator value into FP32 given the operand
     * scales (the Accumulator's dequantizer stage).
     */
    static float dequantize(std::int64_t acc, double scale_a,
                            double scale_b);
    /** @} */

  private:
    std::size_t rows_;      ///< N accumulators
    std::size_t cols_;      ///< M PEs per accumulator
    int baseBits_;
    unsigned meshRows_;
    unsigned meshCols_;
    bool systolic_;
};

} // namespace cq::arch

#endif // CQ_ARCH_PE_ARRAY_H
