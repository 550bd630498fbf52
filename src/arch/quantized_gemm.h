/**
 * @file
 * Functional model of the MM/CONV datapath: the composition of
 * LDQ-quantized operands (per-block tags as managed by the QBC),
 * nibble-serial integer MACs in the PE array, 38-bit accumulation,
 * and per-segment dequantization in the Accumulators.
 *
 * This is the executable semantics of what the timing simulator only
 * schedules; tests use it to bound the end-to-end numerical error of
 * the hardware path against FP32 GEMM.
 *
 * The datapath optionally carries ABFT checksums (DESIGN.md §5.4):
 * row/column sums of the product are verified against predictions
 * computed from the *dequantized operand values* — the exact numbers
 * the PE array multiplies — so the tolerance only has to absorb
 * FP32/segment rounding, not quantization error, and is therefore
 * valid at every HQT operand width. A mismatch triggers one
 * recomputation of the implicated rows (retry), and a persistent
 * mismatch is reported for the caller to escalate.
 */

#ifndef CQ_ARCH_QUANTIZED_GEMM_H
#define CQ_ARCH_QUANTIZED_GEMM_H

#include <cstddef>

#include "common/stats.h"
#include "quant/block_quant.h"
#include "sim/faults/fault_injector.h"
#include "tensor/abft.h"
#include "tensor/tensor.h"

namespace cq::arch {

/** ABFT checksum options for the quantized datapath. */
struct QuantizedGemmAbft
{
    /** Verify row/column checksums of the product. */
    bool verify = false;
    /** Counter sink for abft.* statistics (may be nullptr). */
    StatGroup *stats = nullptr;
    /**
     * Post-compute injection pass over the output tile (the
     * Accumulators fault site), applied once after the initial
     * compute. Retries model a transient-upset recovery and run
     * clean unless corruptRetries is set.
     */
    sim::FaultInjector *faults = nullptr;
    bool corruptRetries = false;
};

/** Options for the functional quantized GEMM. */
struct QuantizedGemmOptions
{
    /** Operand width (4/8/12/16). */
    int bits = 8;
    /**
     * LDQ block length along the reduction dimension. Each k-segment
     * of this many elements shares one quantization tag per operand
     * (a buffer line's worth in the QBC); the accumulator dequantizes
     * per segment into FP32.
     */
    std::size_t blockK = 64;
    /** ABFT checksum configuration (off by default). */
    QuantizedGemmAbft abft;
};

/**
 * C = A(m x k) * B(k x n) through the modeled datapath. A is
 * quantized row-wise and B column-wise in k-segments of blockK
 * elements; products are computed with PeArray::bitSerialMultiply and
 * accumulated exactly as the adder tree + shift-adder do. With
 * options.abft.verify the product is checksum-verified; @p report
 * (when non-null) receives what the checksum pass found and fixed.
 */
Tensor quantizedMatmul(const Tensor &a, const Tensor &b,
                       const QuantizedGemmOptions &options = {},
                       abft::AbftReport *report = nullptr);

} // namespace cq::arch

#endif // CQ_ARCH_QUANTIZED_GEMM_H
