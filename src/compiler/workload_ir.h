/**
 * @file
 * Workload intermediate representation.
 *
 * A network's training minibatch is lowered to an ordered list of
 * tasks: GEMMs (convolutions arrive here already im2col-lowered),
 * streaming elementwise stages (pooling, activations that move data,
 * softmax, layer-norm, residual adds) and per-layer weight updates.
 * The Cambricon-Q code generator tiles these tasks into instruction
 * streams; the TPU code generator adds the separate statistic /
 * quantization passes its architecture needs; the GPU model consumes
 * the FLOP/byte totals directly. Using one IR for all three targets
 * keeps the comparison apples-to-apples.
 */

#ifndef CQ_COMPILER_WORKLOAD_IR_H
#define CQ_COMPILER_WORKLOAD_IR_H

#include <cstdint>
#include <string>
#include <vector>

#include "arch/isa.h"

namespace cq::compiler {

/** One GEMM: (m x k) * (k x n) -> (m x n). */
struct GemmTask
{
    arch::Phase phase = arch::Phase::FW;
    std::string layer;

    std::uint64_t m = 0, n = 0, k = 0;

    /** @name Operand A (NBin side: activations / gradients) */
    /** @{ */
    std::string aTensor;
    /** A is raw FP32 in memory (network input) -> QLOAD at 4 B/elem. */
    bool aIsFp32 = false;
    /** @} */

    /** @name Operand B (SB side: weights or a second tensor) */
    /** @{ */
    std::string bTensor;
    /**
     * B is this layer's weight matrix: it must be quantized from the
     * FP32 master once per minibatch (QMOVE on Cambricon-Q; separate
     * S+Q passes on the TPU). Zero when B is an already-quantized
     * tensor (e.g. activations in the WG GEMM).
     */
    std::uint64_t freshWeightElems = 0;
    /** @} */

    /** @name Output C */
    /** @{ */
    std::string cTensor;
    /** E2BQM ways for quantizing C. */
    unsigned waysOut = 1;
    /**
     * C is the FP32 weight gradient feeding the weight update of
     * `layer` (a WG GEMM): stored at full precision, as WGSTORE on
     * NDP targets. Otherwise C gets a quantized store.
     */
    bool isWeightGradient = false;
    /** Fused activation on the output tile (SFU work). */
    bool fusedActivation = false;
    /** @} */

    /**
     * @name Memory-footprint overrides
     * Convolutions are im2col-lowered, so m*k overstates the elements
     * actually fetched: the accelerator streams the *raw* feature map
     * and expands windows on chip. These totals (elements for one
     * full pass over the operand) default to the dense GEMM sizes
     * when 0.
     */
    /** @{ */
    std::uint64_t aElemsTotal = 0;
    std::uint64_t bElemsTotal = 0;
    std::uint64_t cElemsTotal = 0;
    /** @} */

    std::uint64_t macs() const { return m * n * k; }

    std::uint64_t aElems() const
    {
        return aElemsTotal ? aElemsTotal : m * k;
    }
    std::uint64_t bElems() const
    {
        return bElemsTotal ? bElemsTotal : k * n;
    }
    std::uint64_t cElems() const
    {
        return cElemsTotal ? cElemsTotal : m * n;
    }
};

/** A streaming elementwise stage: load -> SFU -> store. */
struct StreamTask
{
    arch::Phase phase = arch::Phase::FW;
    std::string layer;
    std::string inTensor;
    std::string outTensor;
    /** Optional second input (residual adds). */
    std::string inTensor2;
    std::uint64_t inElems2 = 0;
    /** Elements read (quantized, 1 B each). */
    std::uint64_t inElems = 0;
    /** Elements written. */
    std::uint64_t outElems = 0;
    /**
     * The output is the FP32 weight gradient of `layer` (embedding
     * grads), stored like a GEMM's; otherwise a quantized store.
     */
    bool isWeightGradient = false;
    /** SFU operations (usually max(in, out)). */
    std::uint64_t sfuOps = 0;
    unsigned waysOut = 1;
};

/**
 * Pure dependence aliasing (tensor concatenation / gradient fan-out):
 * no data movement, but readers of @p outTensor must wait for the
 * writers of every tensor in @p inTensors.
 */
struct AliasTask
{
    std::string outTensor;
    std::vector<std::string> inTensors;
};

/** Per-layer weight update (the h() stage). */
struct UpdateTask
{
    std::string layer;
    /** Number of FP32 weights (and m/v state elements) to update. */
    std::uint64_t numWeights = 0;
};

/** Discriminated task union. */
struct Task
{
    enum class Kind { Gemm, Stream, Update, Alias } kind = Kind::Gemm;
    GemmTask gemm;
    StreamTask stream;
    UpdateTask update;
    AliasTask alias;

    static Task make(GemmTask t);
    static Task make(StreamTask t);
    static Task make(UpdateTask t);
    static Task make(AliasTask t);
};

/** A whole training minibatch of one network. */
struct WorkloadIR
{
    std::string name;
    std::size_t batch = 0;
    std::vector<Task> tasks;

    /** @name Aggregates (filled by finalize()) */
    /** @{ */
    std::uint64_t totalWeights = 0;
    std::uint64_t totalMacs = 0;
    std::uint64_t sfuOps = 0;
    /** @} */

    /** Compute the aggregate fields from the task list. */
    void finalize();

    /** MACs in a given phase. */
    std::uint64_t macsInPhase(arch::Phase phase) const;
};

} // namespace cq::compiler

#endif // CQ_COMPILER_WORKLOAD_IR_H
