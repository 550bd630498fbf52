/**
 * @file
 * Quantized-training algorithm policies.
 *
 * The paper evaluates two state-of-the-art statistic-based quantized
 * training algorithms (Zhu et al. 2019 "unified INT8 training" and
 * Zhang et al. 2020 "fixed-point back-propagation") plus HQT-tailored
 * versions of both. A policy maps every tensor *role* in the training
 * loop (weights, activations, gradients on neurons, gradients on
 * weights) to a quantization recipe; the weight-update stage is always
 * kept in FP32 (master weights), which is exactly what the NDP engine
 * exists to make cheap.
 */

#ifndef CQ_QUANT_POLICY_H
#define CQ_QUANT_POLICY_H

#include <cstddef>
#include <string>

#include "quant/e2bqm.h"
#include "tensor/tensor.h"

namespace cq::quant {

/** Which tensor of the training dataflow is being quantized. */
enum class TensorRole
{
    Weight,          ///< W (forward and NG reuse)
    Activation,      ///< I / O neurons
    NeuronGradient,  ///< delta
    WeightGradient,  ///< dW -- kept full precision by every algorithm
};

const char *tensorRoleName(TensorRole role);

/** Quantization recipe for one tensor role. */
struct RolePolicy
{
    /** False = keep FP32 (e.g. weight gradients). */
    bool quantize = true;
    /** E2BQM candidates + arbiter; single-candidate = plain DQ. */
    E2bqmConfig e2bqm;
    /**
     * When true, quantize into the minifloat format below instead of
     * fixed point (Wang et al.'s FP8 path); the max-abs statistic
     * still drives a power-of-two loss scale.
     */
    bool useFloat = false;
    FloatFormat floatFormat = FloatFormat::fp8();
};

/**
 * A complete algorithm: a recipe per role plus the statistic
 * granularity. blockSize == 0 means layer-wise statistics (the
 * original algorithms); a positive blockSize means LDQ slicing
 * (the +HQT variants). Block slicing applies only to the integer
 * (E2BQM) recipes: a useFloat role is always scaled layer-wise.
 */
struct AlgorithmConfig
{
    std::string name;
    RolePolicy weights;
    RolePolicy activations;
    RolePolicy neuronGradients;
    RolePolicy weightGradients;
    /** LDQ block size in elements; 0 = layer-wise. */
    std::size_t blockSize = 0;

    const RolePolicy &policyFor(TensorRole role) const;
    bool usesHqt() const { return blockSize > 0; }

    /** @name Presets evaluated in the paper */
    /** @{ */
    /** FP32 baseline: nothing quantized. */
    static AlgorithmConfig fp32();
    /**
     * Zhu et al. 2019: INT8 everywhere, direction-sensitive gradient
     * clipping on neuron gradients (4-way clipping ladder with cosine
     * arbiter), FP32 weight update.
     */
    static AlgorithmConfig zhu2019();
    /**
     * Zhang et al. 2020: INT8 weights/activations, adaptive INT8/16
     * neuron gradients (mean-bias arbiter), FP32 weight update.
     */
    static AlgorithmConfig zhang2020();
    /**
     * Wang et al. 2018: FP8 (1-5-2) everywhere with max-abs-driven
     * loss scaling; weight update in FP16 (modeled as exact FP32
     * masters -- the update-precision effect is below the resolution
     * of the synthetic tasks).
     */
    static AlgorithmConfig wang2018();
    /**
     * Yang et al. 2020: INT8 with max-abs statistics for every
     * tensor, FP24 weight update (same master-weight treatment).
     */
    static AlgorithmConfig yang2020();
    /** HQT-tailored variants: same recipes with LDQ block slicing. */
    static AlgorithmConfig zhu2019Hqt(std::size_t block_size = 1024);
    static AlgorithmConfig zhang2020Hqt(std::size_t block_size = 1024);
    /** @} */
};

/**
 * Optional observability side-channel of applyPolicy. Purely an
 * extra read-only tally: the quantized output is bitwise identical
 * whether or not the info is requested.
 */
struct PolicyApplyInfo
{
    /**
     * Chosen bit width -> number of blocks that chose it. For float
     * policies the "bit width" is the total format width
     * (1 + expBits + mantBits, e.g. 8 for fp8); FP32 passthrough
     * records 32.
     */
    std::map<int, std::uint64_t> bitsTally;
    /** RMSE of the reconstruction against the input. */
    double rmse = 0.0;
};

/**
 * Fake-quantize @p x according to the algorithm's recipe for @p role:
 * layer-wise or LDQ-sliced E2BQM round-trip. Returns @p x unchanged
 * for roles the algorithm keeps in FP32.
 */
Tensor applyPolicy(const Tensor &x, const AlgorithmConfig &algo,
                   TensorRole role, PolicyApplyInfo *info = nullptr);

} // namespace cq::quant

#endif // CQ_QUANT_POLICY_H
