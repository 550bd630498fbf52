/**
 * @file
 * Implementation of quantized-training algorithm policies.
 */

#include "quant/policy.h"

#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace cq::quant {

const char *
tensorRoleName(TensorRole role)
{
    switch (role) {
      case TensorRole::Weight:         return "weight";
      case TensorRole::Activation:     return "activation";
      case TensorRole::NeuronGradient: return "neuron-gradient";
      case TensorRole::WeightGradient: return "weight-gradient";
    }
    return "?";
}

const RolePolicy &
AlgorithmConfig::policyFor(TensorRole role) const
{
    switch (role) {
      case TensorRole::Weight:         return weights;
      case TensorRole::Activation:     return activations;
      case TensorRole::NeuronGradient: return neuronGradients;
      case TensorRole::WeightGradient: return weightGradients;
    }
    panic("unknown tensor role");
}

namespace {

/** Single plain INT candidate: layer-wise/block max-abs DQ. */
RolePolicy
plainPolicy(int bits)
{
    RolePolicy p;
    p.quantize = true;
    p.e2bqm.candidates = {QuantCandidate{bits, 1.0, 0}};
    p.e2bqm.metric = ErrorMetric::Rectilinear;
    return p;
}

RolePolicy
fp32Policy()
{
    RolePolicy p;
    p.quantize = false;
    return p;
}

} // namespace

AlgorithmConfig
AlgorithmConfig::fp32()
{
    AlgorithmConfig cfg;
    cfg.name = "FP32";
    cfg.weights = fp32Policy();
    cfg.activations = fp32Policy();
    cfg.neuronGradients = fp32Policy();
    cfg.weightGradients = fp32Policy();
    return cfg;
}

AlgorithmConfig
AlgorithmConfig::zhu2019()
{
    AlgorithmConfig cfg;
    cfg.name = "Zhu2019";
    cfg.weights = plainPolicy(8);
    cfg.activations = plainPolicy(8);
    // Direction-sensitive gradient clipping: choose the clipping range
    // by the error in inner-product space (cosine distance arbiter).
    RolePolicy grad;
    grad.quantize = true;
    grad.e2bqm = E2bqmConfig::clippingLadder(8, ErrorMetric::CosineDistance);
    cfg.neuronGradients = grad;
    cfg.weightGradients = fp32Policy(); // FP32 weight update
    return cfg;
}

AlgorithmConfig
AlgorithmConfig::zhang2020()
{
    AlgorithmConfig cfg;
    cfg.name = "Zhang2020";
    cfg.weights = plainPolicy(8);
    cfg.activations = plainPolicy(8);
    // Adaptive precision: INT8 unless the estimated quantization error
    // is too large, then fall back to INT16.
    RolePolicy grad;
    grad.quantize = true;
    grad.e2bqm = E2bqmConfig::adaptivePrecision(ErrorMetric::MeanBias);
    // Mean bias is near zero for both candidates on symmetric data;
    // arbitrate on rectilinear distance scaled against a threshold by
    // preferring INT8 whenever errors tie (see e2bqmQuantize). Using
    // rectilinear keeps the INT16 fallback sensitive to heavy tails.
    grad.e2bqm.metric = ErrorMetric::Rectilinear;
    cfg.neuronGradients = grad;
    cfg.weightGradients = fp32Policy();
    return cfg;
}

AlgorithmConfig
AlgorithmConfig::wang2018()
{
    AlgorithmConfig cfg;
    cfg.name = "Wang2018";
    RolePolicy fp8;
    fp8.quantize = true;
    fp8.useFloat = true;
    fp8.floatFormat = FloatFormat::fp8();
    cfg.weights = fp8;
    cfg.activations = fp8;
    cfg.neuronGradients = fp8;
    cfg.weightGradients = fp32Policy(); // FP16 update (master copy)
    return cfg;
}

AlgorithmConfig
AlgorithmConfig::yang2020()
{
    AlgorithmConfig cfg;
    cfg.name = "Yang2020";
    cfg.weights = plainPolicy(8);
    cfg.activations = plainPolicy(8);
    cfg.neuronGradients = plainPolicy(8); // max-abs statistic, INT8
    cfg.weightGradients = fp32Policy();   // FP24 update (master copy)
    return cfg;
}

AlgorithmConfig
AlgorithmConfig::zhu2019Hqt(std::size_t block_size)
{
    AlgorithmConfig cfg = zhu2019();
    cfg.name = "Zhu2019+HQT";
    cfg.blockSize = block_size;
    return cfg;
}

AlgorithmConfig
AlgorithmConfig::zhang2020Hqt(std::size_t block_size)
{
    AlgorithmConfig cfg = zhang2020();
    cfg.name = "Zhang2020+HQT";
    cfg.blockSize = block_size;
    return cfg;
}

Tensor
applyPolicy(const Tensor &x, const AlgorithmConfig &algo, TensorRole role,
            PolicyApplyInfo *info)
{
    const RolePolicy &policy = algo.policyFor(role);
    if (!policy.quantize || x.numel() == 0) {
        if (info != nullptr && x.numel() > 0)
            ++info->bitsTally[32]; // FP32 passthrough
        return x;
    }
    if (policy.useFloat) {
        // Layer-wise: one max-abs loss scale for the whole tensor.
        Tensor out =
            fakeQuantizeFloatScaled(x, policy.floatFormat, x.maxAbs());
        if (info != nullptr) {
            const int totalBits = 1 + policy.floatFormat.expBits +
                                  policy.floatFormat.mantBits;
            ++info->bitsTally[totalBits];
            info->rmse = rmse(x, out);
        }
        return out;
    }
    E2bqmSelectionInfo selection;
    E2bqmSelectionInfo *sel = info != nullptr ? &selection : nullptr;
    Tensor out = algo.blockSize > 0
                     ? fakeQuantizeHqt(x, algo.blockSize,
                                       policy.e2bqm, sel)
                     : fakeQuantizeE2bqm(x, policy.e2bqm, sel);
    if (info != nullptr) {
        for (const auto &kv : selection.bitsTally)
            info->bitsTally[kv.first] += kv.second;
        info->rmse = rmse(x, out);
    }
    return out;
}

} // namespace cq::quant
