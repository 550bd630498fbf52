/**
 * @file
 * Implementation of the optimizers.
 */

#include "nn/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "common/threadpool.h"

namespace cq::nn {

const char *
optimizerKindName(OptimizerKind kind)
{
    switch (kind) {
      case OptimizerKind::SGD:     return "sgd";
      case OptimizerKind::AdaGrad: return "adagrad";
      case OptimizerKind::RMSProp: return "rmsprop";
      case OptimizerKind::Adam:    return "adam";
    }
    return "?";
}

NdpoConstants
NdpoConstants::fromConfig(const OptimizerConfig &config)
{
    NdpoConstants k;
    switch (config.kind) {
      case OptimizerKind::SGD:
        // w = w - eta * g
        k.c5 = config.lr;
        k.s1UseM = false;
        k.s2UseV = false;
        break;
      case OptimizerKind::AdaGrad:
        // v = v + g^2 ; w = w - eta * g / sqrt(v)
        // (the paper's Table IV calls the accumulator m; we keep it in
        // the v slot so s2 selects the inverse square root uniformly)
        k.c3 = 1.0;
        k.c4 = 1.0;
        k.c5 = config.lr;
        k.s1UseM = false;
        k.s2UseV = true;
        break;
      case OptimizerKind::RMSProp:
        // v = beta*v + (1-beta)*g^2 ; w = w - eta * g / sqrt(v)
        k.c3 = kRmsPropBeta;
        k.c4 = 1.0 - kRmsPropBeta;
        k.c5 = config.lr;
        k.s1UseM = false;
        k.s2UseV = true;
        break;
      case OptimizerKind::Adam:
        // m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*g^2 ;
        // w = w - c5 * m / sqrt(v), c5 = eta*sqrt(1-b2)/(1-b1)
        // (the paper's fixed approximation of the bias correction)
        k.c1 = kAdamBeta1;
        k.c2 = 1.0 - kAdamBeta1;
        k.c3 = kAdamBeta2;
        k.c4 = 1.0 - kAdamBeta2;
        k.c5 = config.lr * std::sqrt(1.0 - kAdamBeta2) /
               (1.0 - kAdamBeta1);
        k.s1UseM = true;
        k.s2UseV = true;
        break;
    }
    return k;
}

NdpoConstants
NdpoConstants::forStep(const OptimizerConfig &config, std::size_t t)
{
    NdpoConstants k = fromConfig(config);
    if (config.kind == OptimizerKind::Adam) {
        CQ_ASSERT(t >= 1);
        const double bc1 =
            1.0 - std::pow(kAdamBeta1, static_cast<double>(t));
        const double bc2 =
            1.0 - std::pow(kAdamBeta2, static_cast<double>(t));
        k.c5 = config.lr * std::sqrt(bc2) / bc1;
    }
    return k;
}

void
NdpoConstants::apply(float &w, float &m, float &v, float g) const
{
    // Formula 1, evaluated in FP32 exactly as the NDPO datapath does.
    m = static_cast<float>(c1 * m + c2 * g);
    v = static_cast<float>(c3 * v + c4 * static_cast<double>(g) * g);
    const float t1 = s1UseM ? m : g;
    const float t2 =
        s2UseV ? 1.0f / std::sqrt(v + static_cast<float>(kNdpoEps)) : 1.0f;
    w = static_cast<float>(w - c5 * t1 * t2);
}

Optimizer::Optimizer(OptimizerConfig config) : config_(config) {}

void
Optimizer::attach(const std::vector<Param *> &params)
{
    params_ = params;
    m_.clear();
    v_.clear();
    for (Param *p : params_) {
        m_.emplace_back(p->value.shape());
        v_.emplace_back(p->value.shape());
    }
    step_ = 0;
}

void
Optimizer::step()
{
    CQ_ASSERT_MSG(!params_.empty(), "optimizer not attached");
    ++step_;
    const NdpoConstants k = NdpoConstants::forStep(config_, step_);
    for (std::size_t pi = 0; pi < params_.size(); ++pi) {
        Param *p = params_[pi];
        Tensor &m = m_[pi];
        Tensor &v = v_[pi];
        // Each weight's update is independent; chunking over i is
        // bitwise deterministic.
        parallelFor(0, p->value.numel(), 1 << 14,
                    [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i)
                            k.apply(p->value[i], m[i], v[i],
                                    p->grad[i]);
                    });
    }
}

} // namespace cq::nn
