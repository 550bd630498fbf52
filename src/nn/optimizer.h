/**
 * @file
 * Training optimizers, expressed through the paper's unified NDPO
 * formula (Formula 1 of Sec. IV-B3):
 *
 *   m_t = c1 * m_{t-1} + c2 * g
 *   v_t = c3 * v_{t-1} + c4 * g^2
 *   t1  = m_t  or  g            (selector s1)
 *   t2  = v_t^{-1/2}  or  1     (selector s2)
 *   w_t = w_{t-1} - c5 * t1 * t2
 *
 * The software Optimizer below and the hardware NDPO model in
 * src/arch share this parameterization, so tests can check the NDP
 * engine bit-for-bit against the reference implementation.
 */

#ifndef CQ_NN_OPTIMIZER_H
#define CQ_NN_OPTIMIZER_H

#include <cstddef>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor.h"

namespace cq::nn {

/** Optimizers the NDP engine is configurable for (paper Table IV). */
enum class OptimizerKind { SGD, AdaGrad, RMSProp, Adam };

const char *optimizerKindName(OptimizerKind kind);

/** @name Fixed hyperparameters */
/** @{ */
inline constexpr double kRmsPropBeta = 0.9; ///< RMSProp decay
inline constexpr double kAdamBeta1 = 0.9;   ///< Adam first-moment decay
inline constexpr double kAdamBeta2 = 0.999; ///< Adam second-moment decay
/** Added inside the inverse square root. */
inline constexpr double kNdpoEps = 1e-8;
/** @} */

/** Hyperparameters. */
struct OptimizerConfig
{
    OptimizerKind kind = OptimizerKind::SGD;
    double lr = 0.01;
};

/**
 * The per-step constants of Formula 1. For Adam, c5 folds the paper's
 * fixed bias-correction approximation eta*sqrt(1-beta2)/(1-beta1);
 * exact per-step correction can be requested via forStep().
 */
struct NdpoConstants
{
    double c1 = 0.0, c2 = 0.0, c3 = 0.0, c4 = 0.0, c5 = 0.0;
    bool s1UseM = false; ///< t1 = m_t when true, else g
    bool s2UseV = false; ///< t2 = (v_t + eps)^-1/2 when true, else 1

    /** Constants for the configured optimizer (paper's fixed-c5 Adam). */
    static NdpoConstants fromConfig(const OptimizerConfig &config);

    /**
     * Constants with exact Adam bias correction folded into c5 for
     * update step @p t (1-based). Identical to fromConfig() for
     * non-Adam optimizers.
     */
    static NdpoConstants forStep(const OptimizerConfig &config,
                                 std::size_t t);

    /**
     * The scalar datapath: update one (w, m, v) triple for gradient g.
     * This exact function is what the NDPO hardware model evaluates.
     */
    void apply(float &w, float &m, float &v, float g) const;
};

/**
 * Reference optimizer over a set of parameters. Maintains m/v side
 * state per parameter (the state the NDP engine stores in DRAM rows
 * adjacent to the weights).
 */
class Optimizer
{
  public:
    explicit Optimizer(OptimizerConfig config);

    /** Bind the parameter set (allocates state). */
    void attach(const std::vector<Param *> &params);

    /** Apply one update step using each param's accumulated gradient. */
    void step();

    const OptimizerConfig &config() const { return config_; }
    std::size_t stepCount() const { return step_; }

    /**
     * Restore the update counter (with the matching m/v state) when
     * rolling back to a checkpoint; the counter drives Adam's exact
     * bias correction, so it must travel with the moments.
     */
    void setStepCount(std::size_t step) { step_ = step; }

    /** Direct access to the optimizer state for tests / NDP checks. */
    Tensor &stateM(std::size_t param_idx) { return m_[param_idx]; }
    Tensor &stateV(std::size_t param_idx) { return v_[param_idx]; }

  private:
    OptimizerConfig config_;
    std::vector<Param *> params_;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
    std::size_t step_ = 0;
};

} // namespace cq::nn

#endif // CQ_NN_OPTIMIZER_H
