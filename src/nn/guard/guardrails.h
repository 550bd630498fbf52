/**
 * @file
 * Numerical guardrails for quantized training.
 *
 * The HQT pipeline runs at narrow precisions where a corrupted value
 * or a saturated streaming statistic can silently diverge a run. The
 * guard layer watches the training loop's tensors and loss for
 * numerical ill-health and trips deterministic alarms the trainer acts
 * on (discard step, roll back to a checkpoint, open a per-layer
 * quantization circuit breaker). Three mechanisms:
 *
 *  - scanTensor(): per-tensor NaN / Inf / max-abs census. Runs under
 *    parallelFor with an order-independent combine (integer counts and
 *    a float max), so the result is bitwise identical at any
 *    CQ_THREADS setting.
 *  - LossWatchdog: an exponential-moving-average baseline of the
 *    minibatch loss; trips on NaN/Inf loss, an absolute limit, or a
 *    spike over both 10x the EMA and a one-nat floor.
 *  - CircuitBreakerBank: per-layer breakers. A tripped layer falls
 *    back from the quantized (HQT) path to FP32 for a cooldown of N
 *    healthy steps, then re-arms.
 *
 * All counters are reported through the common StatGroup registry
 * under the "guard." prefix so benches can print them next to the
 * fault injector's "faults." counters.
 */

#ifndef CQ_NN_GUARD_GUARDRAILS_H
#define CQ_NN_GUARD_GUARDRAILS_H

#include <cstddef>
#include <vector>

#include "common/stats.h"
#include "tensor/tensor.h"

namespace cq::nn::guard {

/** Census of one tensor's numerical health. */
struct TensorHealth
{
    std::size_t nanCount = 0;
    std::size_t infCount = 0;
    /** Max |x| over the finite elements. */
    float maxAbs = 0.0f;

    bool finite() const { return nanCount == 0 && infCount == 0; }
};

/**
 * Scan @p t for NaN / Inf / max-abs in one parallel pass. The combine
 * across chunks uses only associative-commutative operations (integer
 * sums, float max), so the census is bitwise deterministic for 1 vs N
 * threads regardless of chunk completion order.
 */
TensorHealth scanTensor(const Tensor &t);

/** @name Guardrail thresholds (see DESIGN.md §5.2 for the rationale) */
/** @{ */
/**
 * A tensor whose max-abs exceeds this value trips the guard even when
 * still finite: the SQU's streaming max-abs statistic (the
 * quantization scale theta) has left the range any healthy tensor
 * reaches, so the quantized encoding is garbage. It sits orders of
 * magnitude above normal weights/activations (O(1-1e3)) and orders
 * below the ~1e19+ values a flipped FP32 exponent bit produces,
 * catching upsets that never reach Inf.
 */
inline constexpr double kSaturationThreshold = 1e8;
/** Watchdog: loss > factor * EMA trips (after warmup)... */
inline constexpr double kLossSpikeFactor = 10.0;
/**
 * ...when the loss also exceeds this floor (nats). A converged run's
 * EMA sits near 1e-3, where ordinary minibatch noise is a 10x "spike";
 * a real divergence climbs far past one nat.
 */
inline constexpr double kLossSpikeFloor = 1.0;
/** Watchdog: any loss above this trips, EMA regardless. */
inline constexpr double kAbsoluteLossLimit = 1e6;
/** EMA decay per observed healthy loss. */
inline constexpr double kLossEmaDecay = 0.9;
/** Healthy losses before the spike check arms (EMA warm-up). */
inline constexpr std::size_t kWatchdogWarmupSteps = 5;
/** Healthy steps a tripped layer stays on the FP32 path. */
inline constexpr std::size_t kBreakerCooldown = 10;
/** @} */

/** Loss-divergence watchdog with an EMA baseline. */
class LossWatchdog
{
  public:
    /**
     * Observe one minibatch loss. Returns true when the loss is
     * divergent (NaN/Inf, above the absolute limit, or a spike over
     * both the EMA and the floor after warmup). Only healthy losses
     * update the EMA, so a divergent run cannot drag its own baseline
     * up.
     */
    bool observe(double loss);

    double ema() const { return ema_; }

  private:
    double ema_ = 0.0;
    std::size_t healthy_ = 0;
};

/**
 * One breaker per layer. Tripping opens the breaker: the trainer
 * bypasses quantization (weights, activations, neuron gradients) for
 * that layer until the breaker has counted down kBreakerCooldown
 * healthy steps and re-arms.
 */
class CircuitBreakerBank
{
  public:
    explicit CircuitBreakerBank(std::size_t num_layers);

    /** Open the breaker of @p layer (restarts its cooldown). */
    void trip(std::size_t layer);
    /** Open every breaker (global events, e.g. watchdog trips). */
    void tripAll();
    /** True while @p layer must run the FP32 fallback path. */
    bool open(std::size_t layer) const;
    /** Count one healthy step: every open breaker moves 1 closer to
     *  re-arming. */
    void countDown();

  private:
    std::vector<std::size_t> remaining_;
};

/**
 * Aggregates the guard mechanisms for one training run and keeps the
 * "guard." counters. The QuantTrainer owns one instance when
 * resilience is enabled.
 */
class HealthMonitor
{
  public:
    explicit HealthMonitor(std::size_t num_layers);

    /**
     * Scan @p t at @p site ("activation", "neuronGradient", ...) for
     * @p layer. Returns true when the tensor is unhealthy; counters
     * are updated either way.
     */
    bool checkTensor(const Tensor &t, const char *site,
                     std::size_t layer);

    /** Feed the watchdog; returns true when the loss diverged. */
    bool observeLoss(double loss);

    /** Trip @p layer's breaker and count it under guard.breakerTrips. */
    void tripLayer(std::size_t layer);

    /** Trip every breaker (global events such as watchdog trips). */
    void tripAllLayers();

    CircuitBreakerBank &breakers() { return breakers_; }
    const CircuitBreakerBank &breakers() const { return breakers_; }

    /** guard.* counters (nansCaught, infsCaught, saturations,
     *  watchdogTrips, breakerTrips, rollbacks, discardedSteps). */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    LossWatchdog watchdog_;
    CircuitBreakerBank breakers_;
    StatGroup stats_;
};

} // namespace cq::nn::guard

#endif // CQ_NN_GUARD_GUARDRAILS_H
