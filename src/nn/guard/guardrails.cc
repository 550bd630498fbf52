/**
 * @file
 * Implementation of the numerical guardrails.
 */

#include "nn/guard/guardrails.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>

#include "common/logging.h"
#include "common/threadpool.h"

namespace cq::nn::guard {

TensorHealth
scanTensor(const Tensor &t)
{
    TensorHealth total;
    std::mutex combine;
    // Combine order across chunks is timing-dependent, but integer
    // sums and float max are exact and order-independent, so the
    // census stays bitwise deterministic for any thread count.
    parallelFor(0, t.numel(), 1 << 14,
                [&](std::size_t lo, std::size_t hi) {
                    TensorHealth part;
                    const float *p = t.data();
                    for (std::size_t i = lo; i < hi; ++i) {
                        const float v = p[i];
                        if (std::isnan(v)) {
                            ++part.nanCount;
                        } else if (std::isinf(v)) {
                            ++part.infCount;
                        } else {
                            part.maxAbs =
                                std::max(part.maxAbs, std::fabs(v));
                        }
                    }
                    std::lock_guard<std::mutex> lock(combine);
                    total.nanCount += part.nanCount;
                    total.infCount += part.infCount;
                    total.maxAbs = std::max(total.maxAbs, part.maxAbs);
                });
    return total;
}

bool
LossWatchdog::observe(double loss)
{
    if (!std::isfinite(loss) || loss > kAbsoluteLossLimit)
        return true;
    if (healthy_ >= kWatchdogWarmupSteps && ema_ > 0.0 &&
        loss > kLossSpikeFactor * ema_ && loss > kLossSpikeFloor) {
        return true;
    }
    ema_ = healthy_ == 0
               ? loss
               : kLossEmaDecay * ema_ + (1.0 - kLossEmaDecay) * loss;
    ++healthy_;
    return false;
}

CircuitBreakerBank::CircuitBreakerBank(std::size_t num_layers)
    : remaining_(num_layers, 0)
{
}

void
CircuitBreakerBank::trip(std::size_t layer)
{
    CQ_ASSERT_MSG(layer < remaining_.size(),
                  "breaker layer %zu out of range (%zu layers)", layer,
                  remaining_.size());
    remaining_[layer] = kBreakerCooldown;
}

void
CircuitBreakerBank::tripAll()
{
    for (auto &r : remaining_)
        r = kBreakerCooldown;
}

bool
CircuitBreakerBank::open(std::size_t layer) const
{
    return layer < remaining_.size() && remaining_[layer] > 0;
}

void
CircuitBreakerBank::countDown()
{
    for (auto &r : remaining_)
        if (r > 0)
            --r;
}

HealthMonitor::HealthMonitor(std::size_t num_layers)
    : breakers_(num_layers)
{
}

bool
HealthMonitor::checkTensor(const Tensor &t, const char *site,
                           std::size_t layer)
{
    const TensorHealth h = scanTensor(t);
    bool bad = false;
    if (h.nanCount > 0) {
        stats_.add("guard.nansCaught", static_cast<double>(h.nanCount));
        bad = true;
    }
    if (h.infCount > 0) {
        stats_.add("guard.infsCaught", static_cast<double>(h.infCount));
        bad = true;
    }
    if (static_cast<double>(h.maxAbs) > kSaturationThreshold) {
        // The streaming max-abs statistic (the SQU's scale theta)
        // saturated: any quantization scale derived from it is junk.
        stats_.add("guard.saturations", 1.0);
        bad = true;
    }
    if (bad) {
        stats_.add(std::string("guard.unhealthy.") + site, 1.0);
        warn("guard: unhealthy %s at layer %zu "
             "(nan=%zu inf=%zu maxAbs=%g)",
             site, layer, h.nanCount, h.infCount,
             static_cast<double>(h.maxAbs));
    }
    return bad;
}

void
HealthMonitor::tripLayer(std::size_t layer)
{
    breakers_.trip(layer);
    stats_.add("guard.breakerTrips", 1.0);
}

void
HealthMonitor::tripAllLayers()
{
    breakers_.tripAll();
    stats_.add("guard.breakerTrips", 1.0);
}

bool
HealthMonitor::observeLoss(double loss)
{
    const bool tripped = watchdog_.observe(loss);
    if (tripped) {
        stats_.add("guard.watchdogTrips", 1.0);
        warn("guard: loss watchdog tripped (loss=%g ema=%g)", loss,
             watchdog_.ema());
    }
    return tripped;
}

} // namespace cq::nn::guard
