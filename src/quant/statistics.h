/**
 * @file
 * Streaming statistics used by statistic-based quantization.
 *
 * The paper's key hardware observation (Sec. III) is that the scale
 * statistic theta depends only on the original data X and can be
 * computed in a *single streaming pass*, while error-estimation
 * statistics compare X against dequantized candidates X'. Both kinds
 * are modeled here as one-pass accumulators, matching what the SQU's
 * Statistic Unit computes element-by-element as data streams through.
 */

#ifndef CQ_QUANT_STATISTICS_H
#define CQ_QUANT_STATISTICS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

namespace cq::quant {

/** One-pass max-absolute-value accumulator (the scale statistic). */
class MaxAbsStat
{
  public:
    /** A NaN leaves the maximum unchanged. */
    void
    observe(double x)
    {
        maxAbs_ = std::max(maxAbs_, std::fabs(x));
        ++count_;
    }
    void reset();
    /** Current max |x| over everything observed. */
    double value() const { return maxAbs_; }
    std::size_t count() const { return count_; }

  private:
    double maxAbs_ = 0.0;
    std::size_t count_ = 0;
};

/** Error metrics the E2BQM arbiter can be configured with. */
enum class ErrorMetric
{
    /** Sum of |x - x'| (paper's rectilinear distance). */
    Rectilinear,
    /** 1 - cosine similarity (Zhu et al.'s direction sensitivity). */
    CosineDistance,
    /** Signed mean(x - x') (Zhang et al.'s mean bias). */
    MeanBias,
    /** Max |x - x'| (worst-case rounding error). */
    MaxError,
};

const char *errorMetricName(ErrorMetric metric);

/**
 * One-pass accumulator of the distance between the original stream x
 * and a dequantized candidate stream x'. All four metrics are
 * maintained simultaneously from the same per-element observations, as
 * the hardware Stat Unit does, so the arbiter can be switched without
 * a second pass.
 */
class ErrorStat
{
  public:
    /** Observe one (original, dequantized) pair. */
    void
    observe(double x, double xq)
    {
        const double d = x - xq;
        sumAbsDiff_ += std::fabs(d);
        sumDiff_ += d;
        maxDiff_ = std::max(maxDiff_, std::fabs(d));
        dot_ += x * xq;
        normX_ += x * x;
        normQ_ += xq * xq;
        ++count_;
    }

    /**
     * observe() restricted to the accumulators value(M) reads: the
     * same operations on those, none on the rest. A pass that only
     * needs one metric (the fused E2BQM sweep) uses this.
     */
    template <ErrorMetric M>
    void
    observeFor(double x, double xq)
    {
        const double d = x - xq;
        if constexpr (M == ErrorMetric::Rectilinear) {
            sumAbsDiff_ += std::fabs(d);
        } else if constexpr (M == ErrorMetric::MeanBias) {
            sumDiff_ += d;
        } else if constexpr (M == ErrorMetric::MaxError) {
            maxDiff_ = std::max(maxDiff_, std::fabs(d));
        } else {
            dot_ += x * xq;
            normX_ += x * x;
            normQ_ += xq * xq;
        }
        ++count_;
    }

    void reset();

    /** Value of the requested metric over everything observed. */
    double value(ErrorMetric metric) const;

    std::size_t count() const { return count_; }

  private:
    double sumAbsDiff_ = 0.0;
    double sumDiff_ = 0.0;
    double maxDiff_ = 0.0;
    double dot_ = 0.0;
    double normX_ = 0.0;
    double normQ_ = 0.0;
    std::size_t count_ = 0;
};

} // namespace cq::quant

#endif // CQ_QUANT_STATISTICS_H
