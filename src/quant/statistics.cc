/**
 * @file
 * Implementation of streaming statistics.
 */

#include "quant/statistics.h"

#include <algorithm>
#include <cmath>

namespace cq::quant {

void
MaxAbsStat::reset()
{
    maxAbs_ = 0.0;
    count_ = 0;
}

const char *
errorMetricName(ErrorMetric metric)
{
    switch (metric) {
      case ErrorMetric::Rectilinear:    return "rectilinear";
      case ErrorMetric::CosineDistance: return "cosine";
      case ErrorMetric::MeanBias:       return "mean-bias";
      case ErrorMetric::MaxError:       return "max-error";
    }
    return "?";
}

void
ErrorStat::reset()
{
    *this = ErrorStat();
}

double
ErrorStat::value(ErrorMetric metric) const
{
    switch (metric) {
      case ErrorMetric::Rectilinear:
        return sumAbsDiff_;
      case ErrorMetric::CosineDistance: {
        if (normX_ == 0.0 || normQ_ == 0.0)
            return normX_ == normQ_ ? 0.0 : 1.0;
        return 1.0 - dot_ / (std::sqrt(normX_) * std::sqrt(normQ_));
      }
      case ErrorMetric::MeanBias:
        // Signed, matching the reference meanBias() in tensor_ops;
        // arbitration compares magnitudes at the call site.
        return count_ == 0
            ? 0.0
            : sumDiff_ / static_cast<double>(count_);
      case ErrorMetric::MaxError:
        return maxDiff_;
    }
    return 0.0;
}

} // namespace cq::quant
