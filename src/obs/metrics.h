/**
 * @file
 * Typed metrics: Counter, Gauge and fixed-bucket Histogram behind a
 * process-wide registry, snapshot-able to JSON and to the Prometheus
 * text exposition format.
 *
 * This extends (not replaces) the StatGroup world of common/stats.h:
 * components keep their dotted-name double counters, and the export
 * routines accept StatGroups to *bridge* into the same snapshot, so
 * `faults.*` / `ecc.*` / `abft.*` / `guard.*` appear next to the
 * typed metrics in one Prometheus scrape or JSON document.
 *
 * Thread safety: metric updates are atomic (relaxed) and may be
 * called from any thread, including thread-pool workers. Metric
 * *creation* takes the registry mutex; instrumented hot paths cache
 * the returned reference (function-local static), which stays valid
 * for the process lifetime — reset() zeroes values but never deletes
 * a metric.
 *
 * Naming convention: `subsystem.metric` dotted names (gemm.calls,
 * ckpt.commit_latency_us). The Prometheus exporter mangles them to
 * `cq_subsystem_metric` and records the original dotted name in the
 * HELP line.
 */

#ifndef CQ_OBS_METRICS_H
#define CQ_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h" // inline-only use (StatGroup::all())

namespace cq::obs {

/** Monotonically increasing value. */
class Counter
{
  public:
    void add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(
            cur, cur + delta, std::memory_order_relaxed)) {
        }
    }
    void inc() { add(1.0); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Last-write-wins instantaneous value (queue depth, loss, ...). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations with
 * value <= bounds[i]; one implicit +Inf bucket catches the rest.
 * Percentiles come from linear interpolation inside the bucket that
 * crosses the requested rank (exact enough for latency reporting;
 * tests bound the error against an exact reference). Designed for
 * non-negative data (the first bucket interpolates from 0).
 */
class Histogram
{
  public:
    /** @p bounds must be ascending and non-empty. */
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /** Interpolated percentile, @p p in [0, 100]. 0 when empty; the
     *  last finite bound when the rank lands in the +Inf bucket. */
    double percentile(double p) const;

    const std::vector<double> &bounds() const { return bounds_; }
    /** Count in bucket @p i (i == bounds().size() is +Inf). */
    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts_[i].load(std::memory_order_relaxed);
    }

    void reset();

    /** 1 us .. 10 s in a 1-2-5 ladder — the default for *_us timing
     *  histograms. */
    static std::vector<double> defaultTimeBoundsUs();

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> count_{0};
};

/**
 * Process-wide metric registry (leaky singleton). Lookup-or-create by
 * dotted name; a name is permanently bound to its first type — a
 * mismatched re-lookup aborts (it is a programming error).
 */
class MetricRegistry
{
  public:
    static MetricRegistry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** @p bounds applies on first creation only (default: the time
     *  ladder). */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds = {});

    /**
     * Prometheus text exposition snapshot. @p bridged StatGroups are
     * exported as untyped samples under their dotted names (mangled;
     * original name in HELP). Histograms additionally export
     * interpolated _p50/_p95/_p99 convenience samples.
     */
    std::string
    promText(const std::vector<const StatGroup *> &bridged = {}) const;

    /** JSON snapshot: {"counters":{},"gauges":{},"histograms":{},
     *  "bridged":{}}. */
    std::string
    jsonText(const std::vector<const StatGroup *> &bridged = {}) const;

    /** promText to a file; false on I/O failure. */
    bool writeProm(const std::string &path,
                   const std::vector<const StatGroup *> &bridged = {}) const;

    /**
     * Zero every metric (tests). References handed out earlier stay
     * valid — metrics are never deleted.
     */
    void reset();

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

  private:
    MetricRegistry();
    struct Impl;
    Impl *impl_;
};

/** Mangle a dotted metric name into a Prometheus-legal one:
 *  "ckpt.commit_latency_us" -> "cq_ckpt_commit_latency_us". */
std::string promMetricName(const std::string &dotted);

/** RAII timer observing its lifetime (in microseconds) into a
 *  histogram at destruction. */
class ScopedLatencyTimer
{
  public:
    explicit ScopedLatencyTimer(Histogram &h);
    ~ScopedLatencyTimer();

    ScopedLatencyTimer(const ScopedLatencyTimer &) = delete;
    ScopedLatencyTimer &operator=(const ScopedLatencyTimer &) = delete;

  private:
    Histogram &hist_;
    std::uint64_t startNs_;
};

} // namespace cq::obs

#endif // CQ_OBS_METRICS_H
