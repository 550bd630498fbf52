/**
 * @file
 * Implementation of the typed metrics registry and its exporters.
 */

#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/fileutil.h"
#include "obs/jsonw.h"
#include "obs/trace.h"

namespace cq::obs {

// ------------------------------------------------------------ Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    if (bounds_.empty() ||
        !std::is_sorted(bounds_.begin(), bounds_.end())) {
        std::fprintf(stderr,
                     "obs: histogram bounds must be ascending and "
                     "non-empty\n");
        std::abort();
    }
    counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const std::size_t idx =
        static_cast<std::size_t>(it - bounds_.begin());
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
}

double
Histogram::percentile(double p) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    const double target =
        std::max(1.0, p / 100.0 * static_cast<double>(total));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        const std::uint64_t c = bucketCount(i);
        if (c == 0)
            continue;
        if (static_cast<double>(cum + c) >= target) {
            if (i == bounds_.size())
                return bounds_.back(); // +Inf bucket: clamp
            const double lo = i == 0 ? 0.0 : bounds_[i - 1];
            const double hi = bounds_[i];
            const double frac =
                (target - static_cast<double>(cum)) /
                static_cast<double>(c);
            return lo + frac * (hi - lo);
        }
        cum += c;
    }
    return bounds_.back();
}

void
Histogram::reset()
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
}

std::vector<double>
Histogram::defaultTimeBoundsUs()
{
    std::vector<double> b;
    for (double decade = 1.0; decade <= 1e6; decade *= 10.0)
        for (double step : {1.0, 2.0, 5.0})
            b.push_back(decade * step);
    b.push_back(1e7); // 10 s
    return b;
}

// ------------------------------------------------------- MetricRegistry

struct MetricRegistry::Impl
{
    mutable std::mutex mutex;
    // Node-based maps: references stay valid across inserts.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;

    void assertFreeName(const std::string &name,
                        const char *wanted) const
    {
        const bool taken = counters.count(name) + gauges.count(name) +
                               histograms.count(name) >
                           0;
        if (taken) {
            std::fprintf(stderr,
                         "obs: metric '%s' already registered with a "
                         "different type (wanted %s)\n",
                         name.c_str(), wanted);
            std::abort();
        }
    }
};

MetricRegistry::MetricRegistry()
    : impl_(new Impl)
{
}

MetricRegistry &
MetricRegistry::instance()
{
    static MetricRegistry *registry = new MetricRegistry;
    return *registry;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->counters.find(name);
    if (it == impl_->counters.end()) {
        impl_->assertFreeName(name, "counter");
        it = impl_->counters
                 .emplace(name, std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->gauges.find(name);
    if (it == impl_->gauges.end()) {
        impl_->assertFreeName(name, "gauge");
        it = impl_->gauges.emplace(name, std::make_unique<Gauge>())
                 .first;
    }
    return *it->second;
}

Histogram &
MetricRegistry::histogram(const std::string &name,
                          std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->histograms.find(name);
    if (it == impl_->histograms.end()) {
        impl_->assertFreeName(name, "histogram");
        if (bounds.empty())
            bounds = Histogram::defaultTimeBoundsUs();
        it = impl_->histograms
                 .emplace(name, std::make_unique<Histogram>(
                                    std::move(bounds)))
                 .first;
    }
    return *it->second;
}

std::string
promMetricName(const std::string &dotted)
{
    std::string out = "cq_";
    for (char c : dotted) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

namespace {

void
appendPromSample(std::string &out, const std::string &dotted,
                 const char *type, double value)
{
    const std::string name = promMetricName(dotted);
    out += "# HELP " + name + " " + dotted + "\n";
    out += "# TYPE " + name + " " + type + "\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += name + " " + buf + "\n";
}

void
appendPromHistogram(std::string &out, const std::string &dotted,
                    const Histogram &h)
{
    const std::string name = promMetricName(dotted);
    out += "# HELP " + name + " " + dotted + "\n";
    out += "# TYPE " + name + " histogram\n";
    char buf[64];
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        cum += h.bucketCount(i);
        std::snprintf(buf, sizeof(buf), "%g", h.bounds()[i]);
        out += name + "_bucket{le=\"" + buf + "\"} " +
               std::to_string(cum) + "\n";
    }
    cum += h.bucketCount(h.bounds().size());
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + "\n";
    std::snprintf(buf, sizeof(buf), "%.17g", h.sum());
    out += name + "_sum " + buf + "\n";
    out += name + "_count " + std::to_string(h.count()) + "\n";
    // Interpolated percentiles as convenience samples (not part of
    // the histogram type; named *_p50/_p95/_p99).
    for (double p : {50.0, 95.0, 99.0}) {
        std::snprintf(buf, sizeof(buf), "%.17g", h.percentile(p));
        out += name + "_p" + std::to_string(static_cast<int>(p)) +
               " " + buf + "\n";
    }
}

} // namespace

std::string
MetricRegistry::promText(
    const std::vector<const StatGroup *> &bridged) const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::string out;
    out.reserve(1 << 14);
    for (const auto &kv : impl_->counters)
        appendPromSample(out, kv.first, "counter",
                         kv.second->value());
    for (const auto &kv : impl_->gauges)
        appendPromSample(out, kv.first, "gauge", kv.second->value());
    for (const auto &kv : impl_->histograms)
        appendPromHistogram(out, kv.first, *kv.second);
    for (const StatGroup *group : bridged) {
        if (group == nullptr)
            continue;
        for (const auto &kv : group->all())
            appendPromSample(out, kv.first, "untyped", kv.second);
    }
    return out;
}

std::string
MetricRegistry::jsonText(
    const std::vector<const StatGroup *> &bridged) const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::string out;
    out.reserve(1 << 14);
    out += "{\"counters\":{";
    bool first = true;
    for (const auto &kv : impl_->counters) {
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, kv.first);
        out += ':';
        appendJsonNumber(out, kv.second->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &kv : impl_->gauges) {
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, kv.first);
        out += ':';
        appendJsonNumber(out, kv.second->value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &kv : impl_->histograms) {
        if (!first)
            out += ',';
        first = false;
        const Histogram &h = *kv.second;
        appendJsonString(out, kv.first);
        out += ":{\"count\":";
        out += std::to_string(h.count());
        out += ",\"sum\":";
        appendJsonNumber(out, h.sum());
        out += ",\"p50\":";
        appendJsonNumber(out, h.percentile(50.0));
        out += ",\"p95\":";
        appendJsonNumber(out, h.percentile(95.0));
        out += ",\"p99\":";
        appendJsonNumber(out, h.percentile(99.0));
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
            if (i > 0)
                out += ',';
            out += "[";
            if (i < h.bounds().size())
                appendJsonNumber(out, h.bounds()[i]);
            else
                out += "null"; // +Inf
            out += ',';
            out += std::to_string(h.bucketCount(i));
            out += ']';
        }
        out += "]}";
    }
    out += "},\"bridged\":{";
    first = true;
    for (const StatGroup *group : bridged) {
        if (group == nullptr)
            continue;
        for (const auto &kv : group->all()) {
            if (!first)
                out += ',';
            first = false;
            appendJsonString(out, kv.first);
            out += ':';
            appendJsonNumber(out, kv.second);
        }
    }
    out += "}}";
    return out;
}

namespace {

bool
writeWholeFile(const std::string &path, const std::string &text)
{
    static Counter &errors =
        MetricRegistry::instance().counter("obs.write_errors");
    std::FILE *f = io::fopenFp("obs.metrics.open", path, "wb");
    if (f == nullptr) {
        errors.inc();
        std::fprintf(stderr, "[warn] obs: cannot open %s\n",
                     path.c_str());
        return false;
    }
    const std::size_t n =
        io::fwriteFp("obs.metrics.write", text.data(), text.size(), f);
    // A failing fclose means stdio's flush lost bytes even though
    // every fwrite "succeeded" — silently returning true here was the
    // original silent-write-failure bug.
    const bool closed = io::fcloseFp("obs.metrics.close", f) == 0;
    if (n != text.size() || !closed) {
        errors.inc();
        std::fprintf(stderr, "[warn] obs: write to %s failed\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
MetricRegistry::writeProm(
    const std::string &path,
    const std::vector<const StatGroup *> &bridged) const
{
    return writeWholeFile(path, promText(bridged));
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (auto &kv : impl_->counters)
        kv.second->reset();
    for (auto &kv : impl_->gauges)
        kv.second->reset();
    for (auto &kv : impl_->histograms)
        kv.second->reset();
}

// -------------------------------------------------- ScopedLatencyTimer

ScopedLatencyTimer::ScopedLatencyTimer(Histogram &h)
    : hist_(h), startNs_(detail::monotonicNowNs())
{
}

ScopedLatencyTimer::~ScopedLatencyTimer()
{
    hist_.observe(
        static_cast<double>(detail::monotonicNowNs() - startNs_) /
        1000.0);
}

} // namespace cq::obs
