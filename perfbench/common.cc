/**
 * @file
 * Statistics, process measurements and result output shared by the
 * benchmark's workloads.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "perfbench.h"

#ifndef CQ_PERFBENCH_BUILD_TYPE
#define CQ_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CQ_PERFBENCH_COMPILER
#define CQ_PERFBENCH_COMPILER "unknown"
#endif

namespace cq::perfbench {

void
RunResult::set(const std::string &name, double value,
               const std::string &unit)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back(Metric{name, value, unit});
}

void
initPerLayerMetrics(RunResult &r)
{
    // The traced run prints every per-layer metric on every workload;
    // a layer the workload does not run reads 0.
    static const char *const kPerLayer[][2] = {
        {"compiler.codegen_s", "s"},   {"compiler.instrs", "count"},
        {"compiler.rss_growth_mb", "MB"}, {"arch.run_s", "s"},
        {"arch.executor_s", "s"},      {"arch.sim_ticks", "cycles"},
        {"dram.replay_s", "s"},        {"dram.replay_valid", "bool"},
        {"dram.bursts", "count"},      {"dram.ns_per_burst", "ns"},
        {"dram.bursts_per_call", "count"}, {"dram.row_hit_rate", "ratio"},
        {"nn.fwd_bwd_ms", "ms"},       {"nn.commit_ms", "ms"},
        {"tensor.gemm_ms", "ms"},      {"tensor.gemm_gflops", "GFLOP/s"},
        {"tensor.im2col_ms", "ms"},    {"quant.hqt_ms", "ms"},
        {"nn.other_ms", "ms"},         {"nn.final_loss", "nats"},
    };
    for (const auto &m : kPerLayer)
        r.set(m[0], 0.0, m[1]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    long pages_total = 0, pages_resident = 0;
    if (!(statm >> pages_total >> pages_resident))
        return 0.0;
    return static_cast<double>(pages_resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

namespace {

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
               number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    }
    return out + "}";
}

} // namespace

std::string
resultJson(const RunResult &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    return out + ", \"metrics\": " + metricsJson(r.metrics) + "}";
}

std::string
extraJson(const RunResult &r)
{
    return "{\"extra_metrics\": " + metricsJson(r.extra) + "}";
}

void
setEndToEnd(RunResult &r, bool traced, const std::vector<double> &setup_s,
            double peak_rss_mb, const std::vector<double> &rep_s)
{
    const Metric e2e[] = {{"setup_s", median(setup_s), "s"},
                          {"peak_rss_mb", peak_rss_mb, "MB"},
                          {"best_rep_s", percentile(rep_s, 0.0), "s"}};
    for (const Metric &m : e2e) {
        if (traced)
            r.extra.push_back({"traced." + m.name, m.value, m.unit});
        else
            r.set(m.name, m.value, m.unit);
    }
    r.provenance.emplace_back("setups", std::to_string(setup_s.size()));
    r.provenance.emplace_back("reps", std::to_string(rep_s.size()));
}

std::string
provenanceJson(const RunResult &r)
{
    std::string out = "{\"provenance\": {";
    for (std::size_t i = 0; i < r.provenance.size(); ++i) {
        out += (i ? ", " : "") + quoted(r.provenance[i].first) + ": " +
               quoted(r.provenance[i].second);
    }
    return out + "}}";
}

void
addCommonProvenance(RunResult &r, const Options &opts,
                    unsigned pool_width)
{
    r.provenance.emplace_back("workload", opts.workload);
    r.provenance.emplace_back("seed", std::to_string(opts.seed));
    r.provenance.emplace_back("seconds", number(opts.seconds));
    r.provenance.emplace_back("trace", opts.trace ? "1" : "0");
    r.provenance.emplace_back("pool_width", std::to_string(pool_width));
    r.provenance.emplace_back(
        "nproc", std::to_string(std::thread::hardware_concurrency()));
    r.provenance.emplace_back("build_type", CQ_PERFBENCH_BUILD_TYPE);
    r.provenance.emplace_back("compiler", CQ_PERFBENCH_COMPILER);
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 over (seed, stream).
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace cq::perfbench
