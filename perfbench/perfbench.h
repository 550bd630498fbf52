/**
 * @file
 * Host-time benchmark of the timing simulator and the quantized
 * trainer (see README.md beside this file for the workloads, the
 * metrics and the noise measurements behind them).
 *
 * cq_perfbench links the repository's libraries and calls only their
 * public APIs. An untraced run measures the end-to-end metrics; a
 * traced run times each layer from outside, around the benchmark's
 * own calls into that layer's public functions.
 */

#ifndef CQ_PERFBENCH_PERFBENCH_H
#define CQ_PERFBENCH_PERFBENCH_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/accelerator.h"
#include "nn/datasets.h"

namespace cq::perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured phase in seconds. */
    double seconds = 10.0;
    /** False: end-to-end metrics. True: per-layer metrics. */
    bool trace = false;
    /** Stored reference outputs of the simulations. */
    std::string referencePath;
};

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one run: counted operations, metrics, provenance. */
struct RunResult
{
    /** Operations whose output was checked. */
    std::uint64_t attempted = 0;
    /** Checked operations whose output was wrong. */
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Printed on a line of their own before the result: the
     *  workload's own figures that are not benchmark metrics, and on
     *  a traced run its end-to-end figures (to show tracing cost). */
    std::vector<Metric> extra;
    /** Key/value facts printed with the result (seed, build, ...). */
    std::vector<std::pair<std::string, std::string>> provenance;

    /** Add a metric, or replace the one of the same name. */
    void set(const std::string &name, double value,
             const std::string &unit);
    bool correct() const { return attempted > 0 && failed == 0; }
};

/**
 * Percentile @p p (0..100) of @p values by linear interpolation
 * between closest ranks (numpy's default). 0 for an empty input.
 */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/**
 * Set-ups before the measured phase. One more follows every pass, so
 * setup_s, their median, samples the whole run rather than one moment
 * of it (README.md describes the host's slow and fast phases).
 */
constexpr int kSetupsBeforeTiming = 2;

/** Monotonic clock in seconds. */
double nowSeconds();
/** Resident set of the process now / at its peak, in MB of 2^20 bytes. */
double currentRssMb();
double peakRssMb();

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const RunResult &result);
/** One line of provenance: {"provenance": {...}}. */
std::string provenanceJson(const RunResult &result);
/** One line of extra figures: {"extra_metrics": {...}}. */
std::string extraJson(const RunResult &result);

/**
 * Publish the end-to-end figures -- the median of @p setup_s, the peak
 * resident set, and the fastest of @p rep_s, the host seconds of each
 * repetition of the workload's unit of work -- as the metrics of an
 * untraced run, or as "traced.*" extra figures of a traced one, whose
 * metrics are the per-layer ones.
 */
void setEndToEnd(RunResult &result, bool traced,
                 const std::vector<double> &setup_s, double peak_rss_mb,
                 const std::vector<double> &rep_s);

/** Set every per-layer metric to 0, ready to be filled in. */
void initPerLayerMetrics(RunResult &result);

/** Provenance every workload records. */
void addCommonProvenance(RunResult &result, const Options &opts,
                         unsigned pool_width);

/** Derive an independent 64-bit stream seed from (seed, stream). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** @name Simulator workloads (sim-cnn, sim-seq) */
/** @{ */

/** The modeled totals checked against the stored references. */
struct SimOutputs
{
    std::uint64_t totalTicks = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t busBytes = 0;
    double energyPj = 0.0;

    bool operator==(const SimOutputs &o) const = default;
};

SimOutputs simOutputs(const arch::PerfReport &report);

/** Program name ("<network>/<platform>") -> reference outputs. */
using ReferenceTable = std::map<std::string, SimOutputs>;

bool loadReferences(const std::string &path, ReferenceTable &out,
                    std::string *error);
bool writeReferences(const std::string &path,
                     const ReferenceTable &table);

/** One compiled program and the platform it runs on. */
struct SimProgram
{
    std::string name;
    arch::CambriconQConfig config;
    arch::Program program;
};

/** Per-program measurements of one pass. */
struct SimRunRecord
{
    double runSeconds = 0.0;
    SimOutputs outputs;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    bool matchesReference = false;
    /** @name Traced runs only: the DRAM replay */
    /** @{ */
    double replaySeconds = 0.0;
    std::uint64_t replayBursts = 0;
    std::uint64_t replayCalls = 0;
    /** @} */
};

/**
 * Simulate every program once, @p pool_width at a time, in the order
 * given by @p order. A program whose outputs differ from its
 * reference (or that has none) is recorded as not matching. When
 * @p traced is set, each program's DRAM calls are replayed through a
 * standalone controller from its instruction timeline.
 */
std::vector<SimRunRecord>
simulatePass(const std::vector<SimProgram> &programs,
             const std::vector<std::size_t> &order,
             const ReferenceTable &references, unsigned pool_width,
             bool traced);

RunResult runSimWorkload(const Options &opts);
/** Simulate every program once and store its outputs. */
int writeSimReferences(const Options &opts);
/** @} */

/** @name Trainer workload (train-cnn-hqt) */
/** @{ */

/** The generated inputs of one training run. */
struct TrainInputs
{
    std::vector<nn::Batch> batches;
    nn::Batch eval;
    /** Seed of the network's weight initialisation. */
    std::uint64_t initSeed = 0;
};

TrainInputs makeTrainInputs(std::uint64_t seed, std::size_t steps);

/** Non-timing and timing outputs of one training run. */
struct TrainRun
{
    std::vector<double> losses;
    /** Host seconds of each step. */
    std::vector<double> stepSeconds;
    /** Split steps only: the two halves of each step. */
    std::vector<double> fwdBwdSeconds;
    std::vector<double> commitSeconds;
    double evalAccuracy = 0.0;
};

/**
 * Train a fresh network on @p in, one batch per step. With
 * @p split_steps each step runs as forwardBackward + commitStep
 * (documented as bitwise equal to stepClassification) so the two
 * halves can be timed apart. @p after_step, when set, runs after
 * every step, outside its timing.
 */
TrainRun trainOnce(const TrainInputs &in, bool split_steps,
                   const std::function<void()> &after_step = {});

/** Mean loss of the last steps of a run. */
double finalLoss(const std::vector<double> &losses);

RunResult runTrainWorkload(const Options &opts);
/** @} */

} // namespace cq::perfbench

#endif // CQ_PERFBENCH_PERFBENCH_H
