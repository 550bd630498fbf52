/**
 * @file
 * Tests for the observability subsystem (src/obs/): scoped tracing,
 * the typed metric registry with StatGroup bridging, per-step training
 * telemetry, the StatGroup reference-lifetime contract, and the
 * timestamped / JSONL-structured logging sinks.
 *
 * The overarching invariant under test: observability is output-only.
 * Enabling every sink must leave trained weights bitwise identical to
 * a run with everything off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "arch/accelerator.h"
#include "arch/trace_export.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "nn/guard/crash_harness.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "obs/obs_server.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

using namespace cq;

namespace cq::obs::testing {
/** Defined in test_obs_disabled_tu.cc with CQ_OBS_DISABLED set. */
void runCompiledOutSpans(int n);
} // namespace cq::obs::testing

namespace {

/** CQ_LOG_JSONL must be in the environment before the first log call
 *  (the sink latches it once); a namespace-scope initializer runs
 *  before main() and therefore before any test logs. */
std::string
jsonlLogPath()
{
    static const std::string path =
        ::testing::TempDir() + "cq_test_obs_log_" +
        std::to_string(::getpid()) + ".jsonl";
    return path;
}

const bool gLogEnvReady = [] {
    ::setenv("CQ_LOG_JSONL", jsonlLogPath().c_str(), 1);
    ::unsetenv("CQ_TRACE"); // the kill-switch would defeat the tests
    return true;
}();

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return {};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(pos));
            break;
        }
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

/** Pull the numeric value of `"key":<number>` out of a JSON line. */
double
jsonNumber(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << key << " in " << line;
    if (at == std::string::npos)
        return 0.0;
    return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

/** Fixture giving each trace test a clean, enabled session and
 *  restoring the disabled default afterwards. */
class ObsTraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ASSERT_TRUE(gLogEnvReady);
        obs::TraceSession::instance().clear();
        obs::TraceSession::instance().setEnabled(true);
    }
    void TearDown() override
    {
        obs::TraceSession::instance().setEnabled(false);
        obs::TraceSession::instance().clear();
    }
};

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogram, PercentilesMatchExactReferenceWithinBucketWidth)
{
    // Uniform-ish deterministic data over [0, 1000) against buckets of
    // width 50: interpolation error is bounded by one bucket width.
    std::vector<double> bounds;
    for (double b = 50.0; b <= 1000.0; b += 50.0)
        bounds.push_back(b);
    obs::Histogram h(bounds);

    std::vector<double> data;
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 5000; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        data.push_back(static_cast<double>((lcg >> 33) % 100000) /
                       100.0);
    }
    for (double v : data)
        h.observe(v);

    std::vector<double> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
        const double exact = sorted[rank == 0 ? 0 : rank - 1];
        EXPECT_NEAR(h.percentile(p), exact, 50.0) << "p" << p;
    }
    EXPECT_EQ(h.count(), data.size());
}

TEST(ObsHistogram, ExactPercentileInSingleKnownBucket)
{
    // 4 observations, all in (100, 200]: rank interpolation is exact
    // linear within the bucket.
    obs::Histogram h({100.0, 200.0, 300.0});
    for (double v : {150.0, 150.0, 150.0, 150.0})
        h.observe(v);
    // p50 -> rank 2 of 4 -> 100 + 100 * (2/4) = 150.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 150.0);
    // p100 -> full bucket -> its upper bound.
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 200.0);
    EXPECT_DOUBLE_EQ(h.sum(), 600.0);
}

TEST(ObsHistogram, OverflowLandsInInfBucketAndClampsPercentile)
{
    obs::Histogram h({1.0, 2.0});
    h.observe(0.5);
    h.observe(1e9); // +Inf bucket
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u); // index bounds.size() == +Inf
    // The p99 rank lands in +Inf: clamp to the last finite bound.
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 2.0);
    // p0 clamps to rank 1 (the smallest observation's bucket).
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
}

TEST(ObsHistogram, EmptyAndResetBehave)
{
    obs::Histogram h(obs::Histogram::defaultTimeBoundsUs());
    EXPECT_EQ(h.percentile(50.0), 0.0);
    h.observe(3.0);
    EXPECT_EQ(h.count(), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Registry + exports
// ---------------------------------------------------------------------------

TEST(ObsMetrics, RegistryIsLookupOrCreateAndStable)
{
    auto &reg = obs::MetricRegistry::instance();
    obs::Counter &c1 = reg.counter("obs_test.stable");
    obs::Counter &c2 = reg.counter("obs_test.stable");
    EXPECT_EQ(&c1, &c2);
    c1.inc();
    c1.add(2.5);
    EXPECT_DOUBLE_EQ(c2.value(), 3.5);

    obs::Gauge &g = reg.gauge("obs_test.gauge");
    g.set(7.0);
    EXPECT_DOUBLE_EQ(reg.gauge("obs_test.gauge").value(), 7.0);

    // reset() zeroes but never deletes: the references stay usable.
    reg.reset();
    EXPECT_DOUBLE_EQ(c1.value(), 0.0);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    c1.inc();
    EXPECT_DOUBLE_EQ(reg.counter("obs_test.stable").value(), 1.0);
}

TEST(ObsMetrics, PromMetricNameMangling)
{
    EXPECT_EQ(obs::promMetricName("ckpt.commit_latency_us"),
              "cq_ckpt_commit_latency_us");
    EXPECT_EQ(obs::promMetricName("gemm.calls"), "cq_gemm_calls");
}

TEST(ObsMetrics, PromExportCarriesTypedMetricsAndBridgedStatGroups)
{
    auto &reg = obs::MetricRegistry::instance();
    reg.counter("obs_test.calls").add(4.0);
    obs::Histogram &h = reg.histogram("obs_test.lat_us");
    h.reset();
    for (double v : {3.0, 30.0, 300.0})
        h.observe(v);

    StatGroup bridged;
    bridged.counter("faults.injected") = 3.0;
    bridged.counter("ecc.corrected") = 2.0;

    const std::string prom = reg.promText({&bridged});
    // HELP keeps the dotted name so greps for the canonical names work.
    EXPECT_NE(prom.find("# HELP cq_obs_test_calls obs_test.calls"),
              std::string::npos);
    EXPECT_NE(prom.find("cq_obs_test_calls 4"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE cq_obs_test_lat_us histogram"),
              std::string::npos);
    EXPECT_NE(prom.find("cq_obs_test_lat_us_bucket{le=\"5\"} 1"),
              std::string::npos);
    EXPECT_NE(prom.find("cq_obs_test_lat_us_count 3"),
              std::string::npos);
    EXPECT_NE(prom.find("cq_obs_test_lat_us_p50"), std::string::npos);
    EXPECT_NE(prom.find("cq_faults_injected 3"), std::string::npos);
    EXPECT_NE(prom.find("cq_ecc_corrected 2"), std::string::npos);
}

TEST(ObsMetrics, JsonSnapshotIsBalancedAndContainsSections)
{
    auto &reg = obs::MetricRegistry::instance();
    reg.counter("obs_test.json\"quote").inc(); // exercises escaping
    StatGroup bridged;
    bridged.counter("guard.rollbacks") = 1.0;
    const std::string json = reg.jsonText({&bridged});

    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"guard.rollbacks\""), std::string::npos);
    EXPECT_NE(json.find("obs_test.json\\\"quote"), std::string::npos);
    long depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (inString) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                inString = false;
            continue;
        }
        if (ch == '"')
            inString = true;
        else if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(inString);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST_F(ObsTraceTest, RecordsNestedSpansAndFiltersByName)
{
    {
        CQ_TRACE_SCOPE("obs_test.outer");
        CQ_TRACE_SCOPE("obs_test.inner");
    }
    { CQ_TRACE_SCOPE("obs_test.outer"); }
    auto &session = obs::TraceSession::instance();
    EXPECT_EQ(session.spanCount("obs_test.outer"), 2u);
    EXPECT_EQ(session.spanCount("obs_test.inner"), 1u);
    EXPECT_EQ(session.spanCount(), 3u);

    const std::string json = session.chromeTraceJson();
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"obs_test.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST_F(ObsTraceTest, DisabledSessionRecordsNothing)
{
    auto &session = obs::TraceSession::instance();
    session.setEnabled(false);
    { CQ_TRACE_SCOPE("obs_test.off"); }
    EXPECT_EQ(session.spanCount(), 0u);
    session.setEnabled(true);
    { CQ_TRACE_SCOPE("obs_test.on"); }
    EXPECT_EQ(session.spanCount(), 1u);
}

TEST_F(ObsTraceTest, GemmSpanCountIsThreadCountInvariant)
{
    auto &pool = ThreadPool::instance();
    const unsigned before = pool.numThreads();
    auto &session = obs::TraceSession::instance();

    std::size_t counts[2] = {0, 0};
    const unsigned threadings[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
        pool.setNumThreads(threadings[t]);
        session.clear();
        Tensor a({48, 48}, 0.5f), b({48, 48}, 0.25f);
        for (int i = 0; i < 5; ++i)
            (void)matmul(a, b);
        (void)matmulTransB(a, b);
        counts[t] = session.spanCount("gemm.matmul");
        EXPECT_EQ(session.spanCount("gemm.matmulTransB"), 1u);
    }
    pool.setNumThreads(before);

    // pool.chunk spans legitimately vary with the thread count; the
    // semantic span count must not.
    EXPECT_EQ(counts[0], 5u);
    EXPECT_EQ(counts[0], counts[1]);
}

TEST_F(ObsTraceTest, CompiledOutSpansRecordNothingEvenWhenEnabled)
{
    auto &session = obs::TraceSession::instance();
    obs::testing::runCompiledOutSpans(1000);
    EXPECT_EQ(session.spanCount(), 0u);
    { CQ_TRACE_SCOPE("obs_test.still_alive"); }
    EXPECT_EQ(session.spanCount(), 1u);
}

TEST(ObsTraceOverhead, RuntimeDisabledSpanIsNearFree)
{
    obs::TraceSession::instance().setEnabled(false);
    constexpr int kSpans = 1000000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSpans; ++i) {
        CQ_TRACE_SCOPE("obs_test.disabled_cost");
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    // One relaxed load + branch per span. Even valgrind-grade machines
    // do a million of those well inside this bound; a regression that
    // starts taking the enabled path (clock reads, buffer appends)
    // blows straight past it.
    EXPECT_LT(ms, 250.0);
    EXPECT_EQ(obs::TraceSession::instance().spanCount(
                  "obs_test.disabled_cost"),
              0u);
}

TEST_F(ObsTraceTest, PerfReportBridgesToArchTracks)
{
    arch::PerfReport report;
    arch::TraceEntry e1;
    e1.instr = 0;
    e1.unit = arch::Unit::DmaLoad;
    e1.phase = arch::Phase::FW;
    e1.start = 0;
    e1.end = 2000;
    arch::TraceEntry e2 = e1;
    e2.instr = 1;
    e2.start = 2000;
    e2.end = 5000;
    report.trace = {e1, e2};

    auto &session = obs::TraceSession::instance();
    const std::size_t n =
        arch::exportPerfTraceToSession(report, session);
    EXPECT_EQ(n, 2u);

    const std::string json = session.chromeTraceJson();
    EXPECT_NE(json.find("\"arch.dma-load\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(json.find("\"instr\""), std::string::npos);
    // 2000 ticks at 1 GHz = 2 us.
    EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Telemetry + the observational-only invariant
// ---------------------------------------------------------------------------

TEST(ObsTelemetry, StepRecordRendersCompactJson)
{
    obs::StepTelemetry rec;
    rec.step = 3;
    rec.loss = 0.5;
    rec.gradMaxAbs = 1.25;
    rec.stepUs = 100.0;
    rec.fwdUs = 40.0;
    rec.layerFormats["fc1"][8] = 2;
    rec.counterDeltas["ecc.corrected"] = 1.0;
    const std::string json = rec.toJson();
    EXPECT_EQ(json.rfind("{\"step\":3,", 0), 0u);
    EXPECT_NE(json.find("\"loss\":0.5"), std::string::npos);
    EXPECT_NE(json.find("\"grad_max_abs\":1.25"), std::string::npos);
    EXPECT_NE(json.find("\"fwd\":40.000"), std::string::npos);
    EXPECT_NE(json.find("\"fc1\""), std::string::npos);
    EXPECT_NE(json.find("\"ecc.corrected\":1"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(ObsTelemetry, FullStackRunIsBitwiseIdenticalToObsOffRun)
{
    const std::string dir = ::testing::TempDir();
    const std::string telemA = dir + "obs_telem_a.jsonl";
    const std::string telemB = dir + "obs_telem_b.jsonl";

    nn::guard::CrashHarnessConfig base;
    base.seed = 99;
    base.steps = 6;
    base.batchSize = 16;
    base.ckptEvery = 3;

    // Leg A: every observability sink on, while a sidecar thread
    // scrapes a live ObsServer.
    nn::guard::CrashHarnessConfig a = base;
    a.dir = dir + "obs_ck_a";
    a.traceOut = dir + "obs_trace_a.json";
    a.metricsOut = dir + "obs_metrics_a.prom";
    a.telemetryOut = telemA;
    a.metricsEvery = 2;
    obs::ObsServer server;
    ASSERT_TRUE(server.start(obs::ObsServerConfig{}));
    std::atomic<bool> stopScrape{false};
    std::atomic<unsigned> scrapesOk{0};
    std::thread scraper([&] {
        const char *paths[] = {"/metrics", "/healthz",
                               "/trace?last_ms=50"};
        for (unsigned i = 0; !stopScrape.load(); ++i) {
            int status = 0;
            std::string body;
            if (obs::httpGet(server.port(), paths[i % 3], status, body,
                             1000) &&
                status == 200)
                scrapesOk.fetch_add(1);
            ::usleep(1000);
        }
    });
    // Bounded wait for the scraper to have served `n` requests.
    const auto scraped = [&](unsigned n) {
        for (int ms = 0; ms < 10000 && scrapesOk.load() < n; ++ms)
            ::usleep(1000);
        return scrapesOk.load() >= n;
    };
    // The scraper is live before training starts, and has been
    // answered three times (one cycle of paths) before it stops.
    EXPECT_TRUE(scraped(1));
    const auto ra = nn::guard::runCrashHarness(a);
    EXPECT_TRUE(scraped(3));
    stopScrape.store(true);
    scraper.join();
    server.stop();

    // Leg B: everything off (the harness enabled tracing; undo it).
    obs::TraceSession::instance().setEnabled(false);
    obs::TraceSession::instance().clear();
    nn::guard::CrashHarnessConfig b = base;
    b.dir = dir + "obs_ck_b";
    b.mastersOut = dir + "obs_masters_b.bin";
    const auto rb = nn::guard::runCrashHarness(b);

    EXPECT_EQ(ra.mastersCrc, rb.mastersCrc);
    EXPECT_DOUBLE_EQ(ra.finalLoss, rb.finalLoss);

    // The telemetry itself: one JSON line per step, steps 1..6.
    const auto lines = splitLines(slurp(telemA));
    ASSERT_EQ(lines.size(), 6u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_DOUBLE_EQ(jsonNumber(lines[i], "step"),
                         static_cast<double>(i + 1));
        EXPECT_NE(lines[i].find("\"phases_us\""), std::string::npos);
        EXPECT_NE(lines[i].find("\"formats\""), std::string::npos);
    }
    // Final-loss cross-check against the last record.
    EXPECT_NEAR(jsonNumber(lines.back(), "loss"), ra.finalLoss, 1e-12);

    // Replay: a third identical telemetry run logs the identical loss
    // curve (the training loop is deterministic, telemetry included).
    nn::guard::CrashHarnessConfig c = base;
    c.dir = dir + "obs_ck_c";
    c.telemetryOut = telemB;
    const auto rc = nn::guard::runCrashHarness(c);
    EXPECT_EQ(rc.mastersCrc, ra.mastersCrc);
    const auto lines2 = splitLines(slurp(telemB));
    ASSERT_EQ(lines2.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_DOUBLE_EQ(jsonNumber(lines[i], "loss"),
                         jsonNumber(lines2[i], "loss"));

    // The metrics snapshot bridged the trainer's resilience counters
    // and contains at least one histogram with samples.
    const std::string prom = slurp(a.metricsOut);
    EXPECT_NE(prom.find("trainer.step_time"), std::string::npos);
    EXPECT_NE(prom.find("cq_trainer_step_time_us_count 6"),
              std::string::npos);
    EXPECT_NE(prom.find("guard."), std::string::npos);

    // And the trace has trainer phases plus GEMM spans.
    const std::string trace = slurp(a.traceOut);
    for (const char *want :
         {"\"trainer.step\"", "\"trainer.fwd\"", "\"trainer.bwd\"",
          "\"trainer.quant\"", "\"trainer.optim\"", "\"gemm.matmul\""})
        EXPECT_NE(trace.find(want), std::string::npos) << want;
}

// ---------------------------------------------------------------------------
// StatGroup reference-lifetime contract
// ---------------------------------------------------------------------------

TEST(ObsStatGroup, ReferencesSurviveInsertMergeAndReset)
{
    StatGroup g;
    double &r = g.counter("alpha");
    r = 5.0;
    for (int i = 0; i < 200; ++i)
        g.counter("filler." + std::to_string(i)) = 1.0;
    StatGroup other;
    other.counter("alpha") = 2.0;
    other.counter("beta") = 3.0;
    g.merge(other);
    EXPECT_EQ(&r, &g.counter("alpha"));
    EXPECT_DOUBLE_EQ(r, 7.0);
    g.reset();
    EXPECT_DOUBLE_EQ(r, 0.0);
    r = 1.0;
    EXPECT_DOUBLE_EQ(g.get("alpha"), 1.0);
}

// ---------------------------------------------------------------------------
// Logging satellites
// ---------------------------------------------------------------------------

TEST(ObsLogging, PrefixCarriesIsoTimestampThreadIdAndLevel)
{
    ::testing::internal::CaptureStderr();
    warn("obs timestamp probe %d", 41);
    inform("obs inform probe");
    const std::string err = ::testing::internal::GetCapturedStderr();

    // [2026-01-01T12:00:00.123Z t0 warn] obs timestamp probe 41
    const std::size_t at = err.find(" warn] obs timestamp probe 41\n");
    ASSERT_NE(at, std::string::npos) << err;
    const std::size_t open = err.rfind('[', at);
    ASSERT_NE(open, std::string::npos);
    const std::string stamp = err.substr(open + 1, at - open - 1);
    // "YYYY-MM-DDTHH:MM:SS.mmmZ tN"
    ASSERT_GE(stamp.size(), 27u);
    EXPECT_EQ(stamp[4], '-');
    EXPECT_EQ(stamp[10], 'T');
    EXPECT_EQ(stamp[13], ':');
    EXPECT_EQ(stamp[23], 'Z');
    EXPECT_EQ(stamp[24], ' ');
    EXPECT_EQ(stamp[25], 't');
    EXPECT_NE(err.find(" info] obs inform probe\n"),
              std::string::npos);
}

TEST(ObsLogging, JsonlSinkReceivesStructuredRecords)
{
    warn("obs jsonl probe %s", "xyzzy");
    const std::string log = slurp(jsonlLogPath());
    ASSERT_FALSE(log.empty())
        << "CQ_LOG_JSONL sink never opened " << jsonlLogPath();
    const auto lines = splitLines(log);
    bool found = false;
    for (const auto &line : lines) {
        if (line.find("obs jsonl probe xyzzy") == std::string::npos)
            continue;
        found = true;
        EXPECT_EQ(line.rfind("{\"ts\":\"", 0), 0u);
        EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
        EXPECT_NE(line.find("\"tid\":"), std::string::npos);
    }
    EXPECT_TRUE(found) << log;
}

// ---------------------------------------------------------------------------
// Trace ring cap
// ---------------------------------------------------------------------------

TEST_F(ObsTraceTest, SpanRingCapsMemoryAndCountsDroppedSpans)
{
    auto &session = obs::TraceSession::instance();
    auto &dropped =
        obs::MetricRegistry::instance().counter("obs.trace_dropped");
    const std::size_t savedCap = session.spanCap();
    const double droppedBefore = dropped.value();

    session.setSpanCap(8);
    for (int i = 0; i < 12; ++i)
        session.record("ring.old", 1000u + i, 2000u + i);
    for (int i = 0; i < 8; ++i)
        session.record("ring.new", 3000u + i, 4000u + i);
    // The ring holds the cap, the counter books the overflow, and the
    // *newest* spans survive (the ring overwrites the oldest): every
    // "ring.old" span has been displaced by a later one.
    EXPECT_EQ(session.spanCount(), 8u);
    EXPECT_EQ(session.spanCount("ring.new"), 8u);
    EXPECT_EQ(session.spanCount("ring.old"), 0u);
    EXPECT_DOUBLE_EQ(dropped.value() - droppedBefore, 12.0);

    // Cap 0: record nothing, count everything.
    session.clear();
    session.setSpanCap(0);
    const double base = dropped.value();
    session.record("ring.probe", 1, 2);
    EXPECT_EQ(session.spanCount("ring.probe"), 0u);
    EXPECT_DOUBLE_EQ(dropped.value() - base, 1.0);

    session.setSpanCap(savedCap);
}

// ---------------------------------------------------------------------------
// Pool-chunk spans
// ---------------------------------------------------------------------------

TEST_F(ObsTraceTest, ContextLabelsLandInSpanArgsAcrossPoolChunks)
{
    auto &session = obs::TraceSession::instance();
    parallelFor(0, 4, 1, [&](std::size_t, std::size_t) {
        CQ_TRACE_SCOPE("ctx.chunk");
    });
    { CQ_TRACE_SCOPE("ctx.outside"); }

    const std::string json = session.chromeTraceJson();
    // Every span event named @p name, each as a substring from its
    // "name" key to the start of the next event (span events are
    // adjacent in the array).
    const auto eventsOf = [&](const char *name) {
        std::vector<std::string> events;
        const std::string key = std::string("\"name\":\"") + name + "\"";
        for (std::size_t at = json.find(key); at != std::string::npos;
             at = json.find(key, at + 1)) {
            const std::size_t end = json.find(",{\"name\"", at);
            events.push_back(json.substr(
                at, end == std::string::npos ? std::string::npos
                                             : end - at));
        }
        return events;
    };
    // Chunks run on pool workers land on the host process like any
    // other span: pid 1, the recording thread's tid, no args.
    for (const char *name : {"ctx.chunk", "ctx.outside"}) {
        const std::vector<std::string> events = eventsOf(name);
        EXPECT_FALSE(events.empty()) << name << " in " << json;
        for (const std::string &ev : events) {
            EXPECT_NE(ev.find("\"pid\":1,"), std::string::npos) << ev;
            EXPECT_EQ(ev.find("\"args\""), std::string::npos) << ev;
        }
    }
    EXPECT_EQ(json.find("\"pid\":3"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// HTTP export plane
// ---------------------------------------------------------------------------

TEST(ObsHttp, RequestParserHandlesTargetsAndQueries)
{
    obs::HttpRequest req;
    ASSERT_TRUE(obs::parseHttpRequest(
        "GET /trace?last_ms=250&x=y HTTP/1.1\r\nHost: h\r\n\r\n",
        req));
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/trace");
    EXPECT_EQ(obs::httpQueryParam(req, "last_ms", ""), "250");
    EXPECT_EQ(obs::httpQueryParam(req, "x", ""), "y");
    EXPECT_EQ(obs::httpQueryParam(req, "absent", "dflt"), "dflt");
    EXPECT_FALSE(obs::parseHttpRequest("garbage", req));
}

TEST(ObsHttp, EndpointsRoundTripOverLoopback)
{
    obs::MetricRegistry::instance().counter("obs.test.requests").inc();
    obs::ObsServerConfig cfg; // port 0 = ephemeral
    cfg.health.emplace_back(
        "probe", [] { return std::string("{\"alive\":true}"); });
    obs::ObsServer server;
    ASSERT_TRUE(server.start(cfg));
    ASSERT_GT(server.port(), 0);

    int status = 0;
    std::string body;
    ASSERT_TRUE(
        obs::httpGet(server.port(), "/metrics", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("cq_obs_test_requests"), std::string::npos);

    ASSERT_TRUE(
        obs::httpGet(server.port(), "/metrics.json", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"counters\""), std::string::npos);

    ASSERT_TRUE(
        obs::httpGet(server.port(), "/healthz", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(body.find("\"probe\":{\"alive\":true}"),
              std::string::npos);

    ASSERT_TRUE(obs::httpGet(server.port(), "/jobs", status, body));
    EXPECT_EQ(status, 404);

    ASSERT_TRUE(
        obs::httpGet(server.port(), "/trace?last_ms=0", status, body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);

    ASSERT_TRUE(obs::httpGet(server.port(), "/trace?last_ms=junk",
                             status, body));
    EXPECT_EQ(status, 400);

    ASSERT_TRUE(obs::httpGet(server.port(), "/nope", status, body));
    EXPECT_EQ(status, 404);

    EXPECT_GE(server.requestsServed(), 7u);
    EXPECT_FALSE(server.degraded());
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ObsHttp, InjectedFailureLatchesDegradedDropModeNotACrash)
{
    std::string err;
    ASSERT_TRUE(fp::Registry::instance().configureOne(
        "obs.http.write", "fail,once=1", &err))
        << err;
    obs::ObsServerConfig cfg;
    obs::ObsServer server;
    ASSERT_TRUE(server.start(cfg));

    int status = 0;
    std::string body;
    // First scrape trips the armed write; the server latches degraded
    // drop mode instead of erroring out.
    obs::httpGet(server.port(), "/metrics", status, body, 2000);
    // Every later connection is accepted and dropped, typed and
    // counted — never a hang, never a crash.
    EXPECT_FALSE(
        obs::httpGet(server.port(), "/metrics", status, body, 2000));
    EXPECT_TRUE(server.degraded());
    EXPECT_GE(server.connectionsDropped(), 1u);
    server.stop();
    fp::Registry::instance().disarmAll();
}

} // namespace
