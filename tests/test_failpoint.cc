/**
 * @file
 * Tests for the failpoint framework (common/failpoint.h) and the
 * graceful-degradation policies built on it: spec parsing, trigger
 * windows (one-shot, every-Nth, byte-offset), counter persistence
 * across disarm, the injectable I/O seam, the telemetry sink's
 * degraded drop mode, the durable-write ladder's typed results, the
 * checkpoint store's ENOSPC prune-and-retry, and training that
 * outlives a disk that never accepts a checkpoint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/fileutil.h"
#include "nn/guard/checkpoint.h"
#include "nn/guard/ckpt_store.h"
#include "nn/guard/crash_harness.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "tensor/tensor.h"

namespace cq {
namespace {

using nn::guard::CheckpointLoadResult;
using nn::guard::CheckpointStore;
using nn::guard::CheckpointStoreConfig;
using nn::guard::CheckpointWriteOptions;
using nn::guard::CheckpointWriteResult;
using nn::guard::TrainerSnapshot;
using nn::guard::readCheckpoint;
using nn::guard::writeCheckpointEx;

/** A per-test directory under gtest's temp root, wiped first. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    for (const std::string &f : listDir(dir))
        std::remove((dir + "/" + f).c_str());
    ::rmdir(dir.c_str());
    EXPECT_TRUE(ensureDir(dir));
    return dir;
}

/** A small but non-trivial snapshot with a recognizable pattern. */
TrainerSnapshot
makeSnap(std::uint64_t step)
{
    TrainerSnapshot snap;
    snap.step = step;
    snap.optimizerStep = step;
    for (int t = 0; t < 2; ++t) {
        Tensor w({4, 3}), m({4, 3}), v({4, 3});
        for (std::size_t i = 0; i < w.numel(); ++i) {
            w.data()[i] = static_cast<float>(step * 100 + t * 10) +
                          0.25f * static_cast<float>(i);
            m.data()[i] = -w.data()[i];
            v.data()[i] = 0.5f * w.data()[i];
        }
        snap.masters.push_back(w);
        snap.m.push_back(m);
        snap.v.push_back(v);
    }
    return snap;
}

double
counterValue(const std::string &name)
{
    return obs::MetricRegistry::instance().counter(name).value();
}

/** Every test starts and ends with a clean registry — failpoints are
 *  process-global, and a leaked arm would poison later tests. */
class Failpoint : public ::testing::Test
{
  protected:
    void SetUp() override { fp::Registry::instance().reset(); }
    void TearDown() override { fp::Registry::instance().reset(); }
};

// ----------------------------------------------------------- parsing

TEST_F(Failpoint, ParseActionKinds)
{
    fp::SiteConfig c;
    ASSERT_TRUE(fp::parseAction("fail", c));
    EXPECT_EQ(c.kind, fp::ActionKind::Fail);
    EXPECT_EQ(c.err, 0); // evaluate() substitutes the default EIO

    ASSERT_TRUE(fp::parseAction("enospc", c));
    EXPECT_EQ(c.kind, fp::ActionKind::Fail);
    EXPECT_EQ(c.err, ENOSPC);

    ASSERT_TRUE(fp::parseAction("eio", c));
    EXPECT_EQ(c.err, EIO);

    ASSERT_TRUE(fp::parseAction("short", c));
    EXPECT_EQ(c.kind, fp::ActionKind::ShortWrite);

    ASSERT_TRUE(fp::parseAction("delay,us=250", c));
    EXPECT_EQ(c.kind, fp::ActionKind::Delay);
    EXPECT_EQ(c.delayMicros, 250u);

    ASSERT_TRUE(fp::parseAction("alloc", c));
    EXPECT_EQ(c.kind, fp::ActionKind::AllocFail);

    ASSERT_TRUE(fp::parseAction("off", c));
    EXPECT_EQ(c.kind, fp::ActionKind::Off);
}

TEST_F(Failpoint, ParseActionTriggerKeys)
{
    fp::SiteConfig c;
    ASSERT_TRUE(fp::parseAction("fail,once=1", c));
    EXPECT_EQ(c.limit, 1u);

    ASSERT_TRUE(
        fp::parseAction("fail,after=3,every=2,limit=5,seed=99", c));
    EXPECT_EQ(c.after, 3u);
    EXPECT_EQ(c.every, 2u);
    EXPECT_EQ(c.limit, 5u);
    EXPECT_EQ(c.seed, 99u);

    ASSERT_TRUE(fp::parseAction("short,after_bytes=4096", c));
    EXPECT_EQ(c.afterBytes, 4096u);

    ASSERT_TRUE(fp::parseAction("fail,prob=0.25", c));
    EXPECT_DOUBLE_EQ(c.prob, 0.25);
}

TEST_F(Failpoint, ParseActionRejectsMalformedSpecs)
{
    fp::SiteConfig c;
    std::string err;
    EXPECT_FALSE(fp::parseAction("", c, &err));
    EXPECT_FALSE(fp::parseAction("explode", c, &err));
    EXPECT_NE(err.find("explode"), std::string::npos);
    EXPECT_FALSE(fp::parseAction("fail,once=2", c, &err));
    EXPECT_FALSE(fp::parseAction("fail,prob=1.5", c, &err));
    EXPECT_FALSE(fp::parseAction("fail,bogus=1", c, &err));
    EXPECT_FALSE(fp::parseAction("fail,=1", c, &err));
}

TEST_F(Failpoint, ConfigureSpecArmsMultipleSites)
{
    auto &reg = fp::Registry::instance();
    std::string err;
    ASSERT_TRUE(reg.configure(
        "ckpt.body.write=enospc,once=1;obs.trace.open=fail", &err))
        << err;
    const auto armed = reg.armedSites();
    EXPECT_EQ(armed.size(), 2u);
    EXPECT_TRUE(reg.active());

    // A bad spec reports which clause failed and arms nothing new.
    EXPECT_FALSE(reg.configure("ckpt.body.write=explode", &err));
    EXPECT_NE(err.find("explode"), std::string::npos);

    ASSERT_TRUE(reg.configure("obs.trace.open=off", &err)) << err;
    EXPECT_EQ(reg.armedSites().size(), 1u);
}

// ---------------------------------------------------------- triggers

TEST_F(Failpoint, OnceFiresExactlyOnce)
{
    auto &reg = fp::Registry::instance();
    ASSERT_TRUE(reg.configureOne("t.once", "eio,once=1"));
    EXPECT_TRUE(static_cast<bool>(reg.evaluate("t.once")));
    EXPECT_FALSE(static_cast<bool>(reg.evaluate("t.once")));
    EXPECT_FALSE(static_cast<bool>(reg.evaluate("t.once")));
    EXPECT_EQ(reg.site("t.once").fires(), 1u);
    EXPECT_EQ(reg.site("t.once").evals(), 3u);
}

TEST_F(Failpoint, AfterAndEveryWindowTheIndex)
{
    auto &reg = fp::Registry::instance();
    ASSERT_TRUE(reg.configureOne("t.win", "fail,after=2,every=3"));
    std::string pattern;
    for (int i = 0; i < 9; ++i)
        pattern += reg.evaluate("t.win") ? 'F' : '.';
    // Indices 0,1 skipped; fires at 2, 5, 8.
    EXPECT_EQ(pattern, "..F..F..F");
}

TEST_F(Failpoint, ByteOffsetSplitsTheCrossingCall)
{
    auto &reg = fp::Registry::instance();
    ASSERT_TRUE(reg.configureOne("t.bytes", "short,after_bytes=10"));
    // 8 bytes: wholly below the offset — no fire.
    EXPECT_FALSE(static_cast<bool>(reg.evaluate("t.bytes", 8)));
    // Next 8 bytes cross offset 10: accept exactly 2, then fail.
    const auto o = reg.evaluate("t.bytes", 8);
    ASSERT_TRUE(static_cast<bool>(o));
    EXPECT_EQ(o.kind, fp::ActionKind::ShortWrite);
    EXPECT_EQ(o.acceptBytes, 2u);
    EXPECT_EQ(o.err, ENOSPC);
    // The disk stays full: later calls fail accepting nothing.
    const auto o2 = reg.evaluate("t.bytes", 8);
    ASSERT_TRUE(static_cast<bool>(o2));
    EXPECT_EQ(o2.acceptBytes, 0u);
}

TEST_F(Failpoint, ProbabilityIsSeedDeterministic)
{
    auto &reg = fp::Registry::instance();
    const auto pattern = [&](const std::string &action) {
        EXPECT_TRUE(reg.configureOne("t.prob", action));
        std::string p;
        for (int i = 0; i < 64; ++i)
            p += reg.evaluate("t.prob") ? 'F' : '.';
        return p;
    };
    const std::string a = pattern("fail,prob=0.5,seed=7");
    const std::string b = pattern("fail,prob=0.5,seed=7");
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find('F'), std::string::npos);
    EXPECT_NE(a.find('.'), std::string::npos);
    EXPECT_NE(pattern("fail,prob=0.5,seed=8"), a);
}

TEST_F(Failpoint, DisarmKeepsCountersRearmResetsWindow)
{
    auto &reg = fp::Registry::instance();
    ASSERT_TRUE(reg.configureOne("t.keep", "fail,once=1"));
    EXPECT_TRUE(static_cast<bool>(reg.evaluate("t.keep")));

    // The sweep disarms before checking invariants, then reads
    // fires() — disarm must not erase the evidence.
    reg.disarmAll();
    EXPECT_EQ(reg.site("t.keep").fires(), 1u);

    // Re-arming starts a fresh one-shot window (the cumulative
    // counter keeps accumulating across windows).
    ASSERT_TRUE(reg.configureOne("t.keep", "fail,once=1"));
    EXPECT_TRUE(static_cast<bool>(reg.evaluate("t.keep")));
    EXPECT_EQ(reg.site("t.keep").fires(), 2u);

    reg.reset();
    EXPECT_EQ(reg.site("t.keep").fires(), 0u);
    EXPECT_EQ(reg.site("t.keep").evals(), 0u);
}

TEST_F(Failpoint, TraceRecordsHitSites)
{
    auto &reg = fp::Registry::instance();
    reg.setTrace(true);
    reg.evaluate("t.traced");
    const auto hits = reg.hitSites();
    EXPECT_NE(std::find(hits.begin(), hits.end(), "t.traced"),
              hits.end());
    EXPECT_FALSE(fp::Registry::isDeclared("t.traced"));
    EXPECT_TRUE(fp::Registry::isDeclared("ckpt.body.write"));
    EXPECT_GE(fp::Registry::declaredSites().size(), 30u);
}

// --------------------------------------------------------- I/O seam

TEST_F(Failpoint, FwriteFpShortWriteLandsThePrefix)
{
    auto &reg = fp::Registry::instance();
    const std::string dir = freshDir("fp_io");
    const std::string path = dir + "/short.bin";
    ASSERT_TRUE(reg.configureOne("t.io.write", "short,after_bytes=5"));

    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char payload[] = "0123456789";
    const std::size_t n = io::fwriteFp("t.io.write", payload, 10, f);
    EXPECT_EQ(n, 5u);
    EXPECT_EQ(errno, ENOSPC);
    std::fclose(f);
    // The accepted prefix genuinely landed in the file.
    EXPECT_EQ(fileSize(path), 5);
}

TEST_F(Failpoint, IoWrappersFailWithConfiguredErrno)
{
    auto &reg = fp::Registry::instance();
    const std::string dir = freshDir("fp_io2");
    ASSERT_TRUE(reg.configureOne("t.io.open", "enospc,once=1"));
    errno = 0;
    EXPECT_EQ(io::fopenFp("t.io.open", dir + "/x", "wb"), nullptr);
    EXPECT_EQ(errno, ENOSPC);
    // The window is spent: the next open succeeds.
    std::FILE *f = io::fopenFp("t.io.open", dir + "/x", "wb");
    ASSERT_NE(f, nullptr);

    ASSERT_TRUE(reg.configureOne("t.io.close", "eio,once=1"));
    EXPECT_EQ(io::fcloseFp("t.io.close", f), EOF);
    EXPECT_EQ(errno, EIO);
    // fcloseFp closed the real FILE even while failing — reopening
    // and closing cleanly proves no descriptor leaked.
    f = std::fopen((dir + "/x").c_str(), "rb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(std::fclose(f), 0);
}

// ----------------------------------------------- telemetry degraded

TEST_F(Failpoint, TelemetrySinkDegradesInsteadOfFailing)
{
    auto &reg = fp::Registry::instance();
    const std::string dir = freshDir("fp_telemetry");
    const double before = counterValue("obs.write_errors");

    ASSERT_TRUE(
        reg.configureOne("obs.telemetry.write", "enospc,once=1"));
    obs::JsonlTelemetrySink sink(dir + "/telemetry.jsonl");
    ASSERT_TRUE(sink.ok());

    obs::StepTelemetry rec;
    rec.step = 1;
    sink.onStep(rec); // write fails -> degraded, record dropped
    rec.step = 2;
    sink.onStep(rec); // degraded: dropped without touching the file
    rec.step = 3;
    sink.onStep(rec);

    EXPECT_TRUE(sink.degraded());
    EXPECT_EQ(sink.recordsWritten(), 0u);
    EXPECT_EQ(sink.droppedRecords(), 3u);
    EXPECT_EQ(counterValue("obs.write_errors"), before + 1.0);
}

TEST_F(Failpoint, TelemetrySinkOpenFailureDegradesImmediately)
{
    auto &reg = fp::Registry::instance();
    const std::string dir = freshDir("fp_telemetry2");
    ASSERT_TRUE(reg.configureOne("obs.telemetry.open", "fail,once=1"));
    obs::JsonlTelemetrySink sink(dir + "/telemetry.jsonl");
    EXPECT_FALSE(sink.ok());
    EXPECT_TRUE(sink.degraded());
    obs::StepTelemetry rec;
    sink.onStep(rec); // must not crash
    EXPECT_EQ(sink.droppedRecords(), 1u);
}

// ------------------------------------------- durable write ladder

TEST_F(Failpoint, WriteLadderStagesReturnTypedResults)
{
    auto &reg = fp::Registry::instance();
    const std::string dir = freshDir("fp_ladder");
    const TrainerSnapshot snap = makeSnap(1);
    const std::string path = dir + "/ckpt.bin";
    const auto stage = [&](const char *site, const char *action) {
        reg.reset();
        EXPECT_TRUE(reg.configureOne(site, action)) << site;
        return writeCheckpointEx(path, snap);
    };

    EXPECT_EQ(stage("ckpt.body.open", "fail,once=1"),
              CheckpointWriteResult::OpenFailed);
    EXPECT_EQ(stage("ckpt.body.open", "fail,once=1,errno=enoent"),
              CheckpointWriteResult::DirMissing);
    EXPECT_EQ(stage("ckpt.body.write", "eio,once=1"),
              CheckpointWriteResult::WriteFailed);
    EXPECT_EQ(stage("ckpt.body.write", "enospc,once=1"),
              CheckpointWriteResult::NoSpace);
    EXPECT_EQ(stage("ckpt.body.fsync", "eio,once=1"),
              CheckpointWriteResult::FsyncFailed);
    EXPECT_EQ(stage("ckpt.body.fsync", "enospc,once=1"),
              CheckpointWriteResult::NoSpace);
    EXPECT_EQ(stage("ckpt.body.close", "enospc,once=1"),
              CheckpointWriteResult::NoSpace);
    EXPECT_EQ(stage("ckpt.body.rename", "eio,once=1"),
              CheckpointWriteResult::RenameFailed);
    EXPECT_EQ(stage("ckpt.body.rename", "fail,once=1,errno=enoent"),
              CheckpointWriteResult::DirMissing);

    // None of the pre-publish stages left a committed file behind...
    TrainerSnapshot out;
    EXPECT_NE(readCheckpoint(path, out), CheckpointLoadResult::Ok);

    // ...while a dirfsync failure happens *after* the rename: the
    // data is synced and the file published, only the directory
    // entry's durability is in doubt.
    EXPECT_EQ(stage("ckpt.body.dirfsync", "eio,once=1"),
              CheckpointWriteResult::DirFsyncFailed);
    EXPECT_EQ(readCheckpoint(path, out), CheckpointLoadResult::Ok);

    // With the registry clean the same write commits.
    reg.reset();
    EXPECT_EQ(writeCheckpointEx(path, snap),
              CheckpointWriteResult::Ok);
    EXPECT_EQ(readCheckpoint(path, out), CheckpointLoadResult::Ok);
}

TEST_F(Failpoint, ReadDistinguishesMissingFromUnreadable)
{
    auto &reg = fp::Registry::instance();
    const std::string dir = freshDir("fp_read");
    const std::string path = dir + "/ckpt.bin";
    TrainerSnapshot out;
    EXPECT_EQ(readCheckpoint(path, out),
              CheckpointLoadResult::Missing);

    ASSERT_EQ(writeCheckpointEx(path, makeSnap(2)),
              CheckpointWriteResult::Ok);
    // The file exists but open fails with EIO: that is Corrupt
    // territory (fall back to an older generation), not Missing.
    ASSERT_TRUE(reg.configureOne("ckpt.read.open", "eio,once=1"));
    EXPECT_EQ(readCheckpoint(path, out),
              CheckpointLoadResult::Corrupt);
    EXPECT_EQ(readCheckpoint(path, out), CheckpointLoadResult::Ok);
}

// -------------------------------------------- ENOSPC prune-retry

TEST_F(Failpoint, StorePrunesOldestGenerationOnEnospc)
{
    auto &reg = fp::Registry::instance();
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("fp_enospc_store");
    cfg.keep = 3;
    CheckpointStore store(cfg);
    for (std::uint64_t s = 1; s <= 3; ++s)
        ASSERT_EQ(store.commit(makeSnap(s)),
                  CheckpointWriteResult::Ok);
    ASSERT_TRUE(
        pathExists(cfg.dir + "/" + CheckpointStore::generationFileName(1)));

    const double before = counterValue("ckpt.enospc_prunes");
    // The volume is "full" for exactly the first body-write attempt;
    // pruning generation 1 frees space and the retry commits.
    ASSERT_TRUE(reg.configureOne("ckpt.body.write", "enospc,once=1"));
    EXPECT_EQ(store.commit(makeSnap(4)), CheckpointWriteResult::Ok);
    EXPECT_EQ(counterValue("ckpt.enospc_prunes"), before + 1.0);
    EXPECT_FALSE(
        pathExists(cfg.dir + "/" + CheckpointStore::generationFileName(1)));

    TrainerSnapshot out;
    const auto load = store.loadLatest(out);
    EXPECT_EQ(load.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(out.step, 4u);
}

TEST_F(Failpoint, StoreSurfacesNoSpaceWhenPruningCannotHelp)
{
    auto &reg = fp::Registry::instance();
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("fp_enospc_stuck");
    cfg.keep = 3;
    CheckpointStore store(cfg);
    // Only one generation: pruning it would drop the only Ok
    // snapshot, so the store must refuse and surface NoSpace.
    ASSERT_EQ(store.commit(makeSnap(1)), CheckpointWriteResult::Ok);
    ASSERT_TRUE(reg.configureOne("ckpt.body.write", "enospc"));
    EXPECT_EQ(store.commit(makeSnap(2)),
              CheckpointWriteResult::NoSpace);
    reg.reset();
    TrainerSnapshot out;
    EXPECT_EQ(store.loadLatest(out).result, CheckpointLoadResult::Ok);
    EXPECT_EQ(out.step, 1u);
}

TEST_F(Failpoint, StoreReportsUnreadableDirAsDirMissing)
{
    auto &reg = fp::Registry::instance();
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("fp_baddir");
    CheckpointStore store(cfg);
    ASSERT_EQ(store.commit(makeSnap(1)), CheckpointWriteResult::Ok);
    // An unreadable directory must classify as the typed transient
    // DirMissing (retry), not silently commit as generation 1 over
    // the existing files.
    ASSERT_TRUE(reg.configureOne("fs.listdir", "eio,once=1"));
    EXPECT_EQ(store.commit(makeSnap(2)),
              CheckpointWriteResult::DirMissing);
    reg.reset();
    EXPECT_EQ(store.commit(makeSnap(2)), CheckpointWriteResult::Ok);
    TrainerSnapshot out;
    const auto load = store.loadLatest(out);
    EXPECT_EQ(load.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(load.gen, 2u);
}

// ------------------------------------- persistent storage failure

TEST_F(Failpoint, PersistentStorageFailureNeverStopsTraining)
{
    auto &reg = fp::Registry::instance();
    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    for (const bool async : {true, false}) {
        SCOPED_TRACE(async ? "async commits" : "sync commits");
        nn::guard::CrashHarnessConfig cfg;
        cfg.seed = 31;
        cfg.steps = 20;
        cfg.ckptEvery = 2;
        cfg.asyncCheckpoint = async;

        cfg.dir = freshDir("fp_disk_ok");
        cfg.mastersOut = ::testing::TempDir() + "fp_disk_ok.bin";
        const auto ref = nn::guard::runCrashHarness(cfg);

        // A full disk: every checkpoint body write fails, so no commit
        // ever lands. Each one is dropped and training carries on.
        cfg.dir = freshDir("fp_disk_full");
        cfg.mastersOut = ::testing::TempDir() + "fp_disk_full.bin";
        ASSERT_TRUE(reg.configureOne("ckpt.body.write", "enospc"));
        const auto full = nn::guard::runCrashHarness(cfg);
        const std::uint64_t fires = reg.site("ckpt.body.write").fires();
        reg.reset();

        EXPECT_GT(fires, 0u);
        EXPECT_EQ(full.stepsRun, cfg.steps);
        EXPECT_EQ(full.mastersCrc, ref.mastersCrc);
        const std::string masters = slurp(cfg.mastersOut);
        EXPECT_FALSE(masters.empty());
        EXPECT_TRUE(masters ==
                    slurp(::testing::TempDir() + "fp_disk_ok.bin"))
            << "masters differ from the run without the failpoint";
    }
}

} // namespace
} // namespace cq
