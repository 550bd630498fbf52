/**
 * @file
 * Crash-consistency tests: the durable write protocol under torn
 * writes and bit rot, generation-store retention and manifest
 * atomicity under a SIGKILLed prune, the async checkpoint writer's
 * hand-off contract and signal shutdown. The kill–restart proof that
 * a SIGKILLed training run resumes bitwise identical to an
 * uninterrupted one is tools/cq_crashtest.cc, which ctest runs as
 * CrashResume.KillRestartSweep.
 *
 * Naming matters for CI: tests that fork (and SIGKILL) children live
 * under CrashResume.*; everything else is fork-free so the TSAN job
 * can select it (TSAN does not support fork-with-threads).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/isolated_trial.h"
#include "common/rng.h"
#include "common/signal_flag.h"
#include "nn/datasets.h"
#include "nn/guard/checkpoint.h"
#include "nn/guard/ckpt_store.h"
#include "nn/network.h"
#include "nn/quant_trainer.h"
#include "obs/metrics.h"

namespace cq {
namespace {

using nn::guard::AsyncCheckpointWriter;
using nn::guard::CheckpointLoadResult;
using nn::guard::CheckpointStore;
using nn::guard::CheckpointStoreConfig;
using nn::guard::CheckpointWriteResult;
using nn::guard::ManifestEntry;
using nn::guard::TrainerSnapshot;

/** A per-test directory under gtest's temp root, wiped first. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    EXPECT_TRUE(removeTree(dir));
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

std::vector<char>
readAll(const std::string &path)
{
    std::vector<char> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr)
        return bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
writeAll(const std::string &path, const char *data, std::size_t len)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(data, 1, len, f), len);
    std::fclose(f);
}

/** XOR one bit of an existing file in place. */
void
flipBit(const std::string &path, std::size_t byte, unsigned bit)
{
    auto bytes = readAll(path);
    ASSERT_LT(byte, bytes.size());
    bytes[byte] = static_cast<char>(bytes[byte] ^ (1u << bit));
    writeAll(path, bytes.data(), bytes.size());
}

// ------------------------------------------------------ generation store

TEST(CkptStore, CommitAndLoadRoundTrip)
{
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("ckpt_roundtrip");
    CheckpointStore store(cfg);
    ASSERT_EQ(store.commit(makeSnap(7)), CheckpointWriteResult::Ok);

    TrainerSnapshot snap;
    const auto out = store.loadLatest(snap);
    EXPECT_EQ(out.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(out.gen, 1u);
    EXPECT_TRUE(out.usedManifest);
    EXPECT_EQ(out.skippedCorrupt, 0u);
    EXPECT_EQ(snap.step, 7u);
    ASSERT_EQ(snap.masters.size(), 2u);
    EXPECT_EQ(snap.masters[0].data()[4],
              makeSnap(7).masters[0].data()[4]);
}

TEST(CkptStore, RetentionKeepsNewestKInOrder)
{
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("ckpt_retention");
    cfg.keep = 3;
    CheckpointStore store(cfg);
    for (std::uint64_t s = 1; s <= 6; ++s)
        ASSERT_EQ(store.commit(makeSnap(s)),
                  CheckpointWriteResult::Ok);

    std::vector<ManifestEntry> entries;
    ASSERT_TRUE(store.readManifest(entries));
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].gen, 4u);
    EXPECT_EQ(entries[1].gen, 5u);
    EXPECT_EQ(entries[2].gen, 6u);

    // Pruned generation files are really gone; kept ones are present.
    for (std::uint64_t g = 1; g <= 6; ++g) {
        const std::string p =
            cfg.dir + "/" + CheckpointStore::generationFileName(g);
        EXPECT_EQ(pathExists(p), g >= 4) << p;
    }
    TrainerSnapshot snap;
    EXPECT_EQ(store.loadLatest(snap).gen, 6u);
    EXPECT_EQ(snap.step, 6u);
}

TEST(CkptStore, ResumesFromPreviousOkGeneration)
{
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("ckpt_prev_ok");
    CheckpointStore store(cfg);
    for (std::uint64_t s = 1; s <= 3; ++s)
        ASSERT_EQ(store.commit(makeSnap(s)),
                  CheckpointWriteResult::Ok);
    flipBit(cfg.dir + "/" + CheckpointStore::generationFileName(3),
            40, 3);

    TrainerSnapshot snap;
    const auto out = store.loadLatest(snap);
    EXPECT_EQ(out.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(out.gen, 2u);
    EXPECT_EQ(out.skippedCorrupt, 1u);
    EXPECT_EQ(snap.step, 2u);
}

TEST(CkptStore, NeverPrunesSoleOkGeneration)
{
    const std::string dir = freshDir("ckpt_sole_ok");
    CheckpointStoreConfig cfg;
    cfg.dir = dir;
    cfg.keep = 3;
    {
        CheckpointStore store(cfg);
        for (std::uint64_t s = 1; s <= 3; ++s)
            ASSERT_EQ(store.commit(makeSnap(s)),
                      CheckpointWriteResult::Ok);
    }
    // Generations 2 and 3 rot on disk; only 1 still verifies.
    flipBit(dir + "/" + CheckpointStore::generationFileName(2), 33, 1);
    flipBit(dir + "/" + CheckpointStore::generationFileName(3), 51, 6);

    CheckpointStoreConfig tight = cfg;
    tight.keep = 1;
    CheckpointStore store(tight);
    EXPECT_TRUE(store.prune());

    // Retention wanted to keep only generation 3, but 3 is corrupt:
    // the sole verifying generation must have survived the prune.
    EXPECT_TRUE(pathExists(
        dir + "/" + CheckpointStore::generationFileName(1)));
    TrainerSnapshot snap;
    const auto out = store.loadLatest(snap);
    EXPECT_EQ(out.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(out.gen, 1u);
    EXPECT_EQ(snap.step, 1u);
}

TEST(CkptStore, ManifestLossFallsBackToDirectoryScan)
{
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("ckpt_scan");
    CheckpointStore store(cfg);
    ASSERT_EQ(store.commit(makeSnap(1)), CheckpointWriteResult::Ok);
    ASSERT_EQ(store.commit(makeSnap(2)), CheckpointWriteResult::Ok);

    const std::string manifest =
        cfg.dir + "/" + CheckpointStore::kManifestName;
    const auto manifestBytes = readAll(manifest);
    ASSERT_GT(manifestBytes.size(), 0u);

    // Deleted manifest: resume still works off the directory.
    std::remove(manifest.c_str());
    TrainerSnapshot snap;
    auto out = store.loadLatest(snap);
    EXPECT_EQ(out.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(out.gen, 2u);
    EXPECT_FALSE(out.usedManifest);

    // A manifest torn at *any* byte never breaks resume: either it
    // still parses, or the scan fallback kicks in. Never garbage.
    for (std::size_t len = 0; len < manifestBytes.size(); ++len) {
        writeAll(manifest, manifestBytes.data(), len);
        TrainerSnapshot s;
        const auto o = store.loadLatest(s);
        ASSERT_EQ(o.result, CheckpointLoadResult::Ok)
            << "manifest truncated to " << len << " bytes";
        ASSERT_EQ(s.step, o.gen); // step == gen in this setup
    }
}

// ------------------------------------------------------ torn-write fuzz

TEST(TornWrite, TruncationNeverLoadsGarbage)
{
    const std::string dir = freshDir("torn_trunc");
    const std::string whole = dir + "/whole.bin";
    const std::string torn = dir + "/torn.bin";
    ASSERT_EQ(nn::guard::writeCheckpointEx(whole, makeSnap(11)),
              CheckpointWriteResult::Ok);
    const auto bytes = readAll(whole);
    ASSERT_GT(bytes.size(), 0u);

    TrainerSnapshot snap;
    ASSERT_EQ(nn::guard::readCheckpoint(whole, snap),
              CheckpointLoadResult::Ok);

    // Every proper prefix must classify Missing/Corrupt — a torn
    // write can truncate at literally any byte.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeAll(torn, bytes.data(), len);
        TrainerSnapshot out;
        const auto res = nn::guard::readCheckpoint(torn, out);
        ASSERT_NE(res, CheckpointLoadResult::Ok)
            << "truncation to " << len << " bytes loaded as Ok";
    }
}

TEST(TornWrite, SeededBitFlipsAlwaysDetected)
{
    const std::string dir = freshDir("torn_flip");
    const std::string whole = dir + "/whole.bin";
    const std::string flipped = dir + "/flipped.bin";
    ASSERT_EQ(nn::guard::writeCheckpointEx(whole, makeSnap(13)),
              CheckpointWriteResult::Ok);
    const auto bytes = readAll(whole);
    ASSERT_GT(bytes.size(), 0u);

    Rng rng(0xF11Fu);
    for (int trial = 0; trial < 256; ++trial) {
        auto copy = bytes;
        const std::size_t byte = static_cast<std::size_t>(
            rng.below(copy.size()));
        const unsigned bit =
            static_cast<unsigned>(rng.below(8));
        copy[byte] = static_cast<char>(copy[byte] ^ (1u << bit));
        writeAll(flipped, copy.data(), copy.size());
        TrainerSnapshot out;
        const auto res = nn::guard::readCheckpoint(flipped, out);
        ASSERT_NE(res, CheckpointLoadResult::Ok)
            << "flip of bit " << bit << " at byte " << byte
            << " loaded as Ok";
    }
}

// ----------------------------------------------------- durability knobs

TEST(TornWrite, WriteResultDistinguishesFailureStages)
{
    // DirMissing: the destination directory vanished (typed so the
    // async writer's retry budget treats it as transient).
    EXPECT_EQ(nn::guard::writeCheckpointEx(
                  "/nonexistent-dir/x.bin", makeSnap(1)),
              CheckpointWriteResult::DirMissing);
    // A throwing hook aborts the write, removes the temp file, and
    // propagates (the async writer relies on that).
    const std::string dir = freshDir("torn_stages");
    nn::guard::CheckpointWriteOptions opts;
    opts.onWrite = [](std::size_t) {
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(nn::guard::writeCheckpointEx(dir + "/x.bin",
                                              makeSnap(1), opts),
                 std::runtime_error);
    EXPECT_FALSE(pathExists(dir + "/x.bin"));
    EXPECT_FALSE(pathExists(dir + "/x.bin.tmp"));
}

// -------------------------------------------------------- async writer

TEST(AsyncCkpt, DrainedCommitsMatchSyncCommits)
{
    CheckpointStoreConfig sa, sb;
    sa.dir = freshDir("async_sync_a");
    sb.dir = freshDir("async_sync_b");
    CheckpointStore syncStore(sa), asyncStore(sb);
    {
        AsyncCheckpointWriter writer(asyncStore);
        for (std::uint64_t s = 1; s <= 5; ++s) {
            ASSERT_EQ(syncStore.commit(makeSnap(s)),
                      CheckpointWriteResult::Ok);
            writer.submit(makeSnap(s));
            ASSERT_EQ(writer.drain(), CheckpointWriteResult::Ok);
        }
        EXPECT_EQ(writer.committed(), 5u);
        EXPECT_EQ(writer.dropped(), 0u);
    }
    std::vector<ManifestEntry> a, b;
    ASSERT_TRUE(syncStore.readManifest(a));
    ASSERT_TRUE(asyncStore.readManifest(b));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].gen, b[i].gen);
        EXPECT_EQ(a[i].step, b[i].step);
        // Identical snapshot bytes => identical manifest CRCs.
        EXPECT_EQ(a[i].crc, b[i].crc);
    }
}

TEST(AsyncCkpt, LatestWinsReplacesPendingSnapshot)
{
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("async_latest");
    // Gate the first commit inside its write so two more submits can
    // pile up behind it deterministically.
    std::mutex m;
    std::condition_variable cv;
    bool started = false, release = false;
    cfg.write.onWrite = [&](std::size_t) {
        std::unique_lock<std::mutex> lock(m);
        if (!started) {
            started = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        }
    };
    CheckpointStore store(cfg);
    AsyncCheckpointWriter writer(store);

    writer.submit(makeSnap(1));
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return started; });
    }
    writer.submit(makeSnap(2)); // parked behind the gated write
    writer.submit(makeSnap(3)); // replaces 2 (latest wins)
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    ASSERT_EQ(writer.drain(), CheckpointWriteResult::Ok);
    EXPECT_EQ(writer.dropped(), 1u);
    EXPECT_EQ(writer.committed(), 2u);

    TrainerSnapshot snap;
    const auto out = store.loadLatest(snap);
    EXPECT_EQ(out.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(snap.step, 3u); // the newest snapshot always lands
}

TEST(AsyncCkpt, PropagatesWriterExceptions)
{
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("async_throw");
    cfg.write.onWrite = [](std::size_t) {
        throw std::runtime_error("disk on fire");
    };
    CheckpointStore store(cfg);
    AsyncCheckpointWriter writer(store);
    writer.submit(makeSnap(1));
    EXPECT_THROW(writer.drain(), std::runtime_error);
    // The error is consumed; the writer remains usable.
    EXPECT_EQ(writer.drain(), CheckpointWriteResult::Ok);
    EXPECT_EQ(writer.committed(), 0u);
}

TEST(AsyncCkpt, RetriesTransientWriteFailuresWithinBudget)
{
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("async_retry");
    // Fail injection: the first N write calls throw, then the disk
    // "recovers". The first commit attempt dies on its first chunk;
    // the writer's bounded retry must land the snapshot anyway.
    std::atomic<int> failuresLeft{2};
    cfg.write.onWrite = [&](std::size_t) {
        if (failuresLeft.fetch_sub(1, std::memory_order_relaxed) > 0)
            throw std::runtime_error("transient write failure");
    };
    CheckpointStore store(cfg);
    auto &retriesMetric =
        obs::MetricRegistry::instance().counter("ckpt.write_retries");
    const double metricBefore = retriesMetric.value();

    AsyncCheckpointWriter writer(store);
    writer.submit(makeSnap(7));
    ASSERT_EQ(writer.drain(), CheckpointWriteResult::Ok);
    EXPECT_EQ(writer.committed(), 1u);
    EXPECT_GE(writer.retried(), 1u);
    EXPECT_GE(retriesMetric.value() - metricBefore, 1.0);

    TrainerSnapshot snap;
    EXPECT_EQ(store.loadLatest(snap).result, CheckpointLoadResult::Ok);
    EXPECT_EQ(snap.step, 7u);
}

TEST(AsyncCkpt, RetryBudgetExhaustionSurfacesTheError)
{
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("async_retry_budget");
    std::atomic<int> attempts{0};
    cfg.write.onWrite = [&](std::size_t) {
        attempts.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("disk stays on fire");
    };
    CheckpointStore store(cfg);
    AsyncCheckpointWriter writer(store);
    writer.submit(makeSnap(1));
    EXPECT_THROW(writer.drain(), std::runtime_error);
    EXPECT_EQ(writer.committed(), 0u);
    EXPECT_EQ(writer.retried(), 2u); // budget spent, then surfaced
    EXPECT_EQ(attempts.load(), 3);   // original + two retries
}

// ------------------------------------------------------ signal shutdown

TEST(SignalShutdown, HandlerSetsFlagOnSigterm)
{
    clearShutdownRequest();
    installShutdownSignalHandler();
    EXPECT_FALSE(shutdownRequested());
    ::raise(SIGTERM);
    EXPECT_TRUE(shutdownRequested());
    clearShutdownRequest();
}

TEST(SignalShutdown, TrainerWritesFinalCheckpointAndStops)
{
    const std::string dir = freshDir("signal_final");
    nn::SpiralDataset data(2, 0.1, 17);
    nn::Network net = nn::makeSpiralMlp(18);

    nn::QuantTrainerConfig cfg;
    cfg.optimizer.kind = nn::OptimizerKind::Adam;
    cfg.resilience.enabled = true;
    cfg.resilience.checkpointDir = dir;
    cfg.resilience.checkpointInterval = 1000; // only the final one
    cfg.resilience.handleSignals = true;
    cfg.resilience.dataRng = &data.rng();
    nn::QuantTrainer trainer(net, cfg);

    clearShutdownRequest();
    for (int i = 0; i < 3; ++i) {
        const auto b = data.sample(16);
        trainer.stepClassification(b.inputs, b.labels);
    }
    EXPECT_FALSE(trainer.stopRequested());
    requestShutdown(); // what the SIGTERM handler does
    const auto b = data.sample(16);
    trainer.stepClassification(b.inputs, b.labels);
    EXPECT_TRUE(trainer.stopRequested());
    clearShutdownRequest();

    // The final synchronous checkpoint is on disk and resumable at
    // exactly the stopped step.
    CheckpointStoreConfig storeCfg;
    storeCfg.dir = dir;
    TrainerSnapshot snap;
    const auto out = CheckpointStore(storeCfg).loadLatest(snap);
    EXPECT_EQ(out.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(snap.step, 4u);
}

TEST(SignalShutdown, CancelTokenStopsTrainerCheckpointClean)
{
    const std::string dir = freshDir("cancel_token_stop");
    nn::SpiralDataset data(2, 0.1, 17);
    nn::Network net = nn::makeSpiralMlp(18);

    CancelToken token;
    nn::QuantTrainerConfig cfg;
    cfg.optimizer.kind = nn::OptimizerKind::Adam;
    cfg.resilience.enabled = true;
    cfg.resilience.checkpointDir = dir;
    cfg.resilience.checkpointInterval = 1000; // only the final one
    cfg.resilience.cancel = &token;           // no signal handling
    cfg.resilience.dataRng = &data.rng();
    nn::QuantTrainer trainer(net, cfg);

    for (int i = 0; i < 2; ++i) {
        const auto b = data.sample(16);
        trainer.stepClassification(b.inputs, b.labels);
    }
    EXPECT_FALSE(trainer.stopRequested());
    token.cancel(CancelReason::Deadline);
    const auto b = data.sample(16);
    trainer.stepClassification(b.inputs, b.labels);
    // The cancel is observed at the step boundary: the in-flight step
    // completes, the final checkpoint commits, and later steps no-op.
    EXPECT_TRUE(trainer.stopRequested());
    EXPECT_TRUE(trainer.cancelObserved());

    CheckpointStoreConfig storeCfg;
    storeCfg.dir = dir;
    TrainerSnapshot snap;
    const auto out = CheckpointStore(storeCfg).loadLatest(snap);
    EXPECT_EQ(out.result, CheckpointLoadResult::Ok);
    EXPECT_EQ(snap.step, 3u);
}

// ------------------------------------------- fork-based kills

TEST(CrashResume, ManifestStaysAtomicUnderMidPruneKill)
{
    // Kill a child at successive byte offsets of the manifest rewrite
    // a prune performs; the store must always come back Ok.
    for (std::size_t killByte = 1; killByte < 160; killByte += 7) {
        const std::string dir = freshDir(
            "midprune_" + std::to_string(killByte));
        CheckpointStoreConfig cfg;
        cfg.dir = dir;
        cfg.keep = 3;
        {
            CheckpointStore store(cfg);
            for (std::uint64_t s = 1; s <= 3; ++s)
                ASSERT_EQ(store.commit(makeSnap(s)),
                          CheckpointWriteResult::Ok);
        }

        const TrialEnd end = runIsolated([&] {
            CheckpointStoreConfig tight;
            tight.dir = dir;
            tight.keep = 1;
            auto killed = std::make_shared<std::uint64_t>(0);
            tight.write.onWrite = [killed,
                                   killByte](std::size_t chunk) {
                *killed += chunk;
                if (*killed >= killByte)
                    ::raise(SIGKILL);
            };
            CheckpointStore store(tight);
            store.prune();
            return 0;
        });
        // Offsets past the manifest size let the child finish; both
        // outcomes must leave a loadable store.
        ASSERT_TRUE(end.killedBy(SIGKILL) || end.exitedWith(0))
            << describe(end);

        CheckpointStore store(cfg);
        TrainerSnapshot snap;
        const auto out = store.loadLatest(snap);
        ASSERT_EQ(out.result, CheckpointLoadResult::Ok)
            << "kill at manifest byte " << killByte
            << " left no loadable generation";
        ASSERT_GE(out.gen, 1u);
        ASSERT_LE(out.gen, 3u);
        ASSERT_EQ(snap.step, out.gen); // step == gen in this setup
    }
}

// Death test => forks, so it lives in the CrashResume group with the
// other forking tests (kept out of the TSAN selection).
TEST(CrashResume, SecondShutdownSignalExitsImmediately)
{
    EXPECT_EXIT(
        {
            clearShutdownRequest();
            installShutdownSignalHandler();
            ::raise(SIGTERM); // first: request a graceful drain
            ::raise(SIGTERM); // second: escalate to immediate exit
            ::_exit(0);       // never reached
        },
        ::testing::ExitedWithCode(128 + SIGTERM),
        "second shutdown signal");
    EXPECT_EXIT(
        {
            clearShutdownRequest();
            installShutdownSignalHandler();
            ::raise(SIGINT);
            ::raise(SIGINT);
            ::_exit(0);
        },
        ::testing::ExitedWithCode(128 + SIGINT),
        "exiting immediately");
}

// ------------------------------------------- vanished directories

TEST(DirMissing, StoreDirRemovedBetweenCommitsIsRecreated)
{
    // Someone rm -rf'd the checkpoint tree between two commits. The
    // next commit's leading ensureDir restores it transparently.
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("dirmiss_recreate");
    CheckpointStore store(cfg);
    ASSERT_EQ(store.commit(makeSnap(1)), CheckpointWriteResult::Ok);
    removeTree(cfg.dir);
    EXPECT_EQ(store.commit(makeSnap(2)), CheckpointWriteResult::Ok);
    TrainerSnapshot snap;
    EXPECT_EQ(store.loadLatest(snap).result, CheckpointLoadResult::Ok);
    EXPECT_EQ(snap.step, 2u);
}

TEST(DirMissing, StoreDirRemovedMidCommitIsRecreatedAndRetried)
{
    // Nastier: the tree vanishes *during* the commit (after the
    // leading ensureDir, while the snapshot body is streaming out).
    // The rename fails ENOENT, writeCheckpointEx types it DirMissing,
    // and commit() recreates the directory and retries in place — the
    // commit still lands, observable via ckpt.dir_recreated.
    CheckpointStoreConfig cfg;
    cfg.dir = freshDir("dirmiss_midcommit");
    auto nuked = std::make_shared<bool>(false);
    const std::string dir = cfg.dir;
    cfg.write.onWrite = [nuked, dir](std::size_t) {
        if (*nuked)
            return;
        *nuked = true;
        removeTree(dir);
    };
    CheckpointStore store(cfg);
    const double before = obs::MetricRegistry::instance()
                              .counter("ckpt.dir_recreated")
                              .value();
    EXPECT_EQ(store.commit(makeSnap(2)), CheckpointWriteResult::Ok);
    EXPECT_GE(obs::MetricRegistry::instance()
                      .counter("ckpt.dir_recreated")
                      .value() -
                  before,
              1.0);
    TrainerSnapshot snap;
    EXPECT_EQ(store.loadLatest(snap).result, CheckpointLoadResult::Ok);
    EXPECT_EQ(snap.step, 2u);
}

TEST(DirMissing, MissingParentSurfacesTypedResultAfterRetryBudget)
{
    // The whole parent tree is gone; single-level mkdir cannot help.
    // The async writer must spend its retry budget and then record
    // the typed DirMissing result — never throw, never mislabel it
    // as a generic open failure.
    CheckpointStoreConfig cfg;
    cfg.dir = ::testing::TempDir() + "dirmiss_noparent/store";
    removeTree(::testing::TempDir() + "dirmiss_noparent");
    CheckpointStore store(cfg);
    AsyncCheckpointWriter writer(store);
    writer.submit(makeSnap(3));
    EXPECT_EQ(writer.drain(), CheckpointWriteResult::DirMissing);
    EXPECT_EQ(writer.committed(), 0u);
    EXPECT_EQ(writer.retried(), 2u);
}

TEST(DirMissing, ParentRestoredMidRetryRecoversWithinBudget)
{
    // ENOENT as a *transient* failure: the whole tree vanishes while a
    // commit is in flight, and the parent is back before the writer's
    // next attempt (an operator restoring a mount, say). A one-shot
    // fs.listdir delay holds the first attempt between its mkdir and
    // its directory scan while the tree goes and the parent returns,
    // so the scan fails ENOENT; the retry, inside the writer's budget,
    // recreates the store directory and lands.
    const std::string parent = ::testing::TempDir() + "dirmiss_flaky";
    CheckpointStoreConfig cfg;
    cfg.dir = parent + "/store";
    removeTree(cfg.dir);
    removeTree(parent);
    ASSERT_TRUE(ensureDir(parent));
    CheckpointStore store(cfg);
    auto &reg = fp::Registry::instance();
    reg.reset();
    ASSERT_TRUE(reg.configureOne("fs.listdir", "delay,us=200000,once=1"));
    AsyncCheckpointWriter writer(store);
    writer.submit(makeSnap(4));
    const fp::Site &scan = reg.site("fs.listdir");
    for (int spin = 0; spin < 4000 && scan.fires() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(scan.fires(), 1u);
    removeTree(parent);
    ASSERT_TRUE(ensureDir(parent));
    ASSERT_EQ(writer.drain(), CheckpointWriteResult::Ok);
    reg.reset();
    EXPECT_EQ(writer.committed(), 1u);
    EXPECT_GE(writer.retried(), 1u);
    TrainerSnapshot snap;
    EXPECT_EQ(store.loadLatest(snap).result, CheckpointLoadResult::Ok);
    EXPECT_EQ(snap.step, 4u);
}

} // namespace
} // namespace cq
