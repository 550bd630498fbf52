/**
 * @file
 * Tests of the resilience subsystem: CRC32, the deterministic fault
 * injector, the kill-point planner, numerical guardrails,
 * checkpoint/rollback, and the end-to-end recovery contract — a
 * faulted run with guardrails finishes close to the clean run while
 * the same faults without guardrails diverge.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unistd.h>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/fileutil.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "nn/datasets.h"
#include "nn/guard/checkpoint.h"
#include "nn/guard/ckpt_store.h"
#include "nn/guard/guardrails.h"
#include "nn/network.h"
#include "nn/quant_trainer.h"
#include "sim/faults/fault_injector.h"
#include "sim/faults/kill_schedule.h"

namespace cq {
namespace {

using nn::guard::CheckpointLoadResult;
using nn::guard::TrainerSnapshot;

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** rm -rf of the flat layout a checkpoint store leaves. */
void
removeDir(const std::string &dir)
{
    for (const std::string &f : listDir(dir))
        std::remove((dir + "/" + f).c_str());
    ::rmdir(dir.c_str());
}

/** An empty checkpoint directory under gtest's temp root. */
std::string
freshDir(const char *name)
{
    const std::string dir = tempPath(name);
    removeDir(dir);
    EXPECT_TRUE(ensureDir(dir));
    return dir;
}

// ---------------------------------------------------------------- CRC32

TEST(Crc32, KnownAnswer)
{
    // The standard CRC-32 check value (reflected 0xEDB88320 poly).
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
}

TEST(Crc32, SeedChainsAcrossFragments)
{
    const char *msg = "streaming checksums compose";
    const std::size_t n = 27;
    const std::uint32_t whole = crc32(msg, n);
    for (std::size_t split = 0; split <= n; ++split) {
        const std::uint32_t part = crc32(msg, split);
        EXPECT_EQ(crc32(msg + split, n - split, part), whole);
    }
}

TEST(Crc32, DetectsSingleBitCorruption)
{
    std::vector<float> buf(64, 1.25f);
    const std::uint32_t clean = crc32(buf.data(), buf.size() * 4);
    buf[17] = std::nextafter(buf[17], 2.0f);
    EXPECT_NE(crc32(buf.data(), buf.size() * 4), clean);
}

// -------------------------------------------------------- fault injector

TEST(FaultInjector, DeterministicAcrossThreadCounts)
{
    auto makeFaulted = [] {
        sim::FaultConfig cfg;
        cfg.seed = 0xBEEF;
        cfg.bitFlipsPerMbit = 5000.0;
        cfg.burstLength = 3;
        sim::FaultInjector inj(cfg);
        Tensor t({4096});
        t.fill(1.0f);
        for (int pass = 0; pass < 10; ++pass)
            inj.corrupt(t, sim::FaultSite::MasterWeights);
        return std::make_pair(t, inj.stats().get("faults.bitsFlipped"));
    };
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(1);
    const auto [serial, flippedSerial] = makeFaulted();
    pool.setNumThreads(4);
    const auto [parallel, flippedParallel] = makeFaulted();
    pool.setNumThreads(0);

    EXPECT_GT(flippedSerial, 0.0);
    EXPECT_EQ(flippedSerial, flippedParallel);
    // memcmp, not operator==: flips may have minted NaNs, and float
    // equality would reject bitwise-identical NaN payloads.
    ASSERT_EQ(serial.numel(), parallel.numel());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.numel() * sizeof(float)),
              0);
}

TEST(FaultInjector, ZeroRateFlipsNothing)
{
    sim::FaultConfig cfg;
    cfg.bitFlipsPerMbit = 0.0;
    sim::FaultInjector inj(cfg);
    Tensor t({1024});
    t.fill(3.0f);
    EXPECT_EQ(inj.corrupt(t, sim::FaultSite::MasterWeights), 0u);
    EXPECT_EQ(inj.stats().get("faults.events"), 0.0);
}

TEST(FaultInjector, MaybeCorruptHonoursTargetGating)
{
    sim::FaultConfig cfg;
    cfg.bitFlipsPerMbit = 1e6; // flip a lot, when allowed
    cfg.targetMasterWeights = true;
    cfg.targetGradients = false;
    sim::FaultInjector inj(cfg);
    Tensor t({256});
    t.fill(1.0f);
    EXPECT_EQ(inj.maybeCorrupt(t.data(), t.numel(),
                               sim::FaultSite::Gradients),
              0u);
    EXPECT_GT(inj.maybeCorrupt(t.data(), t.numel(),
                               sim::FaultSite::MasterWeights),
              0u);
    EXPECT_EQ(inj.stats().get("faults.site.gradients"), 0.0);
    EXPECT_GT(inj.stats().get("faults.site.masterWeights"), 0.0);
}

TEST(FaultInjector, BurstFlipsConsecutiveBits)
{
    sim::FaultConfig cfg;
    cfg.seed = 7;
    cfg.bitFlipsPerMbit = 30.0; // ~1 event on a 32 Kbit buffer
    cfg.burstLength = 8;
    sim::FaultInjector inj(cfg);
    Tensor t({1024});
    t.fill(0.0f);
    std::size_t flipped = 0;
    while (flipped == 0)
        flipped = inj.corrupt(t, sim::FaultSite::MasterWeights);
    // All-zero start: flipped bit count must match set bits.
    std::size_t setBits = 0;
    for (std::size_t i = 0; i < t.numel(); ++i) {
        std::uint32_t w;
        std::memcpy(&w, &t.data()[i], 4);
        setBits += static_cast<std::size_t>(__builtin_popcount(w));
    }
    EXPECT_EQ(setBits, flipped);
}

// ---------------------------------------------------------- kill plans

TEST(KillSchedule, PlansExactlyKillsWithOneInsideAWrite)
{
    // cq_crashtest's defaults and its ctest sweep (12 trials), plus
    // a single kill and no requested mid-write share: every plan has
    // exactly `kills` points, at least one of them mid-write, and
    // every kill leaves the resumed run work to do.
    for (const std::size_t kills : {1, 12, 20}) {
        for (const double frac : {0.0, 0.25}) {
            sim::KillScheduleConfig cfg;
            cfg.kills = kills;
            cfg.midWriteFraction = frac;
            const auto plan = sim::planKillPoints(cfg);
            ASSERT_EQ(plan.size(), kills);
            std::size_t midWrites = 0;
            for (const sim::KillPoint &p : plan) {
                EXPECT_GE(p.step, 1u);
                EXPECT_LT(p.step, cfg.maxStep);
                if (p.midWrite) {
                    ++midWrites;
                    EXPECT_LT(p.writeBytes, cfg.maxWriteBytes);
                }
            }
            EXPECT_GE(midWrites, 1u) << kills << " kills";
        }
    }
}

// ------------------------------------------------------------ guardrails

TEST(Guardrails, ScanTensorCensus)
{
    Tensor t({1 << 16});
    t.fill(0.5f);
    t[100] = std::numeric_limits<float>::quiet_NaN();
    t[1 << 15] = std::numeric_limits<float>::infinity();
    t[60000] = -std::numeric_limits<float>::infinity();
    t[7] = -123.0f;
    const auto h = nn::guard::scanTensor(t);
    EXPECT_EQ(h.nanCount, 1u);
    EXPECT_EQ(h.infCount, 2u);
    EXPECT_FLOAT_EQ(h.maxAbs, 123.0f);
    EXPECT_FALSE(h.finite());
}

TEST(Guardrails, ScanTensorDeterministicAcrossThreadCounts)
{
    Rng rng(99);
    Tensor t({100000});
    t.fillGaussian(rng, 0.0f, 10.0f);
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(1);
    const auto a = nn::guard::scanTensor(t);
    pool.setNumThreads(4);
    const auto b = nn::guard::scanTensor(t);
    pool.setNumThreads(0);
    EXPECT_EQ(a.nanCount, b.nanCount);
    EXPECT_EQ(a.infCount, b.infCount);
    EXPECT_EQ(a.maxAbs, b.maxAbs); // bitwise float equality
}

TEST(Guardrails, WatchdogTripsOnDivergence)
{
    nn::guard::LossWatchdog dog;
    // Healthy descent through the five warm-up losses.
    static_assert(nn::guard::kWatchdogWarmupSteps == 5);
    for (double loss : {2.0, 1.8, 1.6, 1.5, 1.45})
        EXPECT_FALSE(dog.observe(loss));
    // A 10x spike over the EMA trips after warmup...
    EXPECT_TRUE(dog.observe(50.0));
    // ...and must not have polluted the baseline.
    EXPECT_FALSE(dog.observe(1.4));
    EXPECT_TRUE(dog.observe(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_TRUE(dog.observe(std::numeric_limits<double>::infinity()));
    EXPECT_TRUE(dog.observe(nn::guard::kAbsoluteLossLimit * 2.0));
}

TEST(Guardrails, WatchdogIgnoresNoiseBelowLossFloor)
{
    // A converged run: the EMA settles near 1e-3.
    nn::guard::LossWatchdog dog;
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(dog.observe(1e-3));
    EXPECT_NEAR(dog.ema(), 1e-3, 1e-12);
    // Minibatch noise 180x the EMA stays under the one-nat floor...
    EXPECT_FALSE(dog.observe(0.18));
    // ...while a real divergence still trips.
    EXPECT_TRUE(dog.observe(50.0));
    EXPECT_TRUE(dog.observe(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_TRUE(dog.observe(std::numeric_limits<double>::infinity()));
    EXPECT_TRUE(dog.observe(2e6));
}

TEST(Guardrails, WatchdogSpikeCheckWaitsForWarmup)
{
    nn::guard::LossWatchdog dog;
    EXPECT_FALSE(dog.observe(1.0));
    // Big but finite jumps during warmup are tolerated (initialization
    // noise), as long as they stay under the absolute limit.
    EXPECT_FALSE(dog.observe(100.0));
    EXPECT_FALSE(dog.observe(1.0));
}

TEST(Guardrails, CircuitBreakerCooldownAndRearm)
{
    nn::guard::CircuitBreakerBank bank(3);
    EXPECT_FALSE(bank.open(0));
    bank.trip(1);
    EXPECT_FALSE(bank.open(0));
    EXPECT_TRUE(bank.open(1));
    EXPECT_FALSE(bank.open(2));
    for (std::size_t i = 1; i < nn::guard::kBreakerCooldown; ++i) {
        bank.countDown();
        EXPECT_TRUE(bank.open(1)) << i << " healthy steps";
    }
    bank.countDown();
    EXPECT_FALSE(bank.open(1)); // re-armed
    bank.tripAll();
    for (std::size_t layer = 0; layer < 3; ++layer)
        EXPECT_TRUE(bank.open(layer)) << "layer " << layer;
    EXPECT_FALSE(bank.open(3)); // out of range: never open
}

TEST(Guardrails, MonitorCountsAndTrips)
{
    nn::guard::HealthMonitor mon(2);
    Tensor bad({8});
    bad.fill(1.0f);
    bad[3] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(mon.checkTensor(bad, "activation", 1));
    EXPECT_EQ(mon.stats().get("guard.nansCaught"), 1.0);
    EXPECT_EQ(mon.stats().get("guard.unhealthy.activation"), 1.0);
    mon.tripLayer(1);
    EXPECT_TRUE(mon.breakers().open(1));
    EXPECT_FALSE(mon.breakers().open(0));

    Tensor good({8});
    good.fill(0.25f);
    EXPECT_FALSE(mon.checkTensor(good, "activation", 0));
}

// ------------------------------------------------------------ checkpoint

TrainerSnapshot
makeSnapshot()
{
    TrainerSnapshot snap;
    snap.step = 41;
    snap.optimizerStep = 40;
    Rng stream(123);
    stream.gaussian(); // leave a cached Box-Muller half in the state
    snap.hasRngState = true;
    snap.rngState = stream.state();
    Rng rng(5);
    for (std::size_t i = 0; i < 3; ++i) {
        Tensor w({4, 5}), m({4, 5}), v({4, 5});
        w.fillGaussian(rng, 0.0f, 1.0f);
        m.fillGaussian(rng, 0.0f, 0.1f);
        v.fillGaussian(rng, 0.0f, 0.01f);
        snap.masters.push_back(w);
        snap.m.push_back(m);
        snap.v.push_back(v);
    }
    return snap;
}

TEST(Checkpoint, RoundTripsBitwise)
{
    const std::string path = tempPath("ckpt_roundtrip.bin");
    const TrainerSnapshot snap = makeSnapshot();
    ASSERT_EQ(nn::guard::writeCheckpointEx(path, snap),
              nn::guard::CheckpointWriteResult::Ok);

    TrainerSnapshot back;
    ASSERT_EQ(nn::guard::readCheckpoint(path, back),
              CheckpointLoadResult::Ok);
    EXPECT_EQ(back.step, snap.step);
    EXPECT_EQ(back.optimizerStep, snap.optimizerStep);
    ASSERT_EQ(back.masters.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(back.masters[i] == snap.masters[i]);
        EXPECT_TRUE(back.m[i] == snap.m[i]);
        EXPECT_TRUE(back.v[i] == snap.v[i]);
    }
    // The restored Rng stream must continue bit-exactly (including the
    // cached Box-Muller half).
    ASSERT_TRUE(back.hasRngState);
    Rng original(123);
    original.gaussian();
    Rng restored(1);
    restored.setState(back.rngState);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(original.next(), restored.next());
    EXPECT_EQ(original.gaussian(), restored.gaussian());
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileClassified)
{
    TrainerSnapshot out;
    EXPECT_EQ(nn::guard::readCheckpoint(
                  tempPath("ckpt_never_written.bin"), out),
              CheckpointLoadResult::Missing);
}

TEST(Checkpoint, CorruptedTensorPayloadDetected)
{
    const std::string path = tempPath("ckpt_corrupt.bin");
    ASSERT_EQ(nn::guard::writeCheckpointEx(path, makeSnapshot()),
              nn::guard::CheckpointWriteResult::Ok);

    // Flip one byte deep in the tensor payload region.
    FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -37, SEEK_END);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);

    TrainerSnapshot out;
    EXPECT_EQ(nn::guard::readCheckpoint(path, out),
              CheckpointLoadResult::Corrupt);
    std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileDetected)
{
    const std::string path = tempPath("ckpt_truncated.bin");
    ASSERT_EQ(nn::guard::writeCheckpointEx(path, makeSnapshot()),
              nn::guard::CheckpointWriteResult::Ok);
    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long full = std::ftell(f);
    std::fclose(f);
    ASSERT_GT(full, 64);
    EXPECT_EQ(truncate(path.c_str(), full / 2), 0);

    TrainerSnapshot out;
    EXPECT_EQ(nn::guard::readCheckpoint(path, out),
              CheckpointLoadResult::Corrupt);
    std::remove(path.c_str());
}

TEST(Checkpoint, BadMagicDetected)
{
    const std::string path = tempPath("ckpt_magic.bin");
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTACKPT-and-some-trailing-bytes", f);
    std::fclose(f);
    TrainerSnapshot out;
    EXPECT_EQ(nn::guard::readCheckpoint(path, out),
              CheckpointLoadResult::Corrupt);
    std::remove(path.c_str());
}

// ------------------------------------------------------------ end-to-end

struct RunResult
{
    double finalLoss = 0.0;
    double accuracy = 0.0;
    std::size_t rollbacks = 0;
    double watchdogTrips = 0.0;
    double breakerTrips = 0.0;
    bool sawNonFinite = false;
};

/**
 * Train the spiral MLP for 150 steps, checkpointing into a fresh
 * directory @p ckptName when guarded. Faults (when @p faultRate > 0)
 * are injected into the master weights during steps 40..60 only, so
 * checkpoints from the early phase are clean and the run has time to
 * recover afterwards.
 */
RunResult
runSpiral(bool guardrails, double faultRate, const char *ckptName)
{
    const std::string ckpt = freshDir(ckptName);
    nn::SpiralDataset data(2, 0.1, 17);
    nn::Network net = nn::makeSpiralMlp(18);

    nn::QuantTrainerConfig cfg;
    cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(64);
    cfg.optimizer.kind = nn::OptimizerKind::Adam;
    cfg.optimizer.lr = 5e-3;
    cfg.resilience.enabled = guardrails;
    cfg.resilience.checkpointDir = guardrails ? ckpt : "";
    cfg.resilience.checkpointInterval = 10;
    nn::QuantTrainer trainer(net, cfg);

    sim::FaultConfig fcfg;
    fcfg.seed = 0xFA117;
    fcfg.bitFlipsPerMbit = faultRate;
    fcfg.burstLength = 2;
    fcfg.targetMasterWeights = true;
    sim::FaultInjector inj(fcfg);

    RunResult r;
    for (int i = 0; i < 150; ++i) {
        trainer.setFaultInjector(
            faultRate > 0.0 && i >= 40 && i < 60 ? &inj : nullptr);
        const auto b = data.sample(64);
        r.finalLoss = trainer.stepClassification(b.inputs, b.labels);
        if (!std::isfinite(r.finalLoss))
            r.sawNonFinite = true;
    }
    const auto eval = data.evalSet(256);
    r.accuracy = trainer.evalAccuracy(eval.inputs, eval.labels);
    r.rollbacks = trainer.rollbackCount();
    const StatGroup stats = trainer.resilienceStats();
    r.watchdogTrips = stats.get("guard.watchdogTrips");
    r.breakerTrips = stats.get("guard.breakerTrips");
    removeDir(ckpt);
    return r;
}

/** A fault rate high enough to corrupt exponent bits every burst. */
constexpr double kAggressiveRate = 4000.0;

TEST(Resilience, EndToEndRecoveryVsDivergence)
{
    // Clean run: the tolerance baseline.
    const RunResult clean = runSpiral(true, 0.0, "ckpt_e2e_clean");
    EXPECT_EQ(clean.rollbacks, 0u);
    EXPECT_GT(clean.accuracy, 0.88);

    // Faulted run with guardrails: trips must fire, rollbacks must
    // restore CRC-verified state, and the run must end close to clean.
    const RunResult guarded =
        runSpiral(true, kAggressiveRate, "ckpt_e2e_guarded");
    EXPECT_GT(guarded.breakerTrips + guarded.watchdogTrips, 0.0);
    EXPECT_GE(guarded.rollbacks, 1u);
    EXPECT_TRUE(std::isfinite(guarded.finalLoss));
    EXPECT_NEAR(guarded.finalLoss, clean.finalLoss, 0.25);
    EXPECT_GT(guarded.accuracy, clean.accuracy - 0.08);

    // Same faults, guardrails off: the run must visibly diverge —
    // non-finite losses or a final state far from the clean run.
    const RunResult bare =
        runSpiral(false, kAggressiveRate, "ckpt_e2e_bare");
    const bool diverged =
        bare.sawNonFinite || !std::isfinite(bare.finalLoss) ||
        bare.finalLoss > 10.0 * clean.finalLoss + 1.0 ||
        bare.accuracy < 0.75;
    EXPECT_TRUE(diverged)
        << "unguarded run: loss=" << bare.finalLoss
        << " acc=" << bare.accuracy;
}

TEST(Resilience, FaultedTrainingDeterministicAcrossThreadCounts)
{
    auto &pool = ThreadPool::instance();

    pool.setNumThreads(1);
    const RunResult serial =
        runSpiral(true, kAggressiveRate, "ckpt_thr1");
    pool.setNumThreads(4);
    const RunResult parallel =
        runSpiral(true, kAggressiveRate, "ckpt_thr4");
    pool.setNumThreads(0);

    // The whole faulted, guarded training run is bitwise reproducible:
    // identical loss, identical trip/rollback pattern, identical eval.
    EXPECT_EQ(serial.finalLoss, parallel.finalLoss);
    EXPECT_EQ(serial.accuracy, parallel.accuracy);
    EXPECT_EQ(serial.rollbacks, parallel.rollbacks);
    EXPECT_EQ(serial.watchdogTrips, parallel.watchdogTrips);
    EXPECT_EQ(serial.breakerTrips, parallel.breakerTrips);
}

TEST(Resilience, CheckpointNowWritesLoadableSnapshot)
{
    const std::string dir = freshDir("ckpt_now");
    nn::SpiralDataset data(2, 0.1, 17);
    nn::Network net = nn::makeSpiralMlp(18);
    nn::QuantTrainerConfig cfg;
    cfg.optimizer.kind = nn::OptimizerKind::Adam;
    cfg.resilience.enabled = true;
    cfg.resilience.checkpointDir = dir;
    nn::QuantTrainer trainer(net, cfg);
    for (int i = 0; i < 3; ++i) {
        const auto b = data.sample(32);
        trainer.stepClassification(b.inputs, b.labels);
    }
    ASSERT_TRUE(trainer.checkpointNow());
    nn::guard::CheckpointStoreConfig scfg;
    scfg.dir = dir;
    TrainerSnapshot snap;
    ASSERT_EQ(nn::guard::CheckpointStore(scfg).loadLatest(snap).result,
              CheckpointLoadResult::Ok);
    EXPECT_EQ(snap.step, 3u);
    EXPECT_EQ(snap.optimizerStep, 3u);
    EXPECT_EQ(snap.masters.size(), 4u); // fc1 w/b + fc2 w/b
    removeDir(dir);
}

TEST(Resilience, DisabledResilienceMatchesLegacyTrainer)
{
    // With resilience off (the default) the trainer must behave
    // exactly as before the subsystem existed.
    auto run = [](bool enabled) {
        nn::SpiralDataset data(2, 0.1, 17);
        nn::Network net = nn::makeSpiralMlp(18);
        nn::QuantTrainerConfig cfg;
        cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(64);
        cfg.optimizer.kind = nn::OptimizerKind::Adam;
        cfg.optimizer.lr = 5e-3;
        cfg.resilience.enabled = enabled;
        nn::QuantTrainer trainer(net, cfg);
        double loss = 0.0;
        for (int i = 0; i < 40; ++i) {
            const auto b = data.sample(64);
            loss = trainer.stepClassification(b.inputs, b.labels);
        }
        return loss;
    };
    // A healthy run takes the same numerical path with monitoring on.
    EXPECT_EQ(run(false), run(true));
}

} // namespace
} // namespace cq
