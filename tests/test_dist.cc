/**
 * @file
 * Multi-chip data-parallel training tests: the LDQ wire codec, ring
 * all-reduce correctness and bitwise replica identity, interconnect
 * fault handling (corruption, drops, silence, stragglers,
 * cancellation), coordinator recovery semantics (survivors continue
 * from the last consistent step), elastic shrink/grow resume, thread
 * -width determinism, the multi-shard manifest, and a seeded chaos
 * sweep proving zero hangs and zero lost steps across fault mixes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/fileutil.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "dist/collective.h"
#include "dist/dist_harness.h"
#include "dist/dist_trainer.h"
#include "dist/interconnect.h"
#include "quant/block_quant.h"
#include "nn/guard/shard_manifest.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "obs/obs_server.h"
#include "obs/trace.h"

namespace cq {
namespace {

using dist::ChipFailure;
using dist::ChipFaultPlan;
using dist::CollectiveConfig;
using dist::CollectiveOutcome;
using dist::CollectiveStatus;
using dist::DistHarnessConfig;
using dist::DistHarnessResult;
using dist::Interconnect;
using dist::LinkConfig;
using dist::SendOutcome;

std::string
freshDistDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    for (const std::string &sub : listDir(dir)) {
        const std::string p = dir + "/" + sub;
        for (const std::string &f : listDir(p))
            std::remove((p + "/" + f).c_str());
        ::rmdir(p.c_str());
        std::remove(p.c_str());
    }
    ::rmdir(dir.c_str());
    EXPECT_TRUE(ensureDir(dir));
    return dir;
}

std::vector<float>
randomGrad(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> g(n);
    for (std::size_t i = 0; i < n; ++i)
        g[i] = static_cast<float>(rng.gaussian() * 0.1);
    return g;
}

// ------------------------------------------------------------- codec

TEST(LdqWire, RoundTripIsCloseAndDeterministic)
{
    const std::vector<float> x = randomGrad(517, 42);
    const auto bytes = dist::encodeLdqChunk(x.data(), x.size(), 64, 8);
    const auto again = dist::encodeLdqChunk(x.data(), x.size(), 64, 8);
    EXPECT_EQ(bytes, again);
    std::vector<float> back;
    ASSERT_TRUE(dist::decodeLdqChunk(bytes, back));
    ASSERT_EQ(back.size(), x.size());
    double maxAbs = 0.0, maxErr = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        maxAbs = std::max(maxAbs, std::abs(double(x[i])));
        maxErr = std::max(maxErr, std::abs(double(x[i]) - back[i]));
    }
    // 8-bit LDQ block quantization: error bounded by ~scale/2 per
    // block; a generous global bound suffices here.
    EXPECT_LT(maxErr, maxAbs / 50.0);
}

TEST(LdqWire, LevelsPackAtTheirBitWidth)
{
    // 32 B header, one 8 B scale per block, ceil(bits / 8) B a level.
    const std::vector<float> x = randomGrad(517, 43); // 9 blocks of 64
    EXPECT_EQ(dist::encodeLdqChunk(x.data(), x.size(), 64, 8).size(),
              32u + 9 * 8 + 517);
    EXPECT_EQ(dist::encodeLdqChunk(x.data(), x.size(), 64, 4).size(),
              32u + 9 * 8 + 517);
    EXPECT_EQ(dist::encodeLdqChunk(x.data(), x.size(), 64, 12).size(),
              32u + 9 * 8 + 517 * 2);
    EXPECT_EQ(dist::encodeLdqChunk(nullptr, 0, 64, 8).size(), 32u);
}

TEST(LdqWire, DecodeEqualsLdqFakeQuantizationBitwise)
{
    for (int bits : {4, 8, 12, 16}) {
        const std::vector<float> x = randomGrad(517, 44);
        std::vector<float> back;
        ASSERT_TRUE(dist::decodeLdqChunk(
            dist::encodeLdqChunk(x.data(), x.size(), 64, bits), back));
        const Tensor want = quant::fakeQuantizeLdq(
            Tensor({x.size()}, std::vector<float>(x)), 64, bits);
        ASSERT_EQ(back.size(), want.numel());
        EXPECT_EQ(0, std::memcmp(back.data(), want.data(),
                                 back.size() * sizeof(float)))
            << "bits " << bits;
    }
}

TEST(LdqWire, EmptyChunkRoundTrips)
{
    const auto bytes = dist::encodeLdqChunk(nullptr, 0, 64, 8);
    std::vector<float> back{1.0f};
    ASSERT_TRUE(dist::decodeLdqChunk(bytes, back));
    EXPECT_TRUE(back.empty());
}

TEST(LdqWire, MalformedBuffersAreRejectedNotCrashed)
{
    // 100 elements in 2 blocks: header [0, 32), scales [32, 48),
    // levels [48, 148).
    const std::vector<float> x = randomGrad(100, 7);
    auto bytes = dist::encodeLdqChunk(x.data(), x.size(), 64, 8);
    ASSERT_EQ(bytes.size(), 148u);
    std::vector<float> out;
    // Truncations inside and at the end of every section.
    for (std::size_t cut : {std::size_t(0), std::size_t(3),
                            std::size_t(15), std::size_t(31),
                            std::size_t(32), std::size_t(40),
                            std::size_t(48), bytes.size() - 1}) {
        std::vector<std::uint8_t> t(bytes.begin(),
                                    bytes.begin() + cut);
        EXPECT_FALSE(dist::decodeLdqChunk(t, out));
    }
    // Bad magic.
    auto bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(dist::decodeLdqChunk(bad, out));
    // Trailing junk.
    bad = bytes;
    bad.push_back(0);
    EXPECT_FALSE(dist::decodeLdqChunk(bad, out));
    // A width the body does not have: 9 bits need 2 B a level, and 17
    // is out of range.
    for (std::uint8_t bits : {9, 17}) {
        bad = bytes;
        bad[4] = bits;
        EXPECT_FALSE(dist::decodeLdqChunk(bad, out));
    }
}

// ------------------------------------------------------ interconnect

TEST(Interconnect, CleanLinkDeliversVerbatim)
{
    Interconnect net(4, LinkConfig{});
    const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
    std::vector<std::uint8_t> got;
    const SendOutcome s = net.send(0, 1, msg, got, nullptr);
    EXPECT_TRUE(s.delivered);
    EXPECT_EQ(got, msg);
    EXPECT_EQ(s.retransmits, 0u);
    EXPECT_GT(s.simUs, 0.0);
}

TEST(Interconnect, CorruptionIsDetectedAndRetransmitted)
{
    LinkConfig link;
    link.corruptFlipsPerMbit = 12.0; // ~1 flip per 3 messages
    link.maxRetransmits = 20;        // corruption, not eviction
    Interconnect net(2, link);
    const std::vector<std::uint8_t> msg(4096, 0xAB);
    std::vector<std::uint8_t> got;
    unsigned rejects = 0;
    for (int i = 0; i < 50; ++i) {
        const SendOutcome s = net.send(0, 1, msg, got, nullptr);
        ASSERT_TRUE(s.delivered);
        // CRC caught every corrupt frame: the delivered copy is
        // always intact, however many attempts it took.
        EXPECT_EQ(got, msg);
        rejects += s.crcRejects;
    }
    EXPECT_GT(rejects, 0u);
}

TEST(Interconnect, SilentPeerExhaustsBudget)
{
    Interconnect net(2, LinkConfig{});
    net.setSilent(0, true);
    const std::vector<std::uint8_t> msg{9};
    std::vector<std::uint8_t> got;
    const SendOutcome s = net.send(0, 1, msg, got, nullptr);
    EXPECT_FALSE(s.delivered);
    EXPECT_GT(s.simUs, 0.0); // timeouts were charged
}

TEST(Interconnect, CancelTokenPolledInsideWaitLoop)
{
    Interconnect net(2, LinkConfig{});
    net.setSilent(0, true); // would spin through the whole budget
    CancelToken cancel;
    cancel.cancel(CancelReason::Shutdown);
    const std::vector<std::uint8_t> msg{9};
    std::vector<std::uint8_t> got;
    const SendOutcome s = net.send(0, 1, msg, got, &cancel);
    EXPECT_TRUE(s.cancelled);
    EXPECT_FALSE(s.delivered);
    EXPECT_EQ(s.retransmits, 0u); // fired before the first attempt
}

// -------------------------------------------------------- all-reduce

TEST(RingAllReduce, MatchesSerialMeanAndIsBitwiseReplicated)
{
    const std::size_t R = 4, n = 1000;
    std::vector<std::vector<float>> grads;
    std::vector<float> serial(n, 0.0f);
    for (std::size_t c = 0; c < R; ++c) {
        grads.push_back(randomGrad(n, 100 + c));
        // Pre-weighted equal shards: weight 1/R each.
        for (std::size_t i = 0; i < n; ++i) {
            grads[c][i] /= static_cast<float>(R);
            serial[i] += grads[c][i];
        }
    }
    std::vector<std::vector<float> *> ptrs;
    std::vector<std::size_t> ring;
    for (std::size_t c = 0; c < R; ++c) {
        ptrs.push_back(&grads[c]);
        ring.push_back(c);
    }
    Interconnect net(R, LinkConfig{});
    const CollectiveOutcome out =
        dist::ringAllReduceLdq(ptrs, ring, net, CollectiveConfig{});
    ASSERT_EQ(out.status, CollectiveStatus::Ok);
    EXPECT_GT(out.bytesOnWire, 0u);
    EXPECT_GT(out.fp32Bytes, out.bytesOnWire / 2); // compressed wire

    // Bitwise identical across replicas (the all-gather forwards one
    // owner-encoded byte stream).
    for (std::size_t c = 1; c < R; ++c)
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(grads[0][i], grads[c][i])
                << "replica " << c << " diverges at " << i;

    // Close to the exact FP32 sum (one quantize-dequantize per hop).
    double maxAbs = 0.0, maxErr = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        maxAbs = std::max(maxAbs, std::abs(double(serial[i])));
        maxErr =
            std::max(maxErr, std::abs(double(serial[i]) - grads[0][i]));
    }
    EXPECT_LT(maxErr, std::max(1e-6, maxAbs / 10.0));
}

TEST(RingAllReduce, CorruptedLinksStillProduceIdenticalReplicas)
{
    const std::size_t R = 3, n = 700;
    // Two runs with byte-identical inputs: one clean link, one noisy
    // link. CRC + retransmit must make the results bitwise equal.
    std::vector<std::vector<float>> a, b;
    for (std::size_t c = 0; c < R; ++c) {
        a.push_back(randomGrad(n, 300 + c));
        b.push_back(a.back());
    }
    const auto run = [&](std::vector<std::vector<float>> &g,
                         double flips) {
        std::vector<std::vector<float> *> ptrs;
        std::vector<std::size_t> ring;
        for (std::size_t c = 0; c < R; ++c) {
            ptrs.push_back(&g[c]);
            ring.push_back(c);
        }
        LinkConfig link;
        link.corruptFlipsPerMbit = flips;
        link.maxRetransmits = 20;
        CollectiveConfig cc;
        cc.deadlineUs = 0.0; // retransmits may be slow; no deadline
        Interconnect net(R, link);
        return dist::ringAllReduceLdq(ptrs, ring, net, cc);
    };
    ASSERT_EQ(run(a, 0.0).status, CollectiveStatus::Ok);
    const CollectiveOutcome noisy = run(b, 150.0);
    ASSERT_EQ(noisy.status, CollectiveStatus::Ok);
    EXPECT_GT(noisy.retransmits, 0u);
    for (std::size_t c = 0; c < R; ++c)
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(a[c][i], b[c][i]);
}

TEST(RingAllReduce, TotalDropClassifiesSenderFailed)
{
    const std::size_t R = 3, n = 64;
    std::vector<std::vector<float>> grads;
    for (std::size_t c = 0; c < R; ++c)
        grads.push_back(randomGrad(n, c));
    std::vector<std::vector<float> *> ptrs;
    std::vector<std::size_t> ring;
    for (std::size_t c = 0; c < R; ++c) {
        ptrs.push_back(&grads[c]);
        ring.push_back(c);
    }
    LinkConfig link;
    link.dropProb = 1.0;
    Interconnect net(R, link);
    CollectiveConfig cc;
    cc.deadlineUs = 0.0;
    const CollectiveOutcome out =
        dist::ringAllReduceLdq(ptrs, ring, net, cc);
    ASSERT_EQ(out.status, CollectiveStatus::ChipFailed);
    ASSERT_EQ(out.failed.size(), 1u);
    EXPECT_STREQ(out.failureKind, "silent");
}

// ------------------------------------------------------- coordinator

DistHarnessConfig
baseConfig(std::uint64_t seed, std::size_t chips, std::uint64_t steps)
{
    DistHarnessConfig cfg;
    cfg.seed = seed;
    cfg.chips = chips;
    cfg.steps = steps;
    cfg.globalBatch = 32;
    return cfg;
}

TEST(DistTrainer, FaultFreeRunIsReplicatedAndLearns)
{
    const DistHarnessResult r =
        dist::runDistHarness(baseConfig(11, 4, 150));
    EXPECT_EQ(r.train.stepsCompleted, 150u);
    EXPECT_EQ(r.train.survivors, 4u);
    EXPECT_TRUE(r.train.failures.empty());
    EXPECT_TRUE(r.train.replicasIdentical);
    EXPECT_GT(r.accuracy, 0.85);
    EXPECT_GT(r.train.bytesOnWire, 0u);
}

TEST(DistTrainer, DeterministicAcrossRunsAndThreadWidths)
{
    const DistHarnessResult a =
        dist::runDistHarness(baseConfig(23, 4, 30));
    const DistHarnessResult b =
        dist::runDistHarness(baseConfig(23, 4, 30));
    EXPECT_EQ(a.train.mastersCrc, b.train.mastersCrc);

    // CQ_THREADS invariance: cap the pool width to 1 and to 4 — the
    // bitwise result must not move (ISSUE acceptance).
    std::uint32_t crc1 = 0, crc4 = 0;
    {
        CallerWidthCapScope cap(1);
        crc1 = dist::runDistHarness(baseConfig(23, 4, 30))
                   .train.mastersCrc;
    }
    {
        CallerWidthCapScope cap(4);
        crc4 = dist::runDistHarness(baseConfig(23, 4, 30))
                   .train.mastersCrc;
    }
    EXPECT_EQ(crc1, a.train.mastersCrc);
    EXPECT_EQ(crc4, a.train.mastersCrc);
}

TEST(DistTrainer, NoisyWireTrainsBitwiseIdenticalToCleanWire)
{
    DistHarnessConfig clean = baseConfig(31, 3, 25);
    DistHarnessConfig noisy = clean;
    noisy.link.corruptFlipsPerMbit = 50.0;
    noisy.collective.deadlineUs = 0.0; // retransmits are not failures
    const DistHarnessResult a = dist::runDistHarness(clean);
    const DistHarnessResult b = dist::runDistHarness(noisy);
    EXPECT_GT(b.train.retransmits, 0u);
    EXPECT_TRUE(b.train.failures.empty());
    // CRC'd retransmission makes corruption invisible to training.
    EXPECT_EQ(a.train.mastersCrc, b.train.mastersCrc);
}

TEST(DistTrainer, CrashMidRunSurvivorsFinishAndStayAccurate)
{
    DistHarnessConfig cfg = baseConfig(47, 4, 150);
    cfg.faults.resize(4);
    cfg.faults[2].crashAtStep = 50;
    const DistHarnessResult r = dist::runDistHarness(cfg);
    EXPECT_EQ(r.train.stepsCompleted, 150u); // no accepted step lost
    EXPECT_EQ(r.train.survivors, 3u);
    ASSERT_EQ(r.train.failures.size(), 1u);
    EXPECT_EQ(r.train.failures[0].chip, 2u);
    EXPECT_EQ(r.train.failures[0].kind, ChipFailure::Crash);
    EXPECT_TRUE(r.train.replicasIdentical);

    const DistHarnessResult clean =
        dist::runDistHarness(baseConfig(47, 4, 150));
    EXPECT_GT(r.accuracy, 0.8);
    EXPECT_NEAR(r.accuracy, clean.accuracy, 0.08);
}

TEST(DistTrainer, HangMidCollectiveIsClassifiedSilentAndEvicted)
{
    DistHarnessConfig cfg = baseConfig(53, 4, 150);
    cfg.faults.resize(4);
    cfg.faults[1].hangAtStep = 60;
    const DistHarnessResult r = dist::runDistHarness(cfg);
    EXPECT_EQ(r.train.stepsCompleted, 150u);
    EXPECT_EQ(r.train.survivors, 3u);
    ASSERT_EQ(r.train.failures.size(), 1u);
    EXPECT_EQ(r.train.failures[0].chip, 1u);
    EXPECT_EQ(r.train.failures[0].kind, ChipFailure::Silent);
    EXPECT_GE(r.train.stepsRetried, 1u);
    EXPECT_TRUE(r.train.replicasIdentical);
    EXPECT_GT(r.accuracy, 0.8);
}

TEST(DistTrainer, PersistentStragglerIsEvictedByDeadline)
{
    DistHarnessConfig cfg = baseConfig(59, 4, 150);
    cfg.faults.resize(4);
    cfg.faults[3].stragglerFromStep = 50;
    const DistHarnessResult r = dist::runDistHarness(cfg);
    EXPECT_EQ(r.train.stepsCompleted, 150u);
    EXPECT_EQ(r.train.survivors, 3u);
    ASSERT_EQ(r.train.failures.size(), 1u);
    EXPECT_EQ(r.train.failures[0].chip, 3u);
    EXPECT_EQ(r.train.failures[0].kind, ChipFailure::Straggler);
    EXPECT_TRUE(r.train.replicasIdentical);
    EXPECT_GT(r.accuracy, 0.8);
}

TEST(DistTrainer, TwoChipLossDegradesToSingleSurvivor)
{
    DistHarnessConfig cfg = baseConfig(61, 3, 150);
    cfg.faults.resize(3);
    cfg.faults[0].crashAtStep = 20;
    cfg.faults[2].hangAtStep = 70;
    const DistHarnessResult r = dist::runDistHarness(cfg);
    // The last chip standing trains solo (ring of one: no wire).
    EXPECT_EQ(r.train.stepsCompleted, 150u);
    EXPECT_EQ(r.train.survivors, 1u);
    EXPECT_EQ(r.train.failures.size(), 2u);
    EXPECT_TRUE(r.train.replicasIdentical);
    EXPECT_GT(r.accuracy, 0.75);
}

TEST(DistTrainer, PreCancelledTokenStopsBeforeAnyStep)
{
    CancelToken cancel;
    cancel.cancel(CancelReason::User);
    DistHarnessConfig cfg = baseConfig(67, 2, 50);
    cfg.cancel = &cancel;
    const DistHarnessResult r = dist::runDistHarness(cfg);
    EXPECT_TRUE(r.train.cancelled);
    EXPECT_EQ(r.train.stepsCompleted, 0u);
}

// ------------------------------------------------- elastic resume

TEST(DistTrainer, ShrinkResumeEightToFourConverges)
{
    const std::string root = freshDistDir("dist_shrink");
    DistHarnessConfig first = baseConfig(71, 8, 60);
    first.ckptRoot = root;
    first.ckptEvery = 30;
    const DistHarnessResult a = dist::runDistHarness(first);
    EXPECT_EQ(a.train.stepsCompleted, 60u);

    DistHarnessConfig second = baseConfig(71, 4, 150);
    second.ckptRoot = root;
    second.resume = true;
    const DistHarnessResult b = dist::runDistHarness(second);
    EXPECT_TRUE(b.train.resumed);
    EXPECT_EQ(b.train.resumedStep, 60u);
    EXPECT_EQ(b.train.stepsCompleted, 150u);
    EXPECT_TRUE(b.train.replicasIdentical);

    // Convergence-equivalence: an uninterrupted fixed-count run on
    // the same seed reaches statistically equivalent accuracy (the
    // chunking changes with the chip count, so equivalence is in
    // accuracy, not bits).
    const DistHarnessResult clean =
        dist::runDistHarness(baseConfig(71, 4, 150));
    EXPECT_GT(b.accuracy, 0.8);
    EXPECT_NEAR(b.accuracy, clean.accuracy, 0.08);
}

TEST(DistTrainer, GrowResumeFourToEightConverges)
{
    const std::string root = freshDistDir("dist_grow");
    DistHarnessConfig first = baseConfig(73, 4, 60);
    first.ckptRoot = root;
    first.ckptEvery = 30;
    const DistHarnessResult a = dist::runDistHarness(first);
    EXPECT_EQ(a.train.stepsCompleted, 60u);

    DistHarnessConfig second = baseConfig(73, 8, 150);
    second.ckptRoot = root;
    second.resume = true;
    const DistHarnessResult b = dist::runDistHarness(second);
    EXPECT_TRUE(b.train.resumed);
    EXPECT_EQ(b.train.resumedStep, 60u);
    EXPECT_EQ(b.train.stepsCompleted, 150u);
    EXPECT_TRUE(b.train.replicasIdentical);
    EXPECT_GT(b.accuracy, 0.8);
}

TEST(DistTrainer, CheckpointWavePublishesShardManifest)
{
    const std::string root = freshDistDir("dist_manifest");
    DistHarnessConfig cfg = baseConfig(79, 3, 20);
    cfg.ckptRoot = root;
    cfg.ckptEvery = 10;
    dist::runDistHarness(cfg);
    nn::guard::ShardManifest m;
    ASSERT_TRUE(nn::guard::readShardManifest(root, m));
    EXPECT_EQ(m.chipCount, 3u);
    EXPECT_EQ(m.step, 20u);
    ASSERT_EQ(m.entries.size(), 3u);
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(m.entries[c].chip, c);
        EXPECT_EQ(m.entries[c].step, 20u);
        EXPECT_EQ(m.entries[c].dir, dist::chipDirName(c));
    }

    // A flipped byte in the body must fail the CRC.
    const std::string path = nn::guard::shardManifestPath(root);
    FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 18, SEEK_SET);
    const int ch = std::fgetc(f);
    std::fseek(f, 18, SEEK_SET);
    std::fputc(ch ^ 0x01, f);
    std::fclose(f);
    nn::guard::ShardManifest bad;
    EXPECT_FALSE(nn::guard::readShardManifest(root, bad));
}

// ------------------------------------------------------ chaos sweep

TEST(DistChaos, TwentyTrialsNoHangsNoLostSteps)
{
    // Seeded sweep over fault mixes on 4-chip runs. Guarantees under
    // test: every trial terminates (the whole stack is simulated
    // time — an infinite wait is impossible by construction), the
    // target step count is reached whenever at least one chip
    // survives, survivors hold bitwise-identical masters, and
    // recovery still learns.
    const int kTrials = 20;
    for (int trial = 0; trial < kTrials; ++trial) {
        Rng rng(9000 + static_cast<std::uint64_t>(trial) * 131);
        DistHarnessConfig cfg =
            baseConfig(1000 + static_cast<std::uint64_t>(trial), 4,
                       24);
        cfg.faults.resize(4);
        // One planned fault per trial, rotating kind and victim;
        // plus background wire noise on every third trial.
        const std::size_t victim = rng.below(4);
        const std::uint64_t at = 3 + rng.below(18);
        switch (trial % 3) {
          case 0: cfg.faults[victim].crashAtStep = at; break;
          case 1: cfg.faults[victim].hangAtStep = at; break;
          default: cfg.faults[victim].stragglerFromStep = at; break;
        }
        if (trial % 3 == 0) {
            cfg.link.corruptFlipsPerMbit = 50.0;
            cfg.link.dropProb = 0.01;
        }
        const DistHarnessResult r = dist::runDistHarness(cfg);
        ASSERT_EQ(r.train.stepsCompleted, 24u)
            << "trial " << trial << " lost accepted steps";
        ASSERT_GE(r.train.survivors, 3u) << "trial " << trial;
        ASSERT_EQ(r.train.failures.size(), 1u) << "trial " << trial;
        ASSERT_TRUE(r.train.replicasIdentical) << "trial " << trial;
    }
}

// ------------------------------------------------ live observability

TEST(DistObs, ScrapedRunMatchesDarkRunBitwiseAndEmitsChipTracks)
{
    const DistHarnessResult dark =
        dist::runDistHarness(baseConfig(91, 4, 30));
    ASSERT_EQ(dark.train.stepsCompleted, 30u);
    ASSERT_TRUE(dark.train.replicasIdentical);

    auto &session = obs::TraceSession::instance();
    auto &hist = obs::MetricRegistry::instance().histogram(
        "dist.allreduce_latency_us");
    const std::uint64_t histBefore = hist.count();
    session.clear();
    session.setEnabled(true);
    obs::ObsServer server;
    obs::ObsServerConfig scfg; // ephemeral port
    ASSERT_TRUE(server.start(scfg));
    std::atomic<bool> stopScrape{false};
    std::thread scraper([&] {
        const char *paths[] = {"/metrics", "/trace?last_ms=50"};
        int i = 0;
        while (!stopScrape.load()) {
            int status = 0;
            std::string body;
            obs::httpGet(server.port(), paths[i++ % 2], status, body,
                         1000);
            ::usleep(5000);
        }
    });
    const DistHarnessResult lit =
        dist::runDistHarness(baseConfig(91, 4, 30));
    stopScrape.store(true);
    scraper.join();
    const std::string json = session.chromeTraceJson();
    session.setEnabled(false);
    session.clear();
    server.stop();

    // A run scraped while training computes bitwise the same masters
    // as the dark one: the obs plane is output-only, even live.
    EXPECT_EQ(lit.train.mastersCrc, dark.train.mastersCrc);
    EXPECT_TRUE(lit.train.replicasIdentical);
    EXPECT_EQ(lit.train.stepsCompleted, 30u);

    // The trace renders the chips as parallel per-chip tracks (pid 3)
    // with attributed chip-step and all-reduce hop spans.
    EXPECT_NE(json.find("\"cambricon-q chips\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"chip-0\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"chip-3\"}"),
              std::string::npos);
    EXPECT_NE(json.find("dist.allreduce.hop"), std::string::npos);
    EXPECT_NE(json.find("dist.chip_step"), std::string::npos);

    // And the all-reduce latency histogram observed the run.
    EXPECT_GT(hist.count(), histBefore);
}

} // namespace
} // namespace cq
