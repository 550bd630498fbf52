/**
 * @file
 * Tests of the benchmark's own code: statistics, output checks and
 * seeded input generation.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "perfbench.h"

namespace cq::perfbench {
namespace {

TEST(Percentile, KnownInputs)
{
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.1);
    EXPECT_DOUBLE_EQ(percentile({7}, 90), 7.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

SimProgram
tinyProgram(const arch::CambriconQConfig &cfg)
{
    const compiler::WorkloadIR ir = compiler::buildTinyCnn();
    return SimProgram{"tiny/" + cfg.name, cfg,
                      compiler::generateProgram(ir, cfg, {})};
}

TEST(SimCheck, PerturbedReferenceIsAFailedOperation)
{
    const std::vector<SimProgram> progs = {
        tinyProgram(arch::CambriconQConfig::edge())};
    arch::Accelerator acc(progs[0].config);
    ReferenceTable refs;
    refs[progs[0].name] = simOutputs(acc.run(progs[0].program));

    EXPECT_TRUE(simulatePass(progs, {0}, refs, 1, false)[0]
                    .matchesReference);
    const SimOutputs good = refs[progs[0].name];
    for (int field = 0; field < 5; ++field) {
        SimOutputs bad = good;
        switch (field) {
          case 0: bad.totalTicks += 1; break;
          case 1: bad.dramReads += 1; break;
          case 2: bad.dramWrites += 1; break;
          case 3: bad.busBytes += 1; break;
          case 4: bad.energyPj += 1e-3; break;
        }
        refs[progs[0].name] = bad;
        EXPECT_FALSE(simulatePass(progs, {0}, refs, 1, false)[0]
                         .matchesReference)
            << "field " << field;
    }
    refs.clear();
    EXPECT_FALSE(simulatePass(progs, {0}, refs, 1, false)[0]
                     .matchesReference);
}

TEST(SimCheck, TracedReplayReproducesBurstCount)
{
    const std::vector<SimProgram> progs = {
        tinyProgram(arch::CambriconQConfig::edge()),
        tinyProgram(arch::CambriconQConfig::throughputT())};
    const auto recs = simulatePass(progs, {1, 0}, {}, 2, true);
    for (const SimRunRecord &rec : recs) {
        EXPECT_EQ(rec.replayBursts,
                  rec.outputs.dramReads + rec.outputs.dramWrites);
        EXPECT_GT(rec.replayCalls, 0u);
    }
}

TEST(SimCheck, ReferencesRoundTripExactly)
{
    ReferenceTable table;
    table["a/b"] = SimOutputs{123456789, 42, 7, 3200, 0.1 + 0.2};
    const std::string path =
        ::testing::TempDir() + "perfbench_refs_roundtrip.json";
    ASSERT_TRUE(writeReferences(path, table));
    ReferenceTable back;
    std::string err;
    ASSERT_TRUE(loadReferences(path, back, &err)) << err;
    EXPECT_EQ(back, table);

    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"programs\": {\"a/b\": {\"total_ticks\": 1}}}", f);
    std::fclose(f);
    EXPECT_FALSE(loadReferences(path, back, &err));
    EXPECT_NE(err.find("dram_reads"), std::string::npos) << err;
}

TEST(Train, SameSeedGivesIdenticalOutputs)
{
    const TrainInputs in = makeTrainInputs(7, 4);
    const TrainRun a = trainOnce(in, false);
    const TrainRun b = trainOnce(makeTrainInputs(7, 4), false);
    // The split step is documented as bitwise equal to the fused one.
    const TrainRun split = trainOnce(in, true);
    EXPECT_EQ(a.losses, b.losses);
    EXPECT_EQ(a.losses, split.losses);
    EXPECT_EQ(a.evalAccuracy, b.evalAccuracy);
    EXPECT_EQ(finalLoss(a.losses), finalLoss(split.losses));
}

TEST(Train, DifferentSeedGivesDifferentBatches)
{
    const TrainInputs a = makeTrainInputs(7, 2);
    const TrainInputs b = makeTrainInputs(8, 2);
    EXPECT_NE(a.batches[0].inputs.vec(), b.batches[0].inputs.vec());
    EXPECT_NE(a.initSeed, b.initSeed);
}

TEST(Result, FailedOperationsMakeTheRunIncorrect)
{
    RunResult r;
    EXPECT_FALSE(r.correct()); // nothing attempted
    r.attempted = 3;
    EXPECT_TRUE(r.correct());
    r.failed = 1;
    EXPECT_FALSE(r.correct());
    r.set("sim_s", 1.5, "s");
    EXPECT_EQ(resultJson(r),
              "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
              "\"metrics\": {\"sim_s\": {\"value\": 1.5, \"unit\": "
              "\"s\"}}}");
}

} // namespace
} // namespace cq::perfbench
