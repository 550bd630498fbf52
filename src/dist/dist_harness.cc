/**
 * @file
 * Implementation of the canonical multi-chip leg.
 */

#include "dist/dist_harness.h"

#include <memory>

#include "common/fileutil.h"
#include "common/logging.h"
#include "nn/datasets.h"
#include "nn/network.h"
#include "nn/quant_trainer.h"

namespace cq::dist {

DistHarnessResult
runDistHarness(const DistHarnessConfig &config)
{
    DistHarnessResult result;
    CQ_ASSERT_MSG(config.chips >= 2, "need >= 2 chips, got %zu",
                  config.chips);

    // One shared data stream; the coordinator draws from it once per
    // step and every trainer checkpoints its Rng state.
    nn::SpiralDataset data(2, 0.1, config.seed);

    std::vector<std::unique_ptr<nn::Network>> nets;
    std::vector<std::unique_ptr<nn::QuantTrainer>> trainers;
    std::vector<DistTrainer::Chip> chips;
    if (!config.ckptRoot.empty())
        ensureDir(config.ckptRoot);
    for (std::size_t c = 0; c < config.chips; ++c) {
        // Identical init on every chip (the replicated-state-machine
        // starting point): same seed, NOT seed + chip.
        nets.push_back(std::make_unique<nn::Network>(
            nn::makeSpiralMlp(config.seed + 1)));

        nn::QuantTrainerConfig cfg;
        cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(64);
        cfg.optimizer.kind = nn::OptimizerKind::Adam;
        cfg.optimizer.lr = 5e-3;
        cfg.resilience.enabled = true;
        if (!config.ckptRoot.empty()) {
            cfg.resilience.checkpointDir =
                config.ckptRoot + "/" + chipDirName(c);
        }
        // The coordinator owns checkpoint cadence (waves at step
        // boundaries, synchronous so the wave is globally consistent);
        // interval 0 disables the trainer's own auto-checkpointing.
        cfg.resilience.checkpointInterval = 0;
        cfg.resilience.asyncCheckpoint = false;
        cfg.resilience.handleSignals = false;
        cfg.resilience.dataRng = &data.rng();
        trainers.push_back(std::make_unique<nn::QuantTrainer>(
            *nets.back(), cfg));
        chips.push_back(
            DistTrainer::Chip{nets.back().get(), trainers.back().get()});
    }

    DistTrainerConfig dcfg;
    dcfg.globalBatch = config.globalBatch;
    dcfg.steps = config.steps;
    dcfg.link = config.link;
    dcfg.link.seed = config.link.seed ^ (config.seed << 8);
    dcfg.collective = config.collective;
    dcfg.faults = config.faults;
    dcfg.ckptRoot = config.ckptRoot;
    dcfg.ckptEvery = config.ckptEvery;
    dcfg.cancel = config.cancel;

    DistTrainer coordinator(
        std::move(chips),
        [&data](std::size_t batch) { return data.sample(batch); },
        dcfg);
    if (config.resume) {
        coordinator.resumeFrom(config.resumeRoot.empty()
                                   ? config.ckptRoot
                                   : config.resumeRoot);
    }
    result.train = coordinator.run();

    // Accuracy probe on the first survivor (all survivors are bitwise
    // identical, so any one of them is "the" model).
    for (std::size_t c = 0; c < config.chips; ++c) {
        bool failed = false;
        for (const ChipFailureEvent &e : result.train.failures)
            if (e.chip == c)
                failed = true;
        if (failed)
            continue;
        const nn::Batch eval = data.evalSet(config.evalSize);
        result.accuracy =
            trainers[c]->evalAccuracy(eval.inputs, eval.labels);
        break;
    }
    return result;
}

} // namespace cq::dist
