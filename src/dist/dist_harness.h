/**
 * @file
 * Canonical multi-chip training leg: N spiral-MLP replicas under the
 * lock-step coordinator, with seeded fault plans and elastic
 * checkpoint/resume. This is the packaging every consumer shares —
 * tests, cqsim --chips and the scaleout_allreduce bench all run
 * exactly this leg, so a failure reproduces identically from any of
 * them given the same config.
 *
 * Each chip builds the SAME network (same init seed) and its own
 * QuantTrainer (HQT policy, Adam); the single shared SpiralDataset is
 * the global data stream — drawn once per step by the coordinator and
 * registered as every trainer's ResilienceConfig::dataRng, so each
 * chip's snapshot is self-contained and globally consistent.
 */

#ifndef CQ_DIST_DIST_HARNESS_H
#define CQ_DIST_DIST_HARNESS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "dist/dist_trainer.h"

namespace cq::dist {

/** Configuration for one multi-chip leg. */
struct DistHarnessConfig
{
    std::uint64_t seed = 7;
    /** Simulated chip count (>= 2). */
    std::size_t chips = 4;
    std::uint64_t steps = 60;
    std::size_t globalBatch = 32;
    LinkConfig link;
    CollectiveConfig collective;
    /** Per-chip fault plans (indexed by chip id). */
    std::vector<ChipFaultPlan> faults;
    /** Checkpoint root directory ("" = no checkpointing). */
    std::string ckptRoot;
    std::uint64_t ckptEvery = 0;
    /** Elastic resume from a previous leg's root before training. */
    bool resume = false;
    /** Root to resume from ("" = ckptRoot). */
    std::string resumeRoot;
    CancelToken *cancel = nullptr;
    /** Evaluation set size for the accuracy probe. */
    std::size_t evalSize = 256;
};

/** Run report: the coordinator's result plus an accuracy probe. */
struct DistHarnessResult
{
    DistTrainerResult train;
    /** Eval accuracy of the first survivor (quantized weights). */
    double accuracy = 0.0;
};

/** Run one leg to completion (or cancellation / total chip loss). */
DistHarnessResult runDistHarness(const DistHarnessConfig &config);

} // namespace cq::dist

#endif // CQ_DIST_DIST_HARNESS_H
