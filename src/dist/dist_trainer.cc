/**
 * @file
 * Implementation of the lock-step multi-chip coordinator.
 */

#include "dist/dist_trainer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/fileutil.h"
#include "common/logging.h"
#include "nn/guard/ckpt_store.h"
#include "nn/guard/shard_manifest.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cq::dist {

namespace {

/** Flatten every parameter gradient of @p chip into @p out, scaled
 *  by @p weight (shard_rows / global_batch pre-weighting). */
void
flattenGrads(const DistTrainer::Chip &chip, double weight,
             std::vector<float> &out)
{
    out.clear();
    for (nn::Param *p : chip.trainer->paramRefs()) {
        const float *g = p->grad.data();
        const std::size_t n = p->grad.numel();
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(static_cast<float>(g[i] * weight));
    }
}

/** Scatter the reduced flat gradient back into @p chip's params. */
void
unflattenGrads(const DistTrainer::Chip &chip,
               const std::vector<float> &flat)
{
    std::size_t off = 0;
    for (nn::Param *p : chip.trainer->paramRefs()) {
        const std::size_t n = p->grad.numel();
        CQ_ASSERT(off + n <= flat.size());
        std::memcpy(p->grad.data(), flat.data() + off,
                    n * sizeof(float));
        off += n;
    }
    CQ_ASSERT_MSG(off == flat.size(),
                  "flat gradient length mismatch: %zu vs %zu", off,
                  flat.size());
}

/** Contiguous row slice [lo, lo+rows) of a (B, D) batch. */
nn::Batch
sliceBatch(const nn::Batch &batch, std::size_t lo, std::size_t rows)
{
    const Shape &s = batch.inputs.shape();
    CQ_ASSERT(s.size() == 2 && lo + rows <= s[0]);
    const std::size_t d = s[1];
    nn::Batch out;
    out.inputs = Tensor({rows, d});
    std::memcpy(out.inputs.data(), batch.inputs.data() + lo * d,
                rows * d * sizeof(float));
    out.labels.assign(batch.labels.begin() +
                          static_cast<std::ptrdiff_t>(lo),
                      batch.labels.begin() +
                          static_cast<std::ptrdiff_t>(lo + rows));
    return out;
}

std::uint32_t
mastersCrcOf(const DistTrainer::Chip &chip)
{
    std::uint32_t crc = 0;
    for (nn::Param *p : chip.net->params())
        crc = crc32(p->value.data(), p->value.numel() * sizeof(float),
                    crc);
    return crc;
}

} // namespace

std::string
chipDirName(std::size_t chip)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "chip-%02zu", chip);
    return buf;
}

DistTrainer::DistTrainer(std::vector<Chip> chips, BatchFn sampleBatch,
                         DistTrainerConfig config)
    : chips_(std::move(chips)), sampleBatch_(std::move(sampleBatch)),
      config_(std::move(config)), net_(chips_.size(), config_.link),
      beats_(chips_.size())
{
    CQ_ASSERT_MSG(chips_.size() >= 2,
                  "DistTrainer needs >= 2 chips, got %zu",
                  chips_.size());
    for (const Chip &c : chips_)
        CQ_ASSERT(c.net != nullptr && c.trainer != nullptr);
}

std::uint64_t
DistTrainer::resumeFrom(const std::string &root)
{
    // Every snapshot is self-contained (masters + moments + step +
    // the shared data-stream Rng) and the replicas are bitwise
    // identical, so the single newest Ok generation across *any*
    // chip subdirectory is the whole global state — that is what
    // makes resume elastic in the chip count.
    nn::guard::ShardManifest manifest;
    if (nn::guard::readShardManifest(root, manifest)) {
        inform("dist: manifest at %s: %zu chips, step %llu", root.c_str(),
             manifest.chipCount,
             static_cast<unsigned long long>(manifest.step));
    }
    std::string bestDir;
    std::uint64_t bestStep = 0;
    bool found = false;
    std::vector<std::string> names = listDir(root);
    std::sort(names.begin(), names.end());
    for (const std::string &name : names) {
        if (name.rfind("chip-", 0) != 0)
            continue;
        nn::guard::CheckpointStoreConfig sc;
        sc.dir = root + "/" + name;
        nn::guard::CheckpointStore store(sc);
        nn::guard::TrainerSnapshot snap;
        const auto lo = store.loadLatest(snap);
        if (lo.result != nn::guard::CheckpointLoadResult::Ok)
            continue;
        if (!found || snap.step > bestStep) {
            found = true;
            bestStep = snap.step;
            bestDir = sc.dir;
        }
    }
    if (!found) {
        inform("dist: no usable shard snapshot under %s (cold start)",
             root.c_str());
        return 0;
    }
    for (Chip &c : chips_) {
        const auto ro = c.trainer->resumeFrom(bestDir);
        CQ_ASSERT_MSG(ro.resumed && ro.step == bestStep,
                      "shard resume diverged: step %llu vs %llu",
                      static_cast<unsigned long long>(ro.step),
                      static_cast<unsigned long long>(bestStep));
    }
    committed_ = bestStep;
    stats_.add("dist.resumes", 1.0);
    inform("dist: resumed %zu chips from %s at step %llu", chips_.size(),
         bestDir.c_str(), static_cast<unsigned long long>(bestStep));
    return bestStep;
}

void
DistTrainer::failChip(std::size_t chip, ChipFailure kind,
                      std::uint64_t step)
{
    if (beats_.failed(chip))
        return;
    beats_.markFailed(chip, kind, step);
    net_.setSilent(chip, true);
    stats_.add("dist.chip_failures", 1.0);
    stats_.add(std::string("dist.chip_failures.") +
                   chipFailureName(kind),
               1.0);
    obs::MetricRegistry::instance()
        .counter("dist.chip_failures")
        .inc();
    warn("dist: chip %zu classified %s at step %llu; rebalancing onto "
         "survivors",
         chip, chipFailureName(kind),
         static_cast<unsigned long long>(step));
}

void
DistTrainer::applyFaultPlans(std::uint64_t step)
{
    for (std::size_t c = 0;
         c < chips_.size() && c < config_.faults.size(); ++c) {
        const ChipFaultPlan &plan = config_.faults[c];
        if (beats_.failed(c))
            continue;
        if (plan.crashAtStep != 0 && step >= plan.crashAtStep) {
            // Died between steps: the heartbeat never arrives, so
            // the coordinator removes it before any work starts.
            failChip(c, ChipFailure::Crash, step);
            continue;
        }
        if (plan.hangAtStep != 0 && step >= plan.hangAtStep) {
            // Beats and computes, then its collective messages never
            // make the wire: classified mid-collective.
            net_.setSilent(c, true);
        }
        if (plan.stragglerFromStep != 0 &&
            step >= plan.stragglerFromStep) {
            net_.setSendDelay(c, plan.stragglerDelayUs);
        }
    }
}

void
DistTrainer::checkpointWave(std::uint64_t step)
{
    if (config_.ckptRoot.empty())
        return;
    CQ_TRACE_SCOPE("dist.ckpt_wave");
    nn::guard::ShardManifest manifest;
    manifest.step = step;
    const std::vector<std::size_t> alive = beats_.alive();
    manifest.chipCount = alive.size();
    for (std::size_t c : alive) {
        if (!chips_[c].trainer->checkpointNow()) {
            warn("dist: chip %zu checkpoint failed at step %llu "
                 "(streak %u)",
                 c, static_cast<unsigned long long>(step),
                 chips_[c].ckptFailStreak + 1);
            // A chip whose shard commits keep failing has lost its
            // local storage: evict it through the normal rebalance
            // path so the wave regains durability on the survivors.
            // Never evict the last chip — a cluster with no healthy
            // disk degrades to training without checkpoints instead
            // of not training at all.
            if (++chips_[c].ckptFailStreak >= kMaxCkptFailures &&
                beats_.alive().size() > 1) {
                failChip(c, ChipFailure::Storage, step);
            }
            continue;
        }
        chips_[c].ckptFailStreak = 0;
        nn::guard::ShardEntry e;
        e.chip = c;
        e.dir = chipDirName(c);
        e.step = step;
        std::vector<nn::guard::ManifestEntry> entries;
        if (chips_[c].trainer->checkpointStore() != nullptr &&
            chips_[c].trainer->checkpointStore()->readManifest(
                entries) &&
            !entries.empty()) {
            e.gen = entries.back().gen;
        }
        manifest.entries.push_back(std::move(e));
    }
    const auto res =
        nn::guard::writeShardManifest(config_.ckptRoot, manifest, {});
    if (res != nn::guard::CheckpointWriteResult::Ok) {
        warn("dist: shard manifest write failed (%s)",
             nn::guard::checkpointWriteResultName(res));
    }
    stats_.add("dist.ckpt_waves", 1.0);
}

DistTrainerResult
DistTrainer::run()
{
    DistTrainerResult result;
    result.resumed = committed_ > 0;
    result.resumedStep = committed_;

    auto &reg = obs::MetricRegistry::instance();
    obs::Gauge &chipsAliveGauge = reg.gauge("dist.chips_alive");
    obs::Gauge &stepGauge = reg.gauge("dist.step");
    obs::Histogram &allreduceLatency =
        reg.histogram("dist.allreduce_latency_us");
    reg.gauge("dist.chips_total")
        .set(static_cast<double>(chips_.size()));

    std::vector<std::vector<float>> flat(chips_.size());
    while (committed_ < config_.steps) {
        const std::uint64_t step = committed_ + 1;
        obs::setObsStep(step);
        CQ_TRACE_SCOPE("dist.step");
        if (config_.cancel != nullptr &&
            config_.cancel->cancelled()) {
            result.cancelled = true;
            break;
        }
        // Heartbeat window: planned crashes miss their beat here and
        // are removed before the step's work starts.
        applyFaultPlans(step);
        std::vector<std::size_t> alive = beats_.alive();
        if (alive.empty())
            break;
        chipsAliveGauge.set(static_cast<double>(alive.size()));
        for (std::size_t c : alive)
            beats_.beat(c, step);

        // ONE global draw per step, whatever the chip count: the
        // data stream is chip-count-invariant, which is what the
        // elastic-resume convergence guarantee rests on.
        const nn::Batch batch = sampleBatch_(config_.globalBatch);
        const std::size_t B = batch.labels.size();

        bool stepDone = false;
        while (!stepDone) {
            const std::size_t n = alive.size();
            CQ_ASSERT(n >= 1);
            // Contiguous row shards, remainder spread over the first
            // chips in ring order.
            std::vector<std::size_t> rows(n, B / n);
            for (std::size_t k = 0; k < B % n; ++k)
                ++rows[k];
            double lossSum = 0.0;
            std::size_t lo = 0;
            for (std::size_t k = 0; k < n; ++k) {
                const Chip &chip = chips_[alive[k]];
                const nn::Batch shard = sliceBatch(batch, lo, rows[k]);
                lo += rows[k];
                // Chip attribution: every span/telemetry record of
                // this shard's work lands on the chip's Perfetto
                // track.
                obs::ObsContextScope chipCtx(
                    static_cast<int>(alive[k]));
                CQ_TRACE_SCOPE("dist.chip_step");
                const double l =
                    chip.trainer->forwardBackwardClassification(
                        shard.inputs, shard.labels);
                lossSum += l * static_cast<double>(rows[k]);
                flattenGrads(chip,
                             static_cast<double>(rows[k]) /
                                 static_cast<double>(B),
                             flat[alive[k]]);
            }
            const double loss = lossSum / static_cast<double>(B);

            std::vector<std::vector<float> *> grads;
            grads.reserve(n);
            for (std::size_t c : alive)
                grads.push_back(&flat[c]);
            const std::uint64_t arStartNs =
                obs::detail::monotonicNowNs();
            const CollectiveOutcome co = ringAllReduceLdq(
                grads, alive, net_, config_.collective,
                config_.cancel);
            allreduceLatency.observe(
                static_cast<double>(obs::detail::monotonicNowNs() -
                                    arStartNs) /
                1000.0);
            result.retransmits += co.retransmits;
            result.fp32Bytes += co.fp32Bytes;

            if (co.status == CollectiveStatus::Cancelled) {
                for (std::size_t c : alive)
                    chips_[c].trainer->abandonStep();
                result.cancelled = true;
                break;
            }
            if (co.status == CollectiveStatus::ChipFailed) {
                const ChipFailure kind =
                    std::strcmp(co.failureKind, "straggler") == 0
                        ? ChipFailure::Straggler
                        : ChipFailure::Silent;
                for (std::size_t c : co.failed)
                    failChip(c, kind, step);
                // Undo the begun step on every survivor, rebalance
                // the *same* global batch, and redo: the run
                // continues from the last globally consistent step
                // and no committed step is lost.
                for (std::size_t c : alive)
                    if (!beats_.failed(c))
                        chips_[c].trainer->abandonStep();
                alive = beats_.alive();
                stats_.add("dist.steps_retried", 1.0);
                stats_.add("dist.rebalances", 1.0);
                ++result.stepsRetried;
                ++result.rebalances;
                if (alive.empty())
                    break;
                continue;
            }
            // Commit: every live replica installs the identical
            // reduced gradient and updates in lock step.
            for (std::size_t c : alive) {
                obs::ObsContextScope chipCtx(static_cast<int>(c));
                unflattenGrads(chips_[c], flat[c]);
                chips_[c].trainer->commitStep(loss);
            }
            ++committed_;
            stepGauge.set(static_cast<double>(committed_));
            stats_.add("dist.steps_committed", 1.0);
            result.finalLoss = loss;
            stepDone = true;
        }
        if (result.cancelled || beats_.alive().empty())
            break;
        if (config_.ckptEvery > 0 &&
            committed_ % config_.ckptEvery == 0) {
            checkpointWave(committed_);
        }
    }

    // Final wave: cancellation and clean completion both leave a
    // globally consistent checkpoint behind (mirroring the trainer's
    // SIGTERM behaviour).
    if (!config_.ckptRoot.empty() && committed_ > 0 &&
        !beats_.alive().empty()) {
        checkpointWave(committed_);
    }

    const std::vector<std::size_t> alive = beats_.alive();
    result.stepsCompleted = committed_;
    result.survivors = alive.size();
    result.failures = beats_.events();
    result.simUs = net_.totalSimUs();
    result.bytesOnWire = net_.totalBytesOnWire();
    if (!alive.empty()) {
        result.mastersCrc = mastersCrcOf(chips_[alive[0]]);
        result.replicasIdentical = true;
        for (std::size_t c : alive) {
            if (mastersCrcOf(chips_[c]) != result.mastersCrc)
                result.replicasIdentical = false;
        }
    }
    obs::MetricRegistry::instance()
        .counter("dist.steps_committed")
        .add(static_cast<double>(
            committed_ - result.resumedStep));
    return result;
}

} // namespace cq::dist
