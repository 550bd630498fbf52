/**
 * @file
 * Implementation of the quantized training loop.
 */

#include "nn/quant_trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/signal_flag.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cq::nn {

namespace {

/** RAII wall-clock accumulator for the telemetry phase breakdown.
 *  Observational only: the measured time never feeds back into
 *  training state. */
class PhaseTimer
{
  public:
    explicit PhaseTimer(double &acc_us)
        : acc_(acc_us), startNs_(obs::detail::monotonicNowNs())
    {
    }
    ~PhaseTimer()
    {
        acc_ += static_cast<double>(obs::detail::monotonicNowNs() -
                                    startNs_) /
                1000.0;
    }
    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    double &acc_;
    std::uint64_t startNs_;
};

} // namespace

QuantTrainer::QuantTrainer(Network &network, QuantTrainerConfig config)
    : network_(network),
      config_(std::move(config)),
      optimizer_(config_.optimizer)
{
    params_ = network_.params();
    optimizer_.attach(params_);
    masters_.reserve(params_.size());
    for (Param *p : params_)
        masters_.push_back(p->value);
    // params_ flattens layers in order; rebuild the same walk to tag
    // every parameter with its owning layer (the breaker granularity).
    layerOfParam_.reserve(params_.size());
    for (std::size_t li = 0; li < network_.size(); ++li)
        for (std::size_t k = 0;
             k < network_.layer(li).params().size(); ++k)
            layerOfParam_.push_back(li);
    CQ_ASSERT_MSG(layerOfParam_.size() == params_.size(),
                  "param/layer walk mismatch: %zu vs %zu",
                  layerOfParam_.size(), params_.size());

    const ResilienceConfig &r = config_.resilience;
    if (r.enabled) {
        monitor_ = std::make_unique<guard::HealthMonitor>(network_.size());
        if (!r.checkpointDir.empty()) {
            guard::CheckpointStoreConfig scfg;
            scfg.dir = r.checkpointDir;
            scfg.keep = r.checkpointKeep;
            scfg.write = r.writeOptions;
            store_ = std::make_unique<guard::CheckpointStore>(scfg);
            if (r.asyncCheckpoint) {
                asyncWriter_ =
                    std::make_unique<guard::AsyncCheckpointWriter>(
                        *store_);
            }
        }
        if (r.ecc.enabled) {
            masterEcc_.reserve(masters_.size());
            for (Tensor &master : masters_) {
                masterEcc_.emplace_back(master.numel());
                masterEcc_.back().encodeAll(master.data());
            }
        }
        // The scope config is prepared even when abft.enabled is
        // false: the unprotected bench arm still routes GEMMs through
        // the scope (verify off) so every arm draws the same
        // accumulator fault pattern from the shared injector.
        abftConfig_.verify = r.abft.enabled;
        abftConfig_.stats = &abftStats_;
        abftConfig_.corruptOutput = [this](Tensor &t) {
            if (faults_ != nullptr)
                faults_->maybeCorrupt(t.data(), t.numel(),
                                      sim::FaultSite::Accumulators);
        };
        // Transient-upset model: a retry recomputes a handful of rows
        // moments after the fault, so it draws no fresh full-tile
        // injection pass.
        abftConfig_.corruptRetries = false;
    }
}

bool
QuantTrainer::abftScopeActive() const
{
    if (!config_.resilience.enabled)
        return false;
    return config_.resilience.abft.enabled ||
           (faults_ != nullptr &&
            faults_->targets(sim::FaultSite::Accumulators));
}

void
QuantTrainer::correctMastersEcc()
{
    const std::size_t scrub_words =
        config_.resilience.ecc.scrubWordsPerStep;
    for (std::size_t i = 0; i < params_.size(); ++i) {
        float *data = masters_[i].data();
        dram::EccProtectedArray &ecc = masterEcc_[i];
        dram::EccProtectedArray::Report rep;
        if (scrub_words > 0) {
            rep = ecc.scrub(data, scrub_words);
            eccStats_.add("ecc.scrubbedWords",
                          static_cast<double>(rep.scanned));
        }
        // Demand path: the trainer reads every master this step, so
        // the x72 read pipeline decode-corrects the whole array.
        const auto demand = ecc.correctAll(data);
        rep.merge(demand);
        eccStats_.add("ecc.scannedWords",
                      static_cast<double>(demand.scanned));
        if (rep.corrected > 0)
            eccStats_.add("ecc.corrected",
                          static_cast<double>(rep.corrected));
        if (rep.uncorrectable > 0) {
            // Double-bit damage survives the decoder: discard the
            // step and recover through the checkpoint ladder.
            eccStats_.add("ecc.uncorrectable",
                          static_cast<double>(rep.uncorrectable));
            stepHealthy_ = false;
            monitor_->tripLayer(layerOfParam_[i]);
            monitor_->stats().add("guard.eccUncorrectable", 1.0);
            warn("ecc: %zu uncorrectable word(s) in master %zu "
                 "(layer %zu) at step %zu",
                 rep.uncorrectable, i, layerOfParam_[i], step_);
        }
    }
}

void
QuantTrainer::reencodeMastersEcc()
{
    for (std::size_t i = 0; i < params_.size(); ++i)
        masterEcc_[i].encodeAll(masters_[i].data());
}

void
QuantTrainer::loadQuantizedWeights()
{
    using quant::TensorRole;
    CQ_TRACE_SCOPE("trainer.quant");
    PhaseTimer timer(phaseQuantUs_);
    for (std::size_t i = 0; i < params_.size(); ++i) {
        // Masters hold the authoritative FP32 weights (DRAM side);
        // the network computes on the quantized copies the SQU would
        // produce while streaming weights into SB. A layer whose
        // circuit breaker is open gets the FP32 masters verbatim.
        const bool bypass =
            monitor_ != nullptr &&
            monitor_->breakers().open(layerOfParam_[i]);
        quant::PolicyApplyInfo applyInfo;
        quant::PolicyApplyInfo *info =
            telemetrySink_ != nullptr && !bypass ? &applyInfo
                                                 : nullptr;
        params_[i]->value =
            bypass ? masters_[i]
                   : quant::applyPolicy(masters_[i], config_.algorithm,
                                        TensorRole::Weight, info);
        if (info != nullptr) {
            auto &tally =
                stepFormats_[network_.layer(layerOfParam_[i]).name()];
            for (const auto &kv : applyInfo.bitsTally)
                tally[kv.first] += kv.second;
            stepRmseSum_ += applyInfo.rmse;
            stepRmseMax_ = std::max(stepRmseMax_, applyInfo.rmse);
            ++stepRmseCount_;
        } else if (bypass && telemetrySink_ != nullptr) {
            // Open breaker: the layer ran on FP32 masters verbatim;
            // report that as a 32-bit "format" so the telemetry shows
            // the breaker engaging rather than omitting the layer.
            ++stepFormats_[network_.layer(layerOfParam_[i]).name()][32];
        }
    }
}

void
QuantTrainer::restoreMasterWeights()
{
    for (std::size_t i = 0; i < params_.size(); ++i)
        params_[i]->value = masters_[i];
}

Tensor
QuantTrainer::forwardQuantized(const Tensor &inputs)
{
    using quant::TensorRole;
    CQ_TRACE_SCOPE("trainer.fwd");
    PhaseTimer timer(phaseFwdUs_);
    const bool quantizes =
        config_.algorithm.policyFor(TensorRole::Activation).quantize;
    Network::TensorHook hook;
    if (quantizes || monitor_ != nullptr) {
        hook = [this, quantizes](const Tensor &x, std::size_t li) {
            if (monitor_ != nullptr &&
                monitor_->checkTensor(x, "activation", li)) {
                stepHealthy_ = false;
                monitor_->tripLayer(li);
            }
            if (!quantizes ||
                (monitor_ != nullptr && monitor_->breakers().open(li)))
                return x;
            return quant::applyPolicy(x, config_.algorithm,
                                      quant::TensorRole::Activation);
        };
    }
    if (abftScopeActive()) {
        abft::AbftScope scope(abftConfig_);
        return network_.forward(inputs, hook);
    }
    return network_.forward(inputs, hook);
}

void
QuantTrainer::backwardQuantized(const Tensor &grad)
{
    using quant::TensorRole;
    CQ_TRACE_SCOPE("trainer.bwd");
    PhaseTimer timer(phaseBwdUs_);
    const bool quantizes =
        config_.algorithm.policyFor(TensorRole::NeuronGradient)
            .quantize;
    Network::TensorHook hook = [this, quantizes](const Tensor &g,
                                                 std::size_t li) {
        if (config_.recordGradientStats) {
            gradientRecords_.push_back(
                GradientRecord{step_, li, g.maxAbs()});
        }
        if (monitor_ != nullptr &&
            monitor_->checkTensor(g, "neuronGradient", li)) {
            stepHealthy_ = false;
            monitor_->tripLayer(li);
        }
        if (!quantizes ||
            (monitor_ != nullptr && monitor_->breakers().open(li)))
            return g;
        return quant::applyPolicy(g, config_.algorithm,
                                  quant::TensorRole::NeuronGradient);
    };
    if (abftScopeActive()) {
        abft::AbftScope scope(abftConfig_);
        network_.backward(grad, hook);
        return;
    }
    network_.backward(grad, hook);
}

void
QuantTrainer::beginStep()
{
    ++step_;
    stepHealthy_ = true;
    lastStepDiscarded_ = false;
    // Telemetry scratch for the step (observational only).
    stepStartNs_ = obs::detail::monotonicNowNs();
    phaseFwdUs_ = phaseBwdUs_ = phaseQuantUs_ = 0.0;
    phaseOptimUs_ = phaseCkptUs_ = 0.0;
    stepFormats_.clear();
    stepRmseSum_ = stepRmseMax_ = 0.0;
    stepRmseCount_ = 0;
    network_.zeroGrads();
    if (faults_ != nullptr) {
        // Upsets that struck the DRAM-resident master rows since the
        // previous step become visible before anything reads them.
        // With ECC the flips land on the 72-bit coded words (data or
        // check bits) instead of the bare floats.
        if (eccEnabled()) {
            for (std::size_t i = 0; i < masters_.size(); ++i)
                faults_->maybeCorruptCoded(
                    masters_[i].data(), masters_[i].numel(),
                    masterEcc_[i].checkBits(),
                    masterEcc_[i].numWords(),
                    sim::FaultSite::MasterWeights);
        } else {
            for (Tensor &master : masters_)
                faults_->maybeCorrupt(master.data(), master.numel(),
                                      sim::FaultSite::MasterWeights);
        }
    }
    if (eccEnabled())
        correctMastersEcc();
    abftEscalationsAtStepStart_ = abftStats_.get("abft.escalations");
    if (monitor_ != nullptr) {
        for (std::size_t i = 0; i < params_.size(); ++i) {
            if (monitor_->checkTensor(masters_[i], "masterWeights",
                                      layerOfParam_[i])) {
                stepHealthy_ = false;
                monitor_->tripLayer(layerOfParam_[i]);
            }
        }
    }
    loadQuantizedWeights();
}

double
QuantTrainer::finishStep(double loss)
{
    restoreMasterWeights();
    if (faults_ != nullptr) {
        // The WGSTORE gradient stream crosses the DDR bus; corrupt it
        // after backward and before the optimizer consumes it.
        for (Param *p : params_)
            faults_->maybeCorrupt(p->grad.data(), p->grad.numel(),
                                  sim::FaultSite::Gradients);
    }
    bool watchdog_tripped = false;
    if (monitor_ != nullptr) {
        for (std::size_t i = 0; i < params_.size(); ++i) {
            if (monitor_->checkTensor(params_[i]->grad, "weightGradient",
                                      layerOfParam_[i])) {
                stepHealthy_ = false;
                monitor_->tripLayer(layerOfParam_[i]);
            }
        }
        if (monitor_->observeLoss(loss)) {
            stepHealthy_ = false;
            watchdog_tripped = true;
        }
    }
    if (config_.resilience.abft.enabled &&
        abftStats_.get("abft.escalations") >
            abftEscalationsAtStepStart_) {
        // A GEMM's checksum mismatch survived its recompute retries:
        // the step's activations/gradients are suspect, so degrade to
        // the rollback tier rather than committing the update.
        stepHealthy_ = false;
        monitor_->stats().add("guard.abftEscalatedSteps", 1.0);
    }

    // Extra read-only pass for telemetry: max |dW| as the optimizer
    // is about to consume it. Skipped entirely without a sink.
    double gradMaxAbs = 0.0;
    if (telemetrySink_ != nullptr) {
        for (const Param *p : params_)
            gradMaxAbs = std::max(
                gradMaxAbs,
                static_cast<double>(p->grad.maxAbs()));
    }

    if (monitor_ == nullptr || stepHealthy_) {
        // Weight gradients stay FP32 (every algorithm's "special
        // case"); the optimizer updates the masters, which is the
        // computation the NDP engine performs in place.
        {
            CQ_TRACE_SCOPE("trainer.optim");
            PhaseTimer timer(phaseOptimUs_);
            optimizer_.step();
            for (std::size_t i = 0; i < params_.size(); ++i)
                masters_[i] = params_[i]->value;
            if (eccEnabled()) {
                // The in-place RMW update rewrote the rows; re-encode
                // the sideband so next step's decode sees a clean
                // codeword.
                reencodeMastersEcc();
            }
        }
        if (monitor_ != nullptr)
            monitor_->breakers().countDown();
        {
            CQ_TRACE_SCOPE("trainer.ckpt");
            PhaseTimer timer(phaseCkptUs_);
            maybeCheckpoint();
        }
    } else {
        // Discard the poisoned step: no optimizer update, degrade the
        // quantization path, and recover state from the last good
        // snapshot when one exists.
        lastStepDiscarded_ = true;
        monitor_->stats().add("guard.discardedSteps", 1.0);
        if (watchdog_tripped)
            monitor_->tripAllLayers();
        {
            CQ_TRACE_SCOPE("trainer.ckpt");
            PhaseTimer timer(phaseCkptUs_);
            rollback();
        }
    }
    pollShutdown();
    emitStepTelemetry(loss, gradMaxAbs);
    return loss;
}

void
QuantTrainer::emitStepTelemetry(double loss, double grad_max_abs)
{
    const std::uint64_t endNs = obs::detail::monotonicNowNs();
    const double stepUs =
        static_cast<double>(endNs - stepStartNs_) / 1000.0;

    static obs::Counter &steps =
        obs::MetricRegistry::instance().counter("trainer.steps");
    static obs::Gauge &lossGauge =
        obs::MetricRegistry::instance().gauge("trainer.loss");
    static obs::Histogram &stepTime =
        obs::MetricRegistry::instance().histogram(
            "trainer.step_time_us");
    steps.inc();
    lossGauge.set(loss);
    stepTime.observe(stepUs);

    // The whole-step span opens in beginStep and closes here, so it
    // cannot be an RAII scope; record it directly.
    if (obs::traceEnabled())
        obs::TraceSession::instance().record("trainer.step",
                                             stepStartNs_, endNs);

    if (telemetrySink_ == nullptr)
        return;
    obs::StepTelemetry rec;
    rec.step = step_;
    rec.loss = loss;
    rec.gradMaxAbs = grad_max_abs;
    rec.discarded = lastStepDiscarded_;
    rec.stepUs = stepUs;
    rec.fwdUs = phaseFwdUs_;
    rec.bwdUs = phaseBwdUs_;
    rec.quantUs = phaseQuantUs_;
    rec.optimUs = phaseOptimUs_;
    rec.ckptUs = phaseCkptUs_;
    rec.layerFormats = std::move(stepFormats_);
    stepFormats_.clear();
    rec.weightQuantRmseMean =
        stepRmseCount_ > 0
            ? stepRmseSum_ / static_cast<double>(stepRmseCount_)
            : 0.0;
    rec.weightQuantRmseMax = stepRmseMax_;
    // Delta every resilience counter against the previous emission so
    // rollbacks / ECC corrections / checkpoint commits line up with
    // the step that paid for them.
    const StatGroup current = resilienceStats();
    for (const auto &kv : current.all()) {
        const double delta = kv.second - telemetryPrev_.get(kv.first);
        if (delta != 0.0)
            rec.counterDeltas[kv.first] = delta;
    }
    telemetryPrev_ = current;
    telemetrySink_->onStep(rec);
}

bool
QuantTrainer::checkpointingEnabled() const
{
    return store_ != nullptr;
}

void
QuantTrainer::maybeCheckpoint()
{
    const ResilienceConfig &r = config_.resilience;
    if (!checkpointingEnabled() || r.checkpointInterval == 0)
        return;
    if (step_ != 1 && step_ % r.checkpointInterval != 0)
        return;
    if (asyncWriter_ != nullptr) {
        // The training thread only pays for the tensor copies here;
        // serialization, fsync and the manifest commit run on the
        // writer thread. A still-pending older snapshot is replaced
        // (latest wins), so a slow disk back-pressures into dropped
        // intermediate generations, never into a stalled step.
        asyncWriter_->submit(makeSnapshot());
        if (monitor_ != nullptr)
            monitor_->stats().add("guard.checkpointsSubmitted", 1.0);
        return;
    }
    checkpointNow();
}

guard::TrainerSnapshot
QuantTrainer::makeSnapshot() const
{
    const ResilienceConfig &r = config_.resilience;
    guard::TrainerSnapshot snap;
    snap.step = step_;
    snap.optimizerStep = optimizer_.stepCount();
    if (r.dataRng != nullptr) {
        snap.hasRngState = true;
        snap.rngState = r.dataRng->state();
    }
    snap.masters = masters_;
    snap.m.reserve(params_.size());
    snap.v.reserve(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
        snap.m.push_back(
            const_cast<Optimizer &>(optimizer_).stateM(i));
        snap.v.push_back(
            const_cast<Optimizer &>(optimizer_).stateV(i));
    }
    return snap;
}

bool
QuantTrainer::checkpointNow()
{
    CQ_ASSERT_MSG(checkpointingEnabled(),
                  "checkpointNow without a checkpoint destination");
    // Synchronous commit: drain in-flight async work first so this
    // snapshot lands as the newest generation (the final shutdown
    // checkpoint relies on that ordering).
    if (asyncWriter_ != nullptr)
        asyncWriter_->drain();
    const bool ok = store_->commit(makeSnapshot()) ==
                    guard::CheckpointWriteResult::Ok;
    if (monitor_ != nullptr)
        monitor_->stats().add(ok ? "guard.checkpointsWritten"
                                 : "guard.checkpointFailures",
                              1.0);
    return ok;
}

bool
QuantTrainer::drainCheckpoints()
{
    if (asyncWriter_ == nullptr)
        return true;
    return asyncWriter_->drain() == guard::CheckpointWriteResult::Ok ||
           asyncWriter_->committed() > 0;
}

bool
QuantTrainer::restoreFromSnapshot(const guard::TrainerSnapshot &snap)
{
    const ResilienceConfig &r = config_.resilience;
    if (snap.masters.size() != params_.size()) {
        warn("restore: checkpoint has %zu params, trainer has %zu",
             snap.masters.size(), params_.size());
        return false;
    }
    for (std::size_t i = 0; i < params_.size(); ++i) {
        CQ_ASSERT_MSG(snap.masters[i].shape() ==
                          params_[i]->value.shape(),
                      "restore: param %zu shape %s != checkpoint %s",
                      i,
                      shapeToString(params_[i]->value.shape()).c_str(),
                      shapeToString(snap.masters[i].shape()).c_str());
        masters_[i] = snap.masters[i];
        params_[i]->value = masters_[i];
        optimizer_.stateM(i) = snap.m[i];
        optimizer_.stateV(i) = snap.v[i];
    }
    optimizer_.setStepCount(
        static_cast<std::size_t>(snap.optimizerStep));
    if (eccEnabled()) {
        // The restore rewrote every master row; refresh the sideband
        // (this also clears any lingering double-bit flag).
        reencodeMastersEcc();
    }
    if (snap.hasRngState && r.dataRng != nullptr)
        r.dataRng->setState(snap.rngState);
    return true;
}

void
QuantTrainer::rollback()
{
    const ResilienceConfig &r = config_.resilience;
    if (!checkpointingEnabled())
        return;
    guard::TrainerSnapshot snap;
    // The newest generation may still be in flight on the writer
    // thread; drain so the rollback sees everything committed.
    if (asyncWriter_ != nullptr)
        asyncWriter_->drain();
    const auto outcome = store_->loadLatest(snap);
    if (outcome.result != guard::CheckpointLoadResult::Ok) {
        warn("rollback: no Ok generation in %s (%s, %llu skipped)",
             r.checkpointDir.c_str(),
             guard::checkpointLoadResultName(outcome.result),
             static_cast<unsigned long long>(outcome.skippedCorrupt));
        monitor_->stats().add("guard.rollbackFailures", 1.0);
        return;
    }
    if (!restoreFromSnapshot(snap)) {
        monitor_->stats().add("guard.rollbackFailures", 1.0);
        return;
    }
    ++rollbacks_;
    monitor_->stats().add("guard.rollbacks", 1.0);
    inform("rollback: restored step-%llu checkpoint after a guard "
           "trip at step %zu",
           static_cast<unsigned long long>(snap.step), step_);
}

QuantTrainer::ResumeOutcome
QuantTrainer::resumeFrom(const std::string &dir)
{
    ResumeOutcome out;
    const ResilienceConfig &r = config_.resilience;
    const std::string d = dir.empty() ? r.checkpointDir : dir;
    if (d.empty()) {
        warn("resume: no checkpoint directory configured");
        return out;
    }
    guard::TrainerSnapshot snap;
    guard::CheckpointStore::LoadOutcome lo;
    if (store_ != nullptr && d == r.checkpointDir) {
        lo = store_->loadLatest(snap);
    } else {
        guard::CheckpointStoreConfig scfg;
        scfg.dir = d;
        scfg.keep = r.checkpointKeep;
        guard::CheckpointStore store(scfg);
        lo = store.loadLatest(snap);
    }
    out.skippedCorrupt = lo.skippedCorrupt;
    if (lo.result != guard::CheckpointLoadResult::Ok) {
        // Elastic: nothing usable on disk means a cold start, which
        // replays the run from step 0 — still bit-exact, just slower.
        inform("resume: no usable generation in %s (%s); cold start",
               d.c_str(),
               guard::checkpointLoadResultName(lo.result));
        return out;
    }
    if (!restoreFromSnapshot(snap))
        return out;
    step_ = static_cast<std::size_t>(snap.step);
    stepHealthy_ = true;
    lastStepDiscarded_ = false;
    out.resumed = true;
    out.generation = lo.gen;
    out.step = snap.step;
    inform("resume: restored generation %llu (step %llu) from %s%s",
           static_cast<unsigned long long>(lo.gen),
           static_cast<unsigned long long>(snap.step), d.c_str(),
           lo.usedManifest ? "" : " via directory-scan fallback");
    return out;
}

void
QuantTrainer::pollShutdown()
{
    if (stopRequested_)
        return;
    const bool signalled =
        config_.resilience.handleSignals && shutdownRequested();
    const bool cancelled = config_.resilience.cancel != nullptr &&
                           config_.resilience.cancel->cancelled();
    if (!signalled && !cancelled)
        return;
    stopRequested_ = true;
    cancelObserved_ = cancelled && !signalled;
    const char *why =
        cancelObserved_
            ? cancelReasonName(config_.resilience.cancel->reason())
            : "signal";
    if (checkpointingEnabled()) {
        const bool ok = checkpointNow();
        inform("shutdown (%s): %s final checkpoint at step %zu", why,
               ok ? "wrote" : "FAILED to write", step_);
    } else {
        inform("shutdown (%s): stop requested at step %zu (no "
               "checkpoint destination)",
               why, step_);
    }
}

StatGroup
QuantTrainer::resilienceStats() const
{
    StatGroup out;
    if (monitor_ != nullptr)
        out.merge(monitor_->stats());
    if (faults_ != nullptr)
        out.merge(faults_->stats());
    out.merge(eccStats_);
    out.merge(abftStats_);
    return out;
}

double
QuantTrainer::stepClassification(const Tensor &inputs,
                                 const std::vector<int> &labels)
{
    return commitStep(forwardBackwardClassification(inputs, labels));
}

double
QuantTrainer::forwardBackwardClassification(
    const Tensor &inputs, const std::vector<int> &labels)
{
    beginStep();
    const Tensor logits = forwardQuantized(inputs);
    const double loss = lossHead_.loss(logits, labels);
    backwardQuantized(lossHead_.grad());
    return loss;
}

double
QuantTrainer::commitStep(double loss)
{
    return finishStep(loss);
}

double
QuantTrainer::stepLanguageModel(const Tensor &inputs,
                                const std::vector<int> &targets,
                                std::size_t vocab)
{
    beginStep();
    Tensor logits = forwardQuantized(inputs);
    const Shape out_shape = logits.shape();
    logits.reshape({logits.numel() / vocab, vocab});
    const double loss = lossHead_.loss(logits, targets);
    Tensor grad = lossHead_.grad();
    // Hand the gradient back in the network's native output shape.
    grad.reshape(out_shape);
    backwardQuantized(grad);
    return finishStep(loss);
}

double
QuantTrainer::evalAccuracy(const Tensor &inputs,
                           const std::vector<int> &labels)
{
    loadQuantizedWeights();
    const Tensor logits = forwardQuantized(inputs);
    restoreMasterWeights();
    return SoftmaxCrossEntropy::accuracy(logits, labels);
}

double
QuantTrainer::evalPerplexity(const Tensor &inputs,
                             const std::vector<int> &targets,
                             std::size_t vocab)
{
    loadQuantizedWeights();
    Tensor logits = forwardQuantized(inputs);
    restoreMasterWeights();
    logits.reshape({logits.numel() / vocab, vocab});
    SoftmaxCrossEntropy head;
    const double nll = head.loss(logits, targets);
    return std::exp(nll);
}

} // namespace cq::nn
