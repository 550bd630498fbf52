/**
 * @file
 * Quantized training loop.
 *
 * Implements the dataflow of Fig. 7 of the paper in software: weights
 * and activations are quantized on their way into each layer, neuron
 * gradients are quantized between layers in the backward pass, weight
 * gradients stay full precision, and the update step operates on FP32
 * master weights (the state the NDP engine keeps in DRAM). The
 * quantization recipes come from quant::AlgorithmConfig, so the same
 * trainer runs FP32, Zhu, Zhang, and both +HQT variants.
 *
 * The trainer can additionally run under the resilience subsystem
 * (DESIGN.md §5): a sim::FaultInjector corrupts the simulated memory
 * images (master weights, gradient buffers, GEMM accumulators) each step,
 * a guard::HealthMonitor scans tensors and the loss for numerical
 * ill-health, and CRC-protected checkpoints let a tripped run roll
 * back to the last known-good state instead of diverging. A tripped
 * layer's quantization circuit breaker falls back to the FP32 path for
 * a cooldown before re-arming.
 */

#ifndef CQ_NN_QUANT_TRAINER_H
#define CQ_NN_QUANT_TRAINER_H

#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "dram/ecc.h"
#include "nn/guard/checkpoint.h"
#include "nn/guard/ckpt_store.h"
#include "nn/guard/guardrails.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/softmax.h"
#include "obs/telemetry.h"
#include "quant/policy.h"
#include "sim/faults/fault_injector.h"
#include "tensor/abft.h"

namespace cq::nn {

/** Per-layer gradient statistics collected during training (Fig. 2). */
struct GradientRecord
{
    std::size_t step = 0;
    std::size_t layerIndex = 0;
    double maxAbs = 0.0;
};

/** Tier-1 correction: SEC-DED ECC over the DRAM-resident masters. */
struct EccPolicy
{
    /** Keep Hamming(72,64) sideband check bits for every master
     *  tensor; faults then land on the coded words (post-encode) and
     *  the per-step read sweep corrects single-bit errors in place. */
    bool enabled = false;
    /**
     * Background scrubber: words corrected per master tensor per step
     * ahead of the demand read sweep, through a deterministic
     * wrap-around cursor. 0 disables the scrubber (demand reads still
     * correct everything the trainer touches).
     */
    std::size_t scrubWordsPerStep = 0;
};

/** Tier-2 correction: ABFT checksums on every GEMM of the step. */
struct AbftPolicy
{
    /** Route every cq::matmul() of forward/backward through the
     *  checksummed abftMatmul() (tensor/abft.h). */
    bool enabled = false;
};

/** Resilience: guardrails + checkpoint/rollback policy. */
struct ResilienceConfig
{
    /** False keeps the legacy trainer behaviour (no monitoring). */
    bool enabled = false;
    /**
     * Generation-store directory (nn/guard/ckpt_store.h): commits are
     * crash-consistent "ckpt-<gen>.bin" files under a CRC'd manifest
     * with keep-K retention, and resumeFrom() can restart a killed
     * run from the newest Ok generation. Empty disables checkpoints
     * and rollback.
     */
    std::string checkpointDir;
    /** Generations kept by the store's retention (>= 1). */
    std::size_t checkpointKeep = 3;
    /**
     * Serialize + fsync + commit on a background writer thread
     * (guard::AsyncCheckpointWriter): the training thread only copies
     * tensors at the step boundary. Rollback and the final shutdown
     * checkpoint drain the writer first.
     */
    bool asyncCheckpoint = false;
    /**
     * Poll cq::shutdownRequested() each step and, when a SIGTERM /
     * SIGINT arrived, write one final synchronous checkpoint and
     * report through stopRequested() so the driver loop can exit
     * cleanly. The handler itself is installed by the caller
     * (cq::installShutdownSignalHandler()).
     */
    bool handleSignals = false;
    /** Durability + test hooks for every checkpoint write. */
    guard::CheckpointWriteOptions writeOptions;
    /**
     * Cooperative cancellation (not owned; may be nullptr). Polled at
     * the same step boundary as the signal flag: when the token is
     * cancelled (deadline passed, caller request, shutdown), the
     * trainer writes one final synchronous checkpoint and reports
     * through stopRequested(), exactly like a handled SIGTERM. The
     * poll site keeps cancellation deterministic: the steps completed
     * before the stop are bitwise identical to the same prefix of an
     * uncancelled run, and the final checkpoint is taken at a
     * consistent boundary. Works independently of handleSignals.
     */
    CancelToken *cancel = nullptr;
    /** Healthy-step interval between checkpoints. */
    std::size_t checkpointInterval = 25;
    /**
     * Optional data-pipeline Rng (not owned). Its state is captured
     * in checkpoints and restored on rollback so the resumed run
     * replays the stream from the snapshot point.
     */
    Rng *dataRng = nullptr;
    /** In-situ correction tiers (DESIGN.md §5.4). */
    EccPolicy ecc;
    AbftPolicy abft;
};

/** Trainer configuration. */
struct QuantTrainerConfig
{
    quant::AlgorithmConfig algorithm = quant::AlgorithmConfig::fp32();
    OptimizerConfig optimizer;
    /** Collect per-layer gradient max-abs records when true. */
    bool recordGradientStats = false;
    ResilienceConfig resilience;
};

/**
 * Drives a Network through quantized training steps. The network's
 * parameters are treated as *compute copies*: before every step the
 * FP32 master weights are quantized into them; gradients accumulate
 * against the quantized weights; the optimizer updates the masters.
 */
class QuantTrainer
{
  public:
    QuantTrainer(Network &network, QuantTrainerConfig config);

    /**
     * One supervised classification step on (inputs, labels) with the
     * fused softmax + cross-entropy head. Returns the minibatch loss.
     */
    double stepClassification(const Tensor &inputs,
                              const std::vector<int> &labels);

    /**
     * @name Split step
     *
     * stepClassification split at the gradient boundary, so a caller
     * can time the two halves apart:
     *
     *   loss = t.forwardBackwardClassification(x, y);  // grads ready
     *   t.commitStep(loss);                            // update
     *
     * forwardBackward + commitStep back-to-back is bitwise identical
     * to stepClassification.
     */
    /** @{ */
    /** Forward + loss + backward; leaves gradients in the params. */
    double forwardBackwardClassification(const Tensor &inputs,
                                         const std::vector<int> &labels);
    /** Guards/watchdog + optimizer update (or rollback) + checkpoint
     *  policy; the second half of a split step. */
    double commitStep(double loss);
    /** @} */

    /**
     * One language-modeling step: the network output is reshaped to
     * (T*B, vocab) rows scored against per-position targets. Returns
     * the minibatch loss (mean NLL; exp of it is the perplexity).
     */
    double stepLanguageModel(const Tensor &inputs,
                             const std::vector<int> &targets,
                             std::size_t vocab);

    /** Evaluation accuracy with quantized weights, no update. */
    double evalAccuracy(const Tensor &inputs,
                        const std::vector<int> &labels);

    /** Evaluation perplexity for language models. */
    double evalPerplexity(const Tensor &inputs,
                          const std::vector<int> &targets,
                          std::size_t vocab);

    const std::vector<GradientRecord> &gradientRecords() const
    {
        return gradientRecords_;
    }

    std::size_t stepCount() const { return step_; }
    const quant::AlgorithmConfig &algorithm() const
    {
        return config_.algorithm;
    }

    /** @name Resilience */
    /** @{ */
    /**
     * Attach (or detach with nullptr) a fault injector. Injection
     * passes run serially on the calling thread each step, so the
     * fault pattern for a fixed seed is bitwise identical at any
     * CQ_THREADS setting.
     */
    void setFaultInjector(sim::FaultInjector *injector)
    {
        faults_ = injector;
    }

    /** Rollbacks performed since construction. */
    std::size_t rollbackCount() const { return rollbacks_; }

    /** True when SEC-DED sidebands protect the master tensors. */
    bool eccEnabled() const { return !masterEcc_.empty(); }

    /** Write a checkpoint of the current state immediately. With a
     *  generation store this is synchronous (drains the async writer
     *  first), so it is also the final-shutdown checkpoint. */
    bool checkpointNow();

    /** What resumeFrom() found and restored. */
    struct ResumeOutcome
    {
        /** False: no usable generation; the trainer keeps its fresh
         *  state (an "elastic" cold start, not an error). */
        bool resumed = false;
        std::uint64_t generation = 0;
        /** Trainer step of the restored snapshot. */
        std::uint64_t step = 0;
        /** Newer generations skipped as corrupt/missing. */
        std::uint64_t skippedCorrupt = 0;
    };

    /**
     * Elastic resume: scan the generation store at @p dir (default:
     * the configured checkpointDir) newest-to-oldest, restore the
     * first Ok snapshot — masters, Adam m/v, step counters, and the
     * data Rng when one is registered — and continue bit-exactly.
     * Call before the first training step.
     */
    ResumeOutcome resumeFrom(const std::string &dir = "");

    /**
     * True once a handled SIGTERM/SIGINT or a cancelled CancelToken
     * was observed at a step boundary: the final checkpoint has been
     * written and the driver loop should stop cleanly.
     */
    bool stopRequested() const { return stopRequested_; }

    /** True when the stop came from the cancel token (rather than a
     *  process signal); the token's reason() says why. */
    bool cancelObserved() const { return cancelObserved_; }

    /** Block until every submitted async checkpoint is committed.
     *  Returns false when the last commit failed. */
    bool drainCheckpoints();

    /**
     * Merged guard.* / faults.* counters (monitor plus any attached
     * injector) for benches and tests.
     */
    StatGroup resilienceStats() const;
    /** @} */

    /** @name Observability */
    /** @{ */
    /**
     * Attach (or detach with nullptr) a per-step telemetry sink
     * (obs/telemetry.h). The sink receives one StepTelemetry record
     * at the end of every training step. Purely observational: the
     * record is assembled from values the step already computed plus
     * read-only extra passes (grad max-abs, quantization tallies), so
     * training with a sink attached stays bitwise identical to
     * training without one. Not owned; must outlive the trainer or be
     * detached first.
     */
    void setTelemetrySink(obs::TelemetrySink *sink)
    {
        telemetrySink_ = sink;
    }
    /** @} */

  private:
    /** Begin a step: fault injection + master scan + weight load. */
    void beginStep();
    /** Finish a step: gradient guards, watchdog, update-or-rollback. */
    double finishStep(double loss);
    /** Swap quantized weights into the network (masters saved). */
    void loadQuantizedWeights();
    /** Restore master weights (keeping accumulated gradients). */
    void restoreMasterWeights();
    /** Forward with activation quantization hook. */
    Tensor forwardQuantized(const Tensor &inputs);
    /** Backward with neuron-gradient quantization hook + stats. */
    void backwardQuantized(const Tensor &grad);
    /** Checkpoint when the interval policy says so. */
    void maybeCheckpoint();
    /** Capture the full trainer state into a snapshot. */
    guard::TrainerSnapshot makeSnapshot() const;
    /** Restore trainer state from an Ok snapshot (shared by rollback
     *  and resumeFrom). Returns false on a shape/param mismatch. */
    bool restoreFromSnapshot(const guard::TrainerSnapshot &snap);
    /** Roll back to the last good checkpoint, if one exists. */
    void rollback();
    /** Handle a pending SIGTERM/SIGINT at the step boundary. */
    void pollShutdown();
    /** Observe step metrics and deliver the StepTelemetry record. */
    void emitStepTelemetry(double loss, double grad_max_abs);
    /** True when any checkpoint destination is configured. */
    bool checkpointingEnabled() const;
    /** Scrub + demand-correct every master; trips on double bits. */
    void correctMastersEcc();
    /** Recompute every master's check bits (after a rewrite). */
    void reencodeMastersEcc();
    /** True when forward/backward should run under an AbftScope. */
    bool abftScopeActive() const;

    Network &network_;
    QuantTrainerConfig config_;
    Optimizer optimizer_;
    std::vector<Tensor> masters_;
    std::vector<Param *> params_;
    /** Layer index owning each entry of params_. */
    std::vector<std::size_t> layerOfParam_;
    SoftmaxCrossEntropy lossHead_;
    std::vector<GradientRecord> gradientRecords_;
    std::size_t step_ = 0;

    std::unique_ptr<guard::HealthMonitor> monitor_;
    std::unique_ptr<guard::CheckpointStore> store_;
    std::unique_ptr<guard::AsyncCheckpointWriter> asyncWriter_;
    sim::FaultInjector *faults_ = nullptr;
    bool stepHealthy_ = true;
    bool lastStepDiscarded_ = false;
    bool stopRequested_ = false;
    bool cancelObserved_ = false;
    std::size_t rollbacks_ = 0;

    /** One SEC-DED sideband per master tensor (empty = ECC off). */
    std::vector<dram::EccProtectedArray> masterEcc_;
    StatGroup eccStats_;
    abft::AbftConfig abftConfig_;
    StatGroup abftStats_;
    double abftEscalationsAtStepStart_ = 0.0;

    /** @name Telemetry scratch (observational only) */
    /** @{ */
    obs::TelemetrySink *telemetrySink_ = nullptr;
    /** Monotonic ns at beginStep; closes the trainer.step span. */
    std::uint64_t stepStartNs_ = 0;
    /** Wall-clock accumulators, reset each beginStep. */
    double phaseFwdUs_ = 0.0;
    double phaseBwdUs_ = 0.0;
    double phaseQuantUs_ = 0.0;
    double phaseOptimUs_ = 0.0;
    double phaseCkptUs_ = 0.0;
    /** E2BQM choices of this step's weight load, keyed by layer. */
    std::map<std::string, std::map<int, std::uint64_t>> stepFormats_;
    double stepRmseSum_ = 0.0;
    double stepRmseMax_ = 0.0;
    std::size_t stepRmseCount_ = 0;
    /** resilienceStats() snapshot at the previous emission, for
     *  per-step counter deltas. */
    StatGroup telemetryPrev_;
    /** @} */
};

} // namespace cq::nn

#endif // CQ_NN_QUANT_TRAINER_H
