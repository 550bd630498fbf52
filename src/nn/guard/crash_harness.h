/**
 * @file
 * Reusable training-run harness for the kill–restart verification.
 *
 * One call to runCrashHarness() performs one complete "leg" of the
 * crash experiment: build the canonical spiral-MLP training setup
 * (seeded, so every leg with the same seed computes the identical
 * step sequence), optionally resume from a generation store, train to
 * a target step, and dump the final master weights. Legs compose into
 * the proof that the store is crash-consistent:
 *
 *   reference leg:  train 0..N, dump masters
 *   kill leg:       train with a self-SIGKILL planned at a step
 *                   boundary or inside a checkpoint write (the
 *                   process genuinely dies — SIGKILL cannot be caught)
 *   resume leg:     restart with resume=true, train to N, dump
 *
 * Crash consistency holds iff the resume leg's masters are bitwise
 * identical to the reference leg's, for every planned kill point.
 * tools/cq_crashtest.cc runs the legs as isolated trials
 * (common/isolated_trial.h) so a kill never takes the tool down.
 */

#ifndef CQ_NN_GUARD_CRASH_HARNESS_H
#define CQ_NN_GUARD_CRASH_HARNESS_H

#include <cstdint>
#include <string>

#include "common/cancel.h"

namespace cq::nn::guard {

/** One training leg. */
struct CrashHarnessConfig
{
    /** Seeds the dataset stream and (seed + 1) the weight init. */
    std::uint64_t seed = 17;
    /** Train until the trainer's step counter reaches this. */
    std::uint64_t steps = 60;
    std::size_t batchSize = 32;

    /** Generation-store directory (empty = no checkpointing). */
    std::string dir;
    std::uint64_t ckptEvery = 5;
    std::size_t ckptKeep = 3;
    /** Commit on the background writer thread (the production path);
     *  false forces synchronous commits at the step boundary. */
    bool asyncCheckpoint = true;

    /** Restore the newest Ok generation before training. */
    bool resume = false;
    /** Store to resume from when it differs from dir (empty = dir). */
    std::string resumeDir;

    /** Honour SIGTERM/SIGINT: the trainer writes one final
     *  synchronous checkpoint at the next step boundary and the leg
     *  returns early (result.stopRequested). The caller installs the
     *  handler (cq::installShutdownSignalHandler()). */
    bool handleSignals = false;

    /**
     * Cooperative cancellation (not owned; may be nullptr). A caller
     * threads its token through here so a deadline or an explicit
     * cancel stops the leg at the next step boundary with a final
     * checkpoint (result.stopRequested + result.cancelled).
     */
    cq::CancelToken *cancel = nullptr;

    /** @name Self-kill plan (0 = disabled) */
    /** @{ */
    /** raise(SIGKILL) once this step's update has committed — after
     *  its checkpoint submit, before any later step runs. */
    std::uint64_t killAtStep = 0;
    /** raise(SIGKILL) from inside the checkpoint write path once this
     *  many cumulative bytes crossed the store's write hook. Counted
     *  across commits, so offsets larger than one snapshot still fire
     *  on a later generation. */
    std::uint64_t killAtWriteBytes = 0;
    /** @} */
    /** Per-chunk write delay widening the mid-write kill window. */
    unsigned slowWriteMicros = 0;

    /** Dump the final master weights' raw bytes here (empty = skip). */
    std::string mastersOut;

    /** @name In-situ correction + fault injection (bench/CI smoke) */
    /** @{ */
    /** SEC-DED ECC sidebands over the master tensors. */
    bool ecc = false;
    /** ABFT checksum verification on every GEMM. */
    bool abft = false;
    /** Fault injection rate in bit flips per Mbit per step over the
     *  master weights, gradients and accumulators (0 = no injector). */
    double faultFlipsPerMbit = 0.0;
    /** @} */

    /** @name Observability outputs (empty = off) */
    /** @{ */
    /** Chrome trace-event JSON of the whole leg (Perfetto-loadable).
     *  Setting this enables span recording for the leg. */
    std::string traceOut;
    /** Prometheus text metrics snapshot, bridged with the trainer's
     *  resilience counters (faults.* / ecc.* / abft.* / guard.*). */
    std::string metricsOut;
    /** Per-step JSONL telemetry (obs::JsonlTelemetrySink). */
    std::string telemetryOut;
    /** Rewrite metricsOut every N steps (0 = only at the end). */
    std::uint64_t metricsEvery = 0;
    /** @} */
};

/** What a (surviving) leg observed. */
struct CrashHarnessResult
{
    /** True when resume found and restored an Ok generation. */
    bool resumed = false;
    std::uint64_t resumedGeneration = 0;
    std::uint64_t resumedStep = 0;
    std::uint64_t skippedCorrupt = 0;
    /** Steps this leg actually executed (excludes replayed history). */
    std::uint64_t stepsRun = 0;
    /** True when a handled SIGTERM/SIGINT or a cancelled token ended
     *  the leg early (the final checkpoint is already on disk). */
    bool stopRequested = false;
    /** True when the early stop came from the cancel token. */
    bool cancelled = false;
    double finalLoss = 0.0;
    /** CRC-32 over the final masters' raw bytes (also what
     *  mastersOut receives). */
    std::uint32_t mastersCrc = 0;
};

/**
 * Run one leg. Never returns when a planned kill fires. Asserts via
 * CQ_ASSERT on setup errors (unwritable mastersOut etc.).
 */
CrashHarnessResult runCrashHarness(const CrashHarnessConfig &config);

} // namespace cq::nn::guard

#endif // CQ_NN_GUARD_CRASH_HARNESS_H
