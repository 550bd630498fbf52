/**
 * @file
 * Deterministic fault injection for resilience experiments.
 *
 * Cambricon-Q keeps the FP32 master weights resident in DRAM and
 * updates them in place through the NDP engine; the acceleration core
 * computes on narrow quantized copies. A single flipped DRAM bit in
 * any of those representations can silently diverge a training run, so
 * the resilience subsystem (see DESIGN.md §5) models transient
 * single-/multi-bit upsets as seeded bit flips in the simulated memory
 * images: master weights, gradient buffers and GEMM accumulators.
 *
 * Injection is driven by the repo's cq::Rng and always runs on the
 * calling thread, so a fixed seed yields a bitwise-identical fault
 * pattern at any CQ_THREADS setting. The event count per pass is
 * Poisson-distributed around rate * bits/1e6 (a FIT-like rate), and
 * each event flips a configurable burst of consecutive bits (burst
 * length 1 = classic single-event upset; longer bursts model
 * multi-column DRAM faults).
 */

#ifndef CQ_SIM_FAULTS_FAULT_INJECTOR_H
#define CQ_SIM_FAULTS_FAULT_INJECTOR_H

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "common/stats.h"
#include "tensor/tensor.h"

namespace cq::sim {

/** Which memory image a corruption pass targets. */
enum class FaultSite
{
    MasterWeights,   ///< FP32 masters in DRAM (the NDP engine's rows)
    Gradients,       ///< weight-gradient buffers (WGSTORE stream)
    Accumulators,    ///< PE-array accumulators / GEMM output tiles
};

const char *faultSiteName(FaultSite site);

/** Fault model parameters. */
struct FaultConfig
{
    /** Seed of the injector's private Rng stream. */
    std::uint64_t seed = 0xFA17;
    /**
     * Expected bit flips per million bits per injection pass. One
     * pass covers one target buffer once per training step, so this
     * is an upset rate per step, not per unit of simulated time.
     */
    double bitFlipsPerMbit = 1.0;
    /** Consecutive bits flipped per fault event (>= 1). */
    unsigned burstLength = 1;
    /** @name Target-site enables */
    /** @{ */
    bool targetMasterWeights = true;
    bool targetGradients = false;
    bool targetAccumulators = false;
    /** @} */
};

/**
 * Seeded bit-flip injector. One instance owns one deterministic fault
 * stream; share it across all injection points of a run so the fault
 * pattern is a single reproducible sequence.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig config);

    const FaultConfig &config() const { return config_; }

    /** True when the config enables injection at @p site. */
    bool targets(FaultSite site) const;

    /**
     * One injection pass over @p n floats at @p data: samples a
     * Poisson event count from the configured rate, flips a burst of
     * bits at each sampled position. Returns the number of bits
     * flipped. Always executes serially on the calling thread.
     */
    std::size_t corrupt(float *data, std::size_t n, FaultSite site);

    /** Convenience overload for tensors. */
    std::size_t corrupt(Tensor &t, FaultSite site);

    /**
     * Pass over @p site only if the config targets it (the trainer's
     * per-step hook). Returns bits flipped (0 when not targeted).
     */
    std::size_t maybeCorrupt(float *data, std::size_t n, FaultSite site);

    /**
     * Injection pass over the *coded* image of an ECC-protected
     * buffer: @p n floats at @p data plus one 8-bit check byte per
     * 64-bit word at @p check (num_words = ceil(n/2), the
     * EccProtectedArray sideband). Bit positions are drawn uniformly
     * over the 72-bit coded words, so ~8/72 of the upsets land in
     * check bits — the realistic raw-bit surface a SEC-DED decoder
     * sees. Bursts run along the coded bit string and may straddle
     * the data/check boundary and word boundaries. Flips aimed at the
     * padding half of an odd-length tail word hit no storage and are
     * skipped (the RNG draw sequence is unaffected). Always executes
     * serially on the calling thread, so the pattern is bitwise
     * deterministic at any CQ_THREADS setting.
     */
    std::size_t corruptCoded(float *data, std::size_t n,
                             std::uint8_t *check,
                             std::size_t num_words, FaultSite site);

    /** Gated variant of corruptCoded(), mirroring maybeCorrupt(). */
    std::size_t maybeCorruptCoded(float *data, std::size_t n,
                                  std::uint8_t *check,
                                  std::size_t num_words,
                                  FaultSite site);

    /** Fault counters: faults.events, faults.bitsFlipped,
     *  faults.site.<name> (events per site). */
    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  private:
    FaultConfig config_;
    Rng rng_;
    StatGroup stats_;
};

} // namespace cq::sim

#endif // CQ_SIM_FAULTS_FAULT_INJECTOR_H
