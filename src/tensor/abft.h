/**
 * @file
 * Algorithm-based fault tolerance (ABFT) for GEMM.
 *
 * Huang & Abraham's checksum scheme: for C = A(m x k) * B(k x n), the
 * row sums of C must equal A times the row-sum vector of B, and the
 * column sums of C must equal the column-sum vector of A times B.
 * Maintaining those two checksum vectors alongside the product turns
 * a transient fault in the PE-array accumulators (or the output tile
 * SRAM) into a localized, checkable discrepancy: the implicated rows
 * and columns intersect at the faulty elements.
 *
 * The verification ladder is *retry-then-degrade* (DESIGN.md §5.4):
 * a checksum mismatch triggers one recomputation of the implicated
 * rows/columns; if the recomputed tile verifies, the fault was
 * transient and the corrected product is returned (counter
 * `abft.corrected`); if the mismatch persists, the GEMM escalates
 * (`abft.escalations`) and the caller — the QuantTrainer — discards
 * the step and falls back to PR 2's checkpoint rollback.
 *
 * Tolerances: checksums are accumulated in double while the product
 * is held in FP32, so a clean GEMM shows a residual of order
 * FLT_EPSILON relative to the absolute-value checksum bound. The
 * tolerance (abftAutoRelTol()) scales with sqrt(k) to cover the
 * random-walk growth of that rounding noise; it is calibrated so 1k
 * clean quantized GEMMs at every HQT operand width (4/8/12/16 bits)
 * raise no false alarm (tests/test_ecc_abft.cc) while a flipped
 * exponent or high-mantissa bit stays far above it.
 *
 * Two entry points:
 *  - abftMatmul(): explicit checksummed GEMM.
 *  - AbftScope: a thread-local RAII scope that reroutes every
 *    cq::matmul() issued inside it (e.g. by nn layers during a
 *    trainer step) through abftMatmul() with the scope's config.
 */

#ifndef CQ_TENSOR_ABFT_H
#define CQ_TENSOR_ABFT_H

#include <cstddef>
#include <functional>

#include "common/stats.h"
#include "tensor/tensor.h"

namespace cq::abft {

/** ABFT verification parameters. */
struct AbftConfig
{
    /**
     * False computes the product (and applies corruptOutput) without
     * checksum verification — the "unprotected compute" arm of the
     * resilience bench, which must draw the same fault pattern.
     */
    bool verify = true;
    /** Counter sink for abft.* statistics (may be nullptr). */
    StatGroup *stats = nullptr;
    /**
     * Fault-model hook: applied to the product after the initial
     * compute pass, modeling upsets in the accumulators / output
     * tile. Benches bind a sim::FaultInjector pass here; tests use
     * one-shot or persistent lambdas.
     */
    std::function<void(Tensor &)> corruptOutput;
    /**
     * Re-apply corruptOutput after every retry recompute as well.
     * True exercises persistent/stuck-at faults (the escalation
     * path); the trainer sets it false because a retry recomputes
     * only the implicated rows moments later — modeling a fresh
     * full-tile upset there would overstate the transient rate.
     */
    bool corruptRetries = true;
};

/**
 * Relative checksum tolerance for a reduction depth of @p k, against
 * the absolute-value checksum bound. A mismatch beyond it (or beyond
 * kAbftAbsTol, the slack for all-zero products) gets one recompute
 * pass and escalates if it survives.
 */
double abftAutoRelTol(std::size_t k);
inline constexpr double kAbftAbsTol = 1e-30;

/** What one checksummed GEMM did. */
struct AbftReport
{
    std::size_t suspectRows = 0;
    std::size_t suspectCols = 0;
    std::size_t retries = 0;
    /** A mismatch was found and the retry verified clean. */
    bool corrected = false;
    /** The mismatch survived the recompute pass. */
    bool escalated = false;
};

/**
 * C = A * B with row/column checksum verification and
 * retry-then-degrade recovery. Bitwise identical to cq::matmul() when
 * no fault fires (verification never perturbs a clean product).
 */
Tensor abftMatmul(const Tensor &a, const Tensor &b,
                  const AbftConfig &config,
                  AbftReport *report = nullptr);

/**
 * While alive on a thread, every cq::matmul() on that thread runs
 * through abftMatmul() with this scope's config. Scopes nest (the
 * innermost wins); the checksum pass itself runs scope-suspended, so
 * there is no recursion.
 */
class AbftScope
{
  public:
    explicit AbftScope(const AbftConfig &config);
    ~AbftScope();

    AbftScope(const AbftScope &) = delete;
    AbftScope &operator=(const AbftScope &) = delete;

    /** The innermost active config on this thread, or nullptr. */
    static const AbftConfig *active();

  private:
    const AbftConfig *prev_;
};

} // namespace cq::abft

#endif // CQ_TENSOR_ABFT_H
