/**
 * @file
 * Implementation of ABFT-checksummed GEMM.
 */

#include "tensor/abft.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace cq::abft {

namespace {

thread_local const AbftConfig *tlsActive = nullptr;

/** RAII: hide the active scope while computing raw products. */
class ScopeSuspend
{
  public:
    ScopeSuspend() : saved_(tlsActive) { tlsActive = nullptr; }
    ~ScopeSuspend() { tlsActive = saved_; }

  private:
    const AbftConfig *saved_;
};

struct ChecksumVerdict
{
    std::vector<std::size_t> rows;
    std::vector<std::size_t> cols;

    bool clean() const { return rows.empty() && cols.empty(); }
};

/**
 * Verify the row/column checksums of @p c against the predictions
 * from @p a and @p b. All checksum arithmetic runs in double; the
 * tolerance is scaled by the absolute-value bound of each sum, so a
 * checksum over large cancelling terms is not spuriously flagged.
 */
ChecksumVerdict
verifyChecksums(const Tensor &a, const Tensor &b, const Tensor &c,
                double rel_tol, double abs_tol)
{
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    const float *pa = a.data();
    const float *pb = b.data();
    const float *pc = c.data();

    // Row-sum vector of B and its absolute-value companion.
    std::vector<double> b_rowsum(k, 0.0), b_abssum(k, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *brow = pb + kk * n;
        double s = 0.0, sa = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            s += brow[j];
            sa += std::fabs(brow[j]);
        }
        b_rowsum[kk] = s;
        b_abssum[kk] = sa;
    }
    // Column-sum vector of A and its absolute-value companion.
    std::vector<double> a_colsum(k, 0.0), a_abssum(k, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = pa + i * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
            a_colsum[kk] += arow[kk];
            a_abssum[kk] += std::fabs(arow[kk]);
        }
    }

    ChecksumVerdict verdict;
    // Row checksums: sum_j C[i][j] vs sum_k A[i][k] * rowsum(B)[k].
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = pa + i * k;
        const float *crow = pc + i * n;
        double expected = 0.0, bound = 0.0, actual = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
            expected += arow[kk] * b_rowsum[kk];
            bound += std::fabs(arow[kk]) * b_abssum[kk];
        }
        for (std::size_t j = 0; j < n; ++j)
            actual += crow[j];
        if (std::fabs(actual - expected) >
                rel_tol * bound + abs_tol ||
            !std::isfinite(actual)) {
            verdict.rows.push_back(i);
        }
    }
    // Column checksums: sum_i C[i][j] vs colsum(A) * B[:, j].
    std::vector<double> col_actual(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        const float *crow = pc + i * n;
        for (std::size_t j = 0; j < n; ++j)
            col_actual[j] += crow[j];
    }
    for (std::size_t j = 0; j < n; ++j) {
        double expected = 0.0, bound = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
            expected += a_colsum[kk] * pb[kk * n + j];
            bound += a_abssum[kk] * std::fabs(pb[kk * n + j]);
        }
        if (std::fabs(col_actual[j] - expected) >
                rel_tol * bound + abs_tol ||
            !std::isfinite(col_actual[j])) {
            verdict.cols.push_back(j);
        }
    }
    return verdict;
}

} // namespace

double
abftAutoRelTol(std::size_t k)
{
    // The clean residual is FP32 accumulation noise; it grows like a
    // random walk in the reduction depth. 64x headroom keeps 1k clean
    // GEMMs per HQT format alarm-free while staying orders of
    // magnitude below flipped-exponent damage.
    const double depth = static_cast<double>(k < 1 ? 1 : k);
    return 64.0 * std::sqrt(depth) *
           static_cast<double>(FLT_EPSILON);
}

Tensor
abftMatmul(const Tensor &a, const Tensor &b, const AbftConfig &config,
           AbftReport *report)
{
    CQ_ASSERT_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "abftMatmul: expects rank-2 operands, got %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    ScopeSuspend suspend; // raw products below, no recursion
    Tensor c = matmul(a, b);
    if (config.corruptOutput)
        config.corruptOutput(c);
    if (!config.verify)
        return c;

    const double rel_tol = abftAutoRelTol(a.dim(1));
    StatGroup *stats = config.stats;
    if (stats != nullptr)
        stats->add("abft.gemms", 1.0);

    AbftReport rep;
    ChecksumVerdict verdict =
        verifyChecksums(a, b, c, rel_tol, kAbftAbsTol);
    rep.suspectRows = verdict.rows.size();
    rep.suspectCols = verdict.cols.size();
    if (!verdict.clean() && stats != nullptr) {
        stats->add("abft.mismatches", 1.0);
        stats->add("abft.suspectRows",
                   static_cast<double>(verdict.rows.size()));
        stats->add("abft.suspectCols",
                   static_cast<double>(verdict.cols.size()));
    }

    if (!verdict.clean()) {
        ++rep.retries;
        if (stats != nullptr)
            stats->add("abft.retries", 1.0);
        // Recompute the implicated tile from one fresh product of the
        // same kernel, so a retried output is bitwise what a clean
        // first pass gives: every suspect row, or every suspect column
        // when none is a row (a cancelling corruption can implicate
        // columns alone).
        const Tensor redo = matmul(a, b);
        const std::size_t m = c.dim(0), n = c.dim(1);
        for (std::size_t i : verdict.rows)
            std::copy_n(redo.data() + i * n, n, c.data() + i * n);
        if (verdict.rows.empty())
            for (std::size_t j : verdict.cols)
                for (std::size_t i = 0; i < m; ++i)
                    c[i * n + j] = redo[i * n + j];
        // A persistently faulty accumulator corrupts the retry too;
        // a transient-upset model (corruptRetries false) retries
        // clean.
        if (config.corruptRetries && config.corruptOutput)
            config.corruptOutput(c);
        verdict = verifyChecksums(a, b, c, rel_tol, kAbftAbsTol);
    }

    if (rep.retries > 0 && verdict.clean()) {
        rep.corrected = true;
        if (stats != nullptr)
            stats->add("abft.corrected", 1.0);
    } else if (!verdict.clean()) {
        rep.escalated = true;
        if (stats != nullptr)
            stats->add("abft.escalations", 1.0);
        warn("abft: checksum mismatch survived its recompute pass "
             "(%zu suspect row(s), %zu suspect col(s)) — escalating",
             verdict.rows.size(), verdict.cols.size());
    }
    if (report != nullptr)
        *report = rep;
    return c;
}

AbftScope::AbftScope(const AbftConfig &config) : prev_(tlsActive)
{
    tlsActive = &config;
}

AbftScope::~AbftScope()
{
    tlsActive = prev_;
}

const AbftConfig *
AbftScope::active()
{
    return tlsActive;
}

} // namespace cq::abft
