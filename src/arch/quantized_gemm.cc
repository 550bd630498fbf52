/**
 * @file
 * Implementation of the functional quantized GEMM.
 */

#include "arch/quantized_gemm.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/pe_array.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/qformat.h"
#include "quant/statistics.h"

namespace cq::arch {

namespace {

/** Per-segment quantization of one operand vector of length k. */
struct SegmentedVector
{
    std::vector<std::int32_t> levels;
    std::vector<quant::IntFormat> tags; ///< one per k-segment
};

SegmentedVector
quantizeSegments(const float *data, std::size_t k, std::size_t stride,
                 std::size_t block_k, int bits)
{
    SegmentedVector out;
    out.levels.resize(k);
    for (std::size_t lo = 0; lo < k; lo += block_k) {
        const std::size_t hi = std::min(lo + block_k, k);
        quant::MaxAbsStat stat;
        for (std::size_t i = lo; i < hi; ++i)
            stat.observe(data[i * stride]);
        const quant::IntFormat fmt =
            quant::formatForMaxAbs(stat.value(), bits);
        for (std::size_t i = lo; i < hi; ++i)
            out.levels[i] =
                quant::quantizeValue(data[i * stride], fmt);
        out.tags.push_back(fmt);
    }
    return out;
}

/** The dequantized value of element @p kk of a segmented vector —
 *  exactly what the PE array multiplies. */
double
dequantAt(const SegmentedVector &v, std::size_t kk,
          std::size_t block_k)
{
    return static_cast<double>(v.levels[kk]) *
           v.tags[kk / block_k].scale;
}

/**
 * Compute output row @p i through the modeled datapath: per-segment
 * integer dot products in the wide accumulator, dequantized per
 * segment into FP32. Retries call this again and get bitwise
 * identical results.
 */
void
computeRow(const std::vector<SegmentedVector> &rows,
           const std::vector<SegmentedVector> &cols, Tensor &c,
           std::size_t i, std::size_t k, const QuantizedGemmOptions &o)
{
    const std::size_t n = cols.size();
    const std::size_t nseg = (k + o.blockK - 1) / o.blockK;
    for (std::size_t j = 0; j < n; ++j) {
        double acc_fp = 0.0;
        for (std::size_t s = 0; s < nseg; ++s) {
            const std::size_t lo = s * o.blockK;
            const std::size_t hi = std::min(lo + o.blockK, k);
            // Integer dot product of the segment: this is the
            // adder tree over bit-serial PE products, held in
            // the wide (38-bit) accumulator.
            std::int64_t acc = 0;
            for (std::size_t kk = lo; kk < hi; ++kk) {
                acc += PeArray::bitSerialMultiply(
                    rows[i].levels[kk], o.bits,
                    cols[j].levels[kk], o.bits);
            }
            CQ_ASSERT_MSG(acc < (1ll << 37) && acc > -(1ll << 37),
                          "accumulator overflow in segment");
            // Dequantizer stage: scale by both tags into FP32.
            acc_fp += PeArray::dequantize(acc, rows[i].tags[s].scale,
                                          cols[j].tags[s].scale);
        }
        c.at2(i, j) = static_cast<float>(acc_fp);
    }
}

/** Rows / columns whose checksums disagree with the predictions. */
struct Suspects
{
    std::vector<std::size_t> rows;
    std::vector<std::size_t> cols;

    bool clean() const { return rows.empty() && cols.empty(); }
};

/**
 * Verify C's row/column sums against predictions from the dequantized
 * operands. The checksum arithmetic runs in double over the exact
 * values the datapath multiplies, so only FP32 output rounding and
 * per-segment dequantization rounding contribute to the residual —
 * the tolerance is independent of the quantization error and thus of
 * the HQT operand width.
 */
Suspects
verifyChecksums(const std::vector<SegmentedVector> &rows,
                const std::vector<SegmentedVector> &cols,
                const Tensor &c, std::size_t k, std::size_t block_k,
                double rel_tol, double abs_tol)
{
    const std::size_t m = rows.size(), n = cols.size();
    // Row-sum and abs-sum of the dequantized B columns, per k index.
    std::vector<double> b_rowsum(k, 0.0), b_abssum(k, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = dequantAt(cols[j], kk, block_k);
            b_rowsum[kk] += v;
            b_abssum[kk] += std::fabs(v);
        }
    }
    std::vector<double> a_colsum(k, 0.0), a_abssum(k, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = dequantAt(rows[i], kk, block_k);
            a_colsum[kk] += v;
            a_abssum[kk] += std::fabs(v);
        }
    }

    Suspects out;
    for (std::size_t i = 0; i < m; ++i) {
        double expected = 0.0, bound = 0.0, actual = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = dequantAt(rows[i], kk, block_k);
            expected += v * b_rowsum[kk];
            bound += std::fabs(v) * b_abssum[kk];
        }
        for (std::size_t j = 0; j < n; ++j)
            actual += c.at2(i, j);
        if (std::fabs(actual - expected) > rel_tol * bound + abs_tol ||
            !std::isfinite(actual)) {
            out.rows.push_back(i);
        }
    }
    for (std::size_t j = 0; j < n; ++j) {
        double expected = 0.0, bound = 0.0, actual = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = dequantAt(cols[j], kk, block_k);
            expected += a_colsum[kk] * v;
            bound += a_abssum[kk] * std::fabs(v);
        }
        for (std::size_t i = 0; i < m; ++i)
            actual += c.at2(i, j);
        if (std::fabs(actual - expected) > rel_tol * bound + abs_tol ||
            !std::isfinite(actual)) {
            out.cols.push_back(j);
        }
    }
    return out;
}

} // namespace

Tensor
quantizedMatmul(const Tensor &a, const Tensor &b,
                const QuantizedGemmOptions &options,
                abft::AbftReport *report)
{
    CQ_ASSERT(a.ndim() == 2 && b.ndim() == 2);
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    CQ_ASSERT(b.dim(0) == k);
    CQ_ASSERT(options.blockK > 0);

    CQ_TRACE_SCOPE("gemm.quantized");
    static obs::Counter &gemmCalls =
        obs::MetricRegistry::instance().counter("gemm.quantized_calls");
    static obs::Counter &gemmMacs =
        obs::MetricRegistry::instance().counter("gemm.quantized_macs");
    gemmCalls.inc();
    gemmMacs.add(static_cast<double>(m) * static_cast<double>(k) *
                 static_cast<double>(n));

    // Quantize every A row and B column segment-wise (what the SQU
    // produces into NBin/SB, with QBC tags per line). Rows and
    // columns are quantized independently of each other.
    std::vector<SegmentedVector> rows(m);
    std::vector<SegmentedVector> cols(n);
    {
        CQ_TRACE_SCOPE("squ.quantize");
        parallelFor(0, m, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                rows[i] = quantizeSegments(a.data() + i * k, k, 1,
                                           options.blockK,
                                           options.bits);
        });
        parallelFor(0, n, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t j = lo; j < hi; ++j)
                cols[j] = quantizeSegments(b.data() + j, k, n,
                                           options.blockK,
                                           options.bits);
        });
    }

    Tensor c({m, n});
    // Output rows are independent; the per-element segment
    // accumulation order never changes with the thread count.
    parallelFor(0, m, 1, [&](std::size_t ilo, std::size_t ihi) {
        for (std::size_t i = ilo; i < ihi; ++i)
            computeRow(rows, cols, c, i, k, options);
    });

    const QuantizedGemmAbft &abft_cfg = options.abft;
    if (abft_cfg.faults != nullptr) {
        // Upsets in the accumulators / output tile, landing after the
        // compute and before the checksum verification (serial on the
        // calling thread, deterministic at any CQ_THREADS).
        abft_cfg.faults->maybeCorrupt(c.data(), c.numel(),
                                      sim::FaultSite::Accumulators);
    }
    if (!abft_cfg.verify)
        return c;

    const double rel_tol = abft::abftAutoRelTol(k);
    StatGroup *stats = abft_cfg.stats;
    if (stats != nullptr)
        stats->add("abft.gemms", 1.0);

    abft::AbftReport rep;
    Suspects suspects = verifyChecksums(rows, cols, c, k,
                                        options.blockK, rel_tol,
                                        abft::kAbftAbsTol);
    rep.suspectRows = suspects.rows.size();
    rep.suspectCols = suspects.cols.size();
    if (!suspects.clean() && stats != nullptr) {
        stats->add("abft.mismatches", 1.0);
        stats->add("abft.suspectRows",
                   static_cast<double>(suspects.rows.size()));
        stats->add("abft.suspectCols",
                   static_cast<double>(suspects.cols.size()));
    }

    if (!suspects.clean()) {
        ++rep.retries;
        if (stats != nullptr)
            stats->add("abft.retries", 1.0);
        if (!suspects.rows.empty()) {
            for (std::size_t i : suspects.rows)
                computeRow(rows, cols, c, i, k, options);
        } else {
            // Column-only implication (a row-sum cancellation):
            // recomputing the full rows those columns cross is the
            // tile granularity the accumulators redo.
            for (std::size_t i = 0; i < m; ++i)
                computeRow(rows, cols, c, i, k, options);
        }
        if (abft_cfg.corruptRetries && abft_cfg.faults != nullptr) {
            abft_cfg.faults->maybeCorrupt(
                c.data(), c.numel(), sim::FaultSite::Accumulators);
        }
        suspects = verifyChecksums(rows, cols, c, k, options.blockK,
                                   rel_tol, abft::kAbftAbsTol);
    }

    if (rep.retries > 0 && suspects.clean()) {
        rep.corrected = true;
        if (stats != nullptr)
            stats->add("abft.corrected", 1.0);
    } else if (!suspects.clean()) {
        rep.escalated = true;
        if (stats != nullptr)
            stats->add("abft.escalations", 1.0);
        warn("abft: quantized GEMM checksum mismatch survived its "
             "recompute pass (%zu row(s), %zu col(s))",
             suspects.rows.size(), suspects.cols.size());
    }
    if (report != nullptr)
        *report = rep;
    return c;
}

} // namespace cq::arch
