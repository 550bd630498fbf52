/**
 * @file
 * Implementation of E2BQM.
 */

#include "quant/e2bqm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/threadpool.h"
#include "obs/trace.h"

namespace cq::quant {

std::string
QuantCandidate::toString() const
{
    std::ostringstream os;
    os << "INT" << bits;
    if (clipRatio != 1.0)
        os << " clip=" << clipRatio;
    if (shift > 0)
        os << " shift=" << shift;
    return os.str();
}

Tensor
CandidateResult::dequantize(const Shape &shape) const
{
    CQ_ASSERT(levels.size() == shapeNumel(shape));
    Tensor out(shape);
    if (candidate.shift > 0) {
        const IntFormat fine = format;
        IntFormat wide = format;
        wide.scale = format.scale * static_cast<double>(1 << candidate.shift);
        for (std::size_t i = 0; i < levels.size(); ++i) {
            const IntFormat &f = wideBits[i] ? wide : fine;
            out[i] = static_cast<float>(dequantizeValue(levels[i], f));
        }
    } else {
        for (std::size_t i = 0; i < levels.size(); ++i)
            out[i] = static_cast<float>(dequantizeValue(levels[i], format));
    }
    return out;
}

E2bqmConfig
E2bqmConfig::clippingLadder(int bits, ErrorMetric metric)
{
    E2bqmConfig cfg;
    cfg.metric = metric;
    for (double ratio : {1.0, 0.5, 0.25, 0.125})
        cfg.candidates.push_back({bits, ratio, 0});
    return cfg;
}

E2bqmConfig
E2bqmConfig::shiftableLadder(int bits, ErrorMetric metric)
{
    E2bqmConfig cfg;
    cfg.metric = metric;
    cfg.candidates.push_back({bits, 1.0, 0});
    for (int shift : {1, 2, 3})
        cfg.candidates.push_back({bits, 1.0, shift});
    return cfg;
}

E2bqmConfig
E2bqmConfig::adaptivePrecision(ErrorMetric metric)
{
    E2bqmConfig cfg;
    cfg.metric = metric;
    cfg.candidates.push_back({8, 1.0, 0});
    cfg.candidates.push_back({16, 1.0, 0});
    return cfg;
}

namespace {

/**
 * One candidate's formats for one block, fixed by the block's max-abs
 * statistic: a plain format, or a shiftable fine/wide pair.
 */
struct CandidatePlan
{
    CandidatePlan(const QuantCandidate &cand, double max_abs)
        : shiftable(cand.shift > 0)
    {
        if (shiftable) {
            const ShiftableFormat sf = shiftableForMaxAbs(
                max_abs * cand.clipRatio, cand.bits, cand.shift);
            fine = sf.fine();
            wide = sf.wide();
        } else {
            fine = wide = formatForMaxAbs(max_abs * cand.clipRatio,
                                          cand.bits);
        }
        fineRange = static_cast<double>(fine.qmax()) * fine.scale;
    }

    bool shiftable;
    IntFormat fine;
    /** Equal to fine for a plain candidate. */
    IntFormat wide;
    double fineRange;
};

/** One element through one candidate. */
struct ElementQuant
{
    std::int32_t level;
    /** Scale-select bit: the level is in the wide format. */
    bool wide;
    /** The dequantized value the error statistic compares against. */
    double deq;
};

/**
 * Quantize one element with one candidate. A shiftable candidate
 * picks the element's scale greedily, as fakeQuantizeShiftable does,
 * and forces the wide scale beyond the fine range.
 */
inline ElementQuant
quantizeElement(double v, const CandidatePlan &plan)
{
    const std::int32_t qf = quantizeValue(v, plan.fine);
    const double vf = dequantizeValue(qf, plan.fine);
    if (!plan.shiftable)
        return {qf, false, vf};
    const std::int32_t qw = quantizeValue(v, plan.wide);
    const double vw = dequantizeValue(qw, plan.wide);
    const bool use_wide = std::fabs(v) > plan.fineRange ||
                          std::fabs(vw - v) < std::fabs(vf - v);
    return use_wide ? ElementQuant{qw, true, vw}
                    : ElementQuant{qf, false, vf};
}

/**
 * The arbiter's comparison: does a candidate with @p error and
 * @p bits beat the current best? Smaller |error| wins; errors within
 * kArbitrationRelEps (relative) of each other tie, and a tie goes to
 * fewer bits, else stays with the earlier candidate.
 */
bool
beatsBest(double error, int bits, double best_error, int best_bits)
{
    // Signed metrics (MeanBias) arbitrate on magnitude.
    const double ea = std::fabs(error);
    const double eb = std::fabs(best_error);
    const double tol = kArbitrationRelEps * std::max(ea, eb);
    if (std::fabs(ea - eb) <= tol)
        return bits < best_bits; // (near-)equal: the cheaper format
    return ea < eb;
}

/**
 * Hardware-faithful candidate pass: every element's level and
 * scale-select bit are recorded, and the error accumulates every
 * metric.
 */
CandidateResult
runCandidate(const Tensor &x, double max_abs, const QuantCandidate &cand,
             ErrorMetric metric)
{
    const CandidatePlan plan(cand, max_abs);
    CandidateResult res;
    res.candidate = cand;
    res.format = plan.fine;
    res.levels.resize(x.numel());
    if (plan.shiftable)
        res.wideBits.resize(x.numel());
    ErrorStat err;
    for (std::size_t i = 0; i < x.numel(); ++i) {
        const double v = x[i];
        const ElementQuant e = quantizeElement(v, plan);
        res.levels[i] = static_cast<std::int16_t>(e.level);
        if (plan.shiftable)
            res.wideBits[i] = e.wide ? 1 : 0;
        err.observe(v, e.deq);
    }
    res.error = err.value(metric);
    return res;
}

/** Elements per chunk of the vectorized plain-candidate path. */
constexpr std::size_t kChunk = 16;

/**
 * A block's max-abs statistic, equal to MaxAbsStat over x[0, n), and
 * whether every element is finite. Sixteen float lanes keep running
 * maxima, which GCC vectorizes at -O2. The result does not depend on
 * the order: every |x| is >= +0, a NaN is skipped (as MaxAbsStat
 * skips it), and widening the float maximum to double gives the
 * maximum of the widened values.
 */
double
blockMaxAbs(const float *x, std::size_t n, bool &finite)
{
    float lane[kChunk] = {};
    std::uint32_t nonFinite[kChunk] = {};
    std::size_t i = 0;
    for (; i + kChunk <= n; i += kChunk) {
        for (std::size_t t = 0; t < kChunk; ++t) {
            const float a = std::fabs(x[i + t]);
            lane[t] = lane[t] < a ? a : lane[t];
            // a <= FLT_MAX fails only for a NaN or an Inf.
            nonFinite[t] |= !(a <= std::numeric_limits<float>::max());
        }
    }
    MaxAbsStat stat;
    finite = true;
    for (std::size_t t = 0; t < kChunk; ++t) {
        stat.observe(lane[t]);
        finite &= nonFinite[t] == 0;
    }
    for (; i < n; ++i) {
        stat.observe(x[i]);
        finite &= std::isfinite(x[i]);
    }
    return stat.value();
}

/**
 * The plain-candidate path over x[0, n) of a block whose elements are
 * all finite: each full chunk's dequantized values, computed as
 * rint(clamp(x / scale)) * scale, go to @p use(first, deq). Returns
 * where the scalar tail begins: 0 for a shiftable candidate or a
 * block holding a NaN or Inf, which keep quantizeElement.
 *
 * Bitwise equal to quantizeElement's deq (and to the dequantized
 * int16 level) because:
 * - qmin and qmax are integers, so clamping before rounding gives
 *   the level that rounding before clamping does;
 * - the clamped |y| <= 32767, and adding then subtracting 1.5 * 2^52
 *   rounds it to the nearest integer, ties to even, as std::rint
 *   does, except that a zero comes out +0, as the int level's does;
 * - a finite x over a finite scale gives a finite y. An Inf block's
 *   scale is Inf and Inf / Inf is NaN, whose level is INT32_MIN.
 * The chunk loop has a constant trip count and writes a local array,
 * which GCC vectorizes at -O2.
 */
template <typename Use>
std::size_t
plainChunks(const float *x, std::size_t n, const CandidatePlan &plan,
            bool finite, Use &&use)
{
    if (plan.shiftable || !finite)
        return 0;
    const double scale = plan.fine.scale;
    const double lo = plan.fine.qmin();
    const double hi = plan.fine.qmax();
    constexpr double kRound = 0x1.8p52;
    double deq[kChunk];
    std::size_t i = 0;
    for (; i + kChunk <= n; i += kChunk) {
        for (std::size_t t = 0; t < kChunk; ++t) {
            double y = static_cast<double>(x[i + t]) / scale;
            y = y < lo ? lo : y;
            y = y > hi ? hi : y;
            deq[t] = ((y + kRound) - kRound) * scale;
        }
        use(i, static_cast<const double *>(deq));
    }
    return i;
}

/**
 * One candidate's error over @p n elements, metric @p M only,
 * accumulated in ascending element order.
 */
template <ErrorMetric M>
double
candidateError(const float *x, std::size_t n, const CandidatePlan &plan,
               bool finite)
{
    ErrorStat err;
    std::size_t i = plainChunks(
        x, n, plan, finite, [&](std::size_t first, const double *deq) {
            for (std::size_t t = 0; t < kChunk; ++t)
                err.observeFor<M>(x[first + t], deq[t]);
        });
    for (; i < n; ++i) {
        const double v = x[i];
        err.observeFor<M>(v, quantizeElement(v, plan).deq);
    }
    return err.value(M);
}

double
candidateError(const float *x, std::size_t n, const CandidatePlan &plan,
               bool finite, ErrorMetric metric)
{
    switch (metric) {
      case ErrorMetric::Rectilinear:
        return candidateError<ErrorMetric::Rectilinear>(x, n, plan, finite);
      case ErrorMetric::CosineDistance:
        return candidateError<ErrorMetric::CosineDistance>(x, n, plan,
                                                           finite);
      case ErrorMetric::MeanBias:
        return candidateError<ErrorMetric::MeanBias>(x, n, plan, finite);
      case ErrorMetric::MaxError:
        return candidateError<ErrorMetric::MaxError>(x, n, plan, finite);
    }
    panic("unknown error metric");
}

/**
 * fakeQuantizeE2bqm/Hqt: E2BQM over @p nblocks consecutive blocks of
 * @p x, fused the way the SQU streams a buffered block (Sec. III-B):
 * the max-abs statistic, each candidate's error (the configured
 * metric only; candidates split across the pool when this is not
 * already a pool chunk), arbitration, then only the winner is
 * quantized, straight into the output. Plain candidates on a finite
 * block run 16 elements at a time (plainChunks). Nothing is
 * allocated per block.
 */
Tensor
fakeQuantizeBlocks(const Tensor &x, std::size_t block_size,
                   std::size_t nblocks, const E2bqmConfig &config,
                   E2bqmSelectionInfo *info)
{
    CQ_ASSERT_MSG(!config.candidates.empty(),
                  "E2BQM requires at least one candidate");
    CQ_TRACE_SCOPE("quant.e2bqm_sweep");
    const std::vector<QuantCandidate> &cands = config.candidates;
    const std::size_t n = x.numel();
    Tensor out(x.shape());
    // Chosen bit widths land in a per-block slot (disjoint writes)
    // and are tallied serially after the join, so requesting the info
    // stays race-free and thread-count independent.
    std::vector<int> chosenBits;
    if (info != nullptr)
        chosenBits.resize(nblocks, 0);
    // Blocks are quantized independently and write disjoint output
    // slices; the nested candidate loop then runs inline.
    parallelFor(0, nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
        std::vector<double> errors(cands.size());
        const float *xb = nullptr;
        std::size_t len = 0;
        double max_abs = 0.0;
        bool finite = true;
        // Built once per chunk, so no block allocates a closure.
        const ThreadPool::RangeFn candidateErrors =
            [&](std::size_t clo, std::size_t chi) {
                for (std::size_t c = clo; c < chi; ++c)
                    errors[c] = candidateError(
                        xb, len, CandidatePlan(cands[c], max_abs), finite,
                        config.metric);
            };
        for (std::size_t blk = blo; blk < bhi; ++blk) {
            const std::size_t lo = blk * block_size;
            xb = x.data() + lo;
            len = std::min(lo + block_size, n) - lo;
            max_abs = blockMaxAbs(xb, len, finite);
            // A lone candidate wins whatever its error, so its error
            // pass is skipped.
            if (cands.size() > 1)
                parallelFor(0, cands.size(), 1, candidateErrors);
            std::size_t best = 0;
            for (std::size_t c = 1; c < cands.size(); ++c)
                if (beatsBest(errors[c], cands[c].bits, errors[best],
                              cands[best].bits))
                    best = c;
            // The output is what the hardware reconstructs from the
            // int16 level it stores (CandidateResult::dequantize).
            const CandidatePlan plan(cands[best], max_abs);
            float *ob = out.data() + lo;
            std::size_t i = plainChunks(
                xb, len, plan, finite,
                [&](std::size_t first, const double *deq) {
                    for (std::size_t t = 0; t < kChunk; ++t)
                        ob[first + t] = static_cast<float>(deq[t]);
                });
            for (; i < len; ++i) {
                const ElementQuant e = quantizeElement(xb[i], plan);
                ob[i] = static_cast<float>(dequantizeValue(
                    static_cast<std::int16_t>(e.level),
                    e.wide ? plan.wide : plan.fine));
            }
            if (info != nullptr)
                chosenBits[blk] = cands[best].bits;
        }
    });
    if (info != nullptr) {
        for (int bits : chosenBits)
            ++info->bitsTally[bits];
    }
    return out;
}

} // namespace

std::size_t
arbitrate(const std::vector<CandidateResult> &candidates)
{
    CQ_ASSERT(!candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i)
        if (beatsBest(candidates[i].error, candidates[i].candidate.bits,
                      candidates[best].error,
                      candidates[best].candidate.bits))
            best = i;
    return best;
}

E2bqmResult
e2bqmQuantize(const Tensor &x, const E2bqmConfig &config)
{
    CQ_ASSERT_MSG(!config.candidates.empty(),
                  "E2BQM requires at least one candidate");
    // Deliberately span-free, like the per-block sweep it mirrors.
    // Step 1: one-pass statistic over the original data.
    MaxAbsStat stat;
    for (std::size_t i = 0; i < x.numel(); ++i)
        stat.observe(x[i]);
    const double max_abs = stat.value();

    // Steps 2+3: time-multiplexed candidate quantization with fused
    // error estimation (the SQU re-reads the *buffered* block, not
    // memory). Candidates only read x, so the sweep runs one
    // candidate per chunk; each candidate's streaming error
    // accumulation stays a single sequential pass.
    E2bqmResult result;
    result.candidates.resize(config.candidates.size());
    parallelFor(0, config.candidates.size(), 1,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) {
                        result.candidates[i] = runCandidate(
                            x, max_abs, config.candidates[i],
                            config.metric);
                    }
                });

    // Step 4: arbitration.
    result.selected = arbitrate(result.candidates);
    return result;
}

Tensor
fakeQuantizeE2bqm(const Tensor &x, const E2bqmConfig &config,
                  E2bqmSelectionInfo *info)
{
    // One block spanning the tensor (one block even when empty).
    return fakeQuantizeBlocks(x, std::max<std::size_t>(x.numel(), 1), 1,
                              config, info);
}

Tensor
fakeQuantizeHqt(const Tensor &x, std::size_t block_size,
                const E2bqmConfig &config, E2bqmSelectionInfo *info)
{
    CQ_ASSERT(block_size > 0);
    return fakeQuantizeBlocks(x, block_size,
                              (x.numel() + block_size - 1) / block_size,
                              config, info);
}

} // namespace cq::quant
