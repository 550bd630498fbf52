/**
 * @file
 * Implementation of tensor operations.
 */

#include "tensor/tensor_ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/threadpool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/abft.h"

namespace cq {

namespace {

void
checkSameShape(const Tensor &a, const Tensor &b, const char *op)
{
    CQ_ASSERT_MSG(a.shape() == b.shape(), "%s: shape mismatch %s vs %s",
                  op, shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
}

/** Minimum elements per chunk for elementwise loops. */
constexpr std::size_t kElementwiseGrain = 1 << 14;

/** Minimum scalar operations worth shipping to another thread. */
constexpr std::size_t kMinParallelWork = 1 << 15;

/**
 * Grain (rows per chunk) for a loop whose every index costs
 * @p work_per_row scalar operations: small matrices stay serial,
 * large ones split into one chunk per thread.
 */
std::size_t
rowGrain(std::size_t work_per_row)
{
    return std::max<std::size_t>(
        1, kMinParallelWork / std::max<std::size_t>(work_per_row, 1));
}

/**
 * The kernel taps t in [0, kernel) that land inside the image, i.e.
 * 0 <= origin + t < extent, as the range [first, second).
 */
std::pair<std::size_t, std::size_t>
validTaps(std::ptrdiff_t origin, std::size_t kernel, std::size_t extent)
{
    const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(kernel);
    const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-origin, 0, k);
    const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(extent) - origin, lo, k);
    return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

/**
 * For each input coordinate i in [0, extent), the outputs o whose
 * window of @p kernel taps at @p stride (after @p pad) covers i, i.e.
 * 0 <= i + pad - o * stride < kernel, as the range [first, second)
 * clipped to [0, outExtent).
 */
std::vector<std::pair<std::size_t, std::size_t>>
coveringOutputs(std::size_t extent, std::size_t outExtent,
                std::size_t kernel, std::size_t stride, std::size_t pad)
{
    std::vector<std::pair<std::size_t, std::size_t>> cover(extent);
    for (std::size_t i = 0; i < extent; ++i) {
        const std::size_t at = i + pad;
        const std::size_t hi = std::min(outExtent, at / stride + 1);
        const std::size_t lo =
            at < kernel ? 0 : (at - kernel) / stride + 1;
        cover[i] = {std::min(lo, hi), hi};
    }
    return cover;
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "add");
    Tensor c(a.shape());
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        c[i] = a[i] + b[i];
                });
    return c;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "sub");
    Tensor c(a.shape());
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        c[i] = a[i] - b[i];
                });
    return c;
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "mul");
    Tensor c(a.shape());
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        c[i] = a[i] * b[i];
                });
    return c;
}

Tensor
scale(const Tensor &a, float s)
{
    Tensor c(a.shape());
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        c[i] = a[i] * s;
                });
    return c;
}

void
accumulate(Tensor &a, const Tensor &b, float s)
{
    checkSameShape(a, b, "accumulate");
    parallelFor(0, a.numel(), kElementwiseGrain,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        a[i] += b[i] * s;
                });
}

namespace {

/**
 * Columns [0, W) of one output row of a float GEMM: the W partial
 * sums stay in registers over the whole k loop. @p arow walks the row
 * of op(A) at stride @p lda; each sum starts at +0 and adds av * b in
 * ascending k. A term with av == 0 (of either sign) must leave the
 * sum as skipping it would. Over a finite B its product is +0 or -0,
 * and adding either leaves the sum bitwise unchanged (in
 * round-to-nearest a sum that starts at +0 can never become -0), so
 * it is added as it is. When B holds an Inf or NaN (@p Masked), 0 *
 * Inf or 0 * NaN would be NaN, so the product is masked to +0.
 */
template <std::size_t W, bool Masked>
void
floatTile(const float *arow, std::size_t lda, const float *b,
          std::size_t n, std::size_t k, float *crow)
{
    float acc[W] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk * lda];
        const float *brow = b + kk * n;
        if constexpr (Masked) {
            const std::uint32_t keep =
                0u - static_cast<std::uint32_t>(av != 0.0f);
#pragma GCC unroll 16
            for (std::size_t t = 0; t < W; ++t)
                acc[t] += std::bit_cast<float>(
                    std::bit_cast<std::uint32_t>(av * brow[t]) & keep);
        } else {
#pragma GCC unroll 16
            for (std::size_t t = 0; t < W; ++t)
                acc[t] += av * brow[t];
        }
    }
#pragma GCC unroll 16
    for (std::size_t t = 0; t < W; ++t)
        crow[t] = acc[t];
}

/**
 * Rows [lo, hi) of an (m x n) product, walked one column strip at a
 * time (W = 16, 8 or 4, then single columns) so the strip of B stays
 * in cache across the rows. @p tile(W-tag, i, j) computes row i,
 * columns [j, j + W).
 */
template <typename Tile>
void
forEachTile(std::size_t n, std::size_t lo, std::size_t hi, Tile &&tile)
{
    auto strip = [&](auto width, std::size_t j) {
        for (std::size_t i = lo; i < hi; ++i)
            tile(width, i, j);
    };
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16)
        strip(std::integral_constant<std::size_t, 16>{}, j);
    if (j + 8 <= n) {
        strip(std::integral_constant<std::size_t, 8>{}, j);
        j += 8;
    }
    if (j + 4 <= n) {
        strip(std::integral_constant<std::size_t, 4>{}, j);
        j += 4;
    }
    for (; j < n; ++j)
        strip(std::integral_constant<std::size_t, 1>{}, j);
}

/**
 * The one float GEMM core of matmul, matmulTransA and matmulTransB:
 * C = op(A) * B with op(A)(i, kk) = a[i * rs + kk * ks] and B (k x n).
 * Output rows are chunked across the pool; each output is summed by
 * floatTile in ascending k whatever the chunking, so the result is
 * bitwise independent of the thread count. One scan of B picks the
 * masked tile when B holds an Inf or NaN.
 */
Tensor
floatGemm(const float *a, std::size_t rs, std::size_t ks, const Tensor &b,
          std::size_t m, std::size_t k)
{
    const std::size_t n = b.dim(1);
    Tensor c({m, n});
    if (k == 0)
        return c;
    const float *pb = b.data();
    float *pc = c.data();
    const bool masked = !std::all_of(
        pb, pb + b.numel(), [](float v) { return std::isfinite(v); });
    parallelFor(0, m, rowGrain(k * n), [&](std::size_t lo, std::size_t hi) {
        forEachTile(n, lo, hi, [&](auto width, std::size_t i,
                                   std::size_t j) {
            constexpr std::size_t w = decltype(width)::value;
            if (masked)
                floatTile<w, true>(a + i * rs, ks, pb + j, n, k,
                                   pc + i * n + j);
            else
                floatTile<w, false>(a + i * rs, ks, pb + j, n, k,
                                    pc + i * n + j);
        });
    });
    return c;
}

void
countGemm(std::size_t m, std::size_t k, std::size_t n)
{
    static obs::Counter &calls =
        obs::MetricRegistry::instance().counter("gemm.calls");
    static obs::Counter &macs =
        obs::MetricRegistry::instance().counter("gemm.macs");
    calls.inc();
    macs.add(static_cast<double>(m) * static_cast<double>(k) *
             static_cast<double>(n));
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    CQ_ASSERT_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "matmul: expects rank-2 operands, got %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    CQ_ASSERT_MSG(b.dim(0) == k, "matmul: inner dims disagree, %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    // Inside an ABFT scope the product is checksum-verified; the
    // checksum pass recurses into this function scope-suspended.
    if (const abft::AbftConfig *cfg = abft::AbftScope::active())
        return abft::abftMatmul(a, b, *cfg);
    CQ_TRACE_SCOPE("gemm.matmul");
    countGemm(m, k, n);
    return floatGemm(a.data(), k, 1, b, m, k);
}

Tensor
matmulTransA(const Tensor &a, const Tensor &b)
{
    CQ_ASSERT_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "matmulTransA: expects rank-2 operands, got %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    CQ_ASSERT_MSG(b.dim(0) == k,
                  "matmulTransA: A^T rows %zu != B rows %zu (%s^T x %s)",
                  k, b.dim(0), shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    CQ_TRACE_SCOPE("gemm.matmulTransA");
    countGemm(m, k, n);
    return floatGemm(a.data(), 1, m, b, m, k);
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    CQ_ASSERT_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "matmulTransB: expects rank-2 operands, got %s x %s",
                  shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    CQ_ASSERT_MSG(b.dim(1) == k,
                  "matmulTransB: A cols %zu != B^T rows %zu (%s x %s^T)",
                  k, b.dim(1), shapeToString(a.shape()).c_str(),
                  shapeToString(b.shape()).c_str());
    CQ_TRACE_SCOPE("gemm.matmulTransB");
    countGemm(m, k, n);
    // B^T is packed once into the (k x n) operand the kernel reads.
    // The kernel is called directly, not through matmul, so an ABFT
    // scope still reroutes matmul alone.
    return floatGemm(a.data(), k, 1, transpose(b), m, k);
}

Tensor
transpose(const Tensor &a)
{
    CQ_ASSERT_MSG(a.ndim() == 2, "transpose: expects rank 2, got %s",
                  shapeToString(a.shape()).c_str());
    const std::size_t m = a.dim(0), n = a.dim(1);
    Tensor c({n, m});
    const float *src = a.data();
    float *dst = c.data();
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            dst[j * m + i] = src[i * n + j];
    return c;
}

std::size_t
Conv2dGeometry::outH(std::size_t h) const
{
    CQ_ASSERT_MSG(h + 2 * pad >= kernelH,
                  "conv geometry: height %zu + 2*pad %zu < kernelH %zu",
                  h, pad, kernelH);
    return (h + 2 * pad - kernelH) / stride + 1;
}

std::size_t
Conv2dGeometry::outW(std::size_t w) const
{
    CQ_ASSERT_MSG(w + 2 * pad >= kernelW,
                  "conv geometry: width %zu + 2*pad %zu < kernelW %zu",
                  w, pad, kernelW);
    return (w + 2 * pad - kernelW) / stride + 1;
}

Tensor
im2col(const Tensor &input, const Conv2dGeometry &g)
{
    CQ_ASSERT_MSG(input.ndim() == 4, "im2col: expects NCHW, got %s",
                  shapeToString(input.shape()).c_str());
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    CQ_ASSERT_MSG(c == g.inChannels,
                  "im2col: input %s has %zu channels, geometry wants %zu",
                  shapeToString(input.shape()).c_str(), c, g.inChannels);
    const std::size_t p = g.outH(h), q = g.outW(w);
    const std::size_t patch = c * g.kernelH * g.kernelW;

    CQ_TRACE_SCOPE("tensor.im2col");
    // Zero-filled, so only the taps inside the image are written.
    Tensor cols({n * p * q, patch});
    const float *src = input.data();
    float *out = cols.data();
    const std::size_t taps = g.kernelH * g.kernelW;
    const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(w);
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(g.pad);
    // The unit of work is one output row (in, oy): its q patch rows
    // are written by it alone, so any chunking is race-free.
    parallelFor(0, n * p, rowGrain(q * patch),
                [&](std::size_t lo, std::size_t hi) {
        // Unit lo's (in, oy), then counters: no division per row.
        std::size_t in = lo / p, oy = lo % p;
        for (std::size_t u = lo; u < hi; ++u) {
            const std::ptrdiff_t y0 =
                static_cast<std::ptrdiff_t>(oy * g.stride) - pad;
            const auto [ky0, ky1] = validTaps(y0, g.kernelH, h);
            const float *image = src + in * c * h * w;
            float *row = out + u * q * patch;
            for (std::size_t ox = 0; ox < q; ++ox, row += patch) {
                const std::ptrdiff_t x0 =
                    static_cast<std::ptrdiff_t>(ox * g.stride) - pad;
                const auto [kx0, kx1] = validTaps(x0, g.kernelW, w);
                if (kx0 == kx1)
                    continue;
                for (std::size_t ic = 0; ic < c; ++ic) {
                    const float *plane = image + ic * h * w;
                    float *slots = row + ic * taps;
                    // From each line's first tap inside the image.
                    for (std::size_t ky = ky0; ky < ky1; ++ky) {
                        const float *line =
                            plane +
                            ((y0 + static_cast<std::ptrdiff_t>(ky)) * iw +
                             x0 + static_cast<std::ptrdiff_t>(kx0));
                        float *dst = slots + ky * g.kernelW + kx0;
                        for (std::size_t kx = 0; kx < kx1 - kx0; ++kx)
                            dst[kx] = line[kx];
                    }
                }
            }
            if (++oy == p) {
                oy = 0;
                ++in;
            }
        }
    });
    return cols;
}

Tensor
col2im(const Tensor &cols, const Shape &inputShape, const Conv2dGeometry &g)
{
    CQ_ASSERT_MSG(inputShape.size() == 4, "col2im: expects NCHW, got %s",
                  shapeToString(inputShape).c_str());
    const std::size_t n = inputShape[0], c = inputShape[1];
    const std::size_t h = inputShape[2], w = inputShape[3];
    const std::size_t p = g.outH(h), q = g.outW(w);
    const std::size_t patch = c * g.kernelH * g.kernelW;
    CQ_ASSERT_MSG(cols.ndim() == 2 && cols.dim(0) == n * p * q &&
                      cols.dim(1) == patch,
                  "col2im: cols %s incompatible with input %s "
                  "(want [%zu, %zu])",
                  shapeToString(cols.shape()).c_str(),
                  shapeToString(inputShape).c_str(), n * p * q, patch);

    CQ_TRACE_SCOPE("tensor.col2im");
    Tensor out(inputShape);
    const float *in = cols.data();
    float *dst = out.data();
    const std::size_t taps = g.kernelH * g.kernelW;
    const auto coverH = coveringOutputs(h, p, g.kernelH, g.stride, g.pad);
    const auto coverW = coveringOutputs(w, q, g.kernelW, g.stride, g.pad);
    // Each pixel gathers its taps into a register. For one pixel every
    // (oy, ox) holds at most one tap, and the gather adds them in
    // ascending (oy, ox) from +0, the order in which a scatter over
    // (oy, ox, ky, kx) would add them into the zeroed output, so every
    // sum is the same. Planes are disjoint, so any chunking is exact.
    parallelFor(0, n * c, rowGrain(p * q * taps),
                [&](std::size_t lo, std::size_t hi) {
        for (std::size_t plane = lo; plane < hi; ++plane) {
            const float *src =
                in + plane / c * p * q * patch + plane % c * taps;
            float *pix = dst + plane * h * w;
            for (std::size_t iy = 0; iy < h; ++iy) {
                const auto [oy0, oy1] = coverH[iy];
                for (std::size_t ix = 0; ix < w; ++ix) {
                    const auto [ox0, ox1] = coverW[ix];
                    const std::size_t kx0 = ix + g.pad - ox0 * g.stride;
                    float acc = 0.0f;
                    for (std::size_t oy = oy0; oy < oy1; ++oy) {
                        // Tap (ky, kx0) of output (oy, ox0); each later
                        // ox is one row on and stride taps back.
                        const std::size_t ky = iy + g.pad - oy * g.stride;
                        std::size_t at =
                            (oy * q + ox0) * patch + ky * g.kernelW + kx0;
                        for (std::size_t ox = ox0; ox < ox1; ++ox) {
                            acc += src[at];
                            at += patch - g.stride;
                        }
                    }
                    pix[iy * w + ix] = acc;
                }
            }
        }
    });
    return out;
}

double
rectilinearDistance(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "rectilinearDistance");
    double d = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        d += std::fabs(static_cast<double>(a[i]) - b[i]);
    return d;
}

double
cosineSimilarity(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "cosineSimilarity");
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        dot += static_cast<double>(a[i]) * b[i];
        na += static_cast<double>(a[i]) * a[i];
        nb += static_cast<double>(b[i]) * b[i];
    }
    if (na == 0.0 || nb == 0.0)
        return na == nb ? 1.0 : 0.0;
    return dot / (std::sqrt(na) * std::sqrt(nb));
}

double
meanBias(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "meanBias");
    if (a.numel() == 0)
        return 0.0;
    double d = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        d += static_cast<double>(a[i]) - b[i];
    return d / static_cast<double>(a.numel());
}

double
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "maxAbsDiff");
    double d = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        d = std::max(d, std::fabs(static_cast<double>(a[i]) - b[i]));
    return d;
}

double
rmse(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "rmse");
    if (a.numel() == 0)
        return 0.0;
    double s = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        s += d * d;
    }
    return std::sqrt(s / static_cast<double>(a.numel()));
}

} // namespace cq
