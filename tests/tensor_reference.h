/**
 * @file
 * Test oracle for the trainer kernels: the plain loops they replaced.
 *
 * matmul, matmulTransA and matmulTransB share one register-tiled
 * kernel, im2col/col2im index raw pointers, and
 * fakeQuantizeE2bqm/fakeQuantizeHqt run a fused, allocation-free sweep
 * per block. Each stays bitwise equal to the straightforward
 * formulation kept here (referenceMatmul is the one GEMM oracle),
 * which the differential tests in test_tensor.cc and test_quant.cc
 * compare against. The attention core is the exception: its old
 * double-sum loops are kept to show that the GEMM version computes the
 * same function within float rounding (test_nn.cc). Test-only and
 * deliberately unoptimized: keep it a literal statement of the
 * numerics, not a second fast path. diffOperand seeds the operands of
 * these tests and of the layer oracles' (layer_reference.h).
 */

#ifndef CQ_TESTS_TENSOR_REFERENCE_H
#define CQ_TESTS_TENSOR_REFERENCE_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/rng.h"
#include "nn/softmax.h"
#include "quant/e2bqm.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace cq::test {

/**
 * "" when @p got and @p want have the same shape, every non-NaN
 * element is bitwise equal and the NaNs sit at the same positions
 * (their payload bits may differ); otherwise the first difference.
 */
inline std::string
bitDifference(const Tensor &got, const Tensor &want)
{
    if (got.shape() != want.shape())
        return "shape " + shapeToString(got.shape()) + " vs " +
               shapeToString(want.shape());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        const bool nanGot = std::isnan(got[i]);
        const bool nanWant = std::isnan(want[i]);
        if (nanGot && nanWant)
            continue;
        if (nanGot != nanWant || std::bit_cast<std::uint32_t>(got[i]) !=
                                     std::bit_cast<std::uint32_t>(want[i]))
            return "element " + std::to_string(i) + ": " +
                   std::to_string(got[i]) + " vs " +
                   std::to_string(want[i]);
    }
    return "";
}

/**
 * Seeded operand: N(0, 1) with a @p zero_frac share of +0/-0 (ReLU-like
 * sparsity) and, when @p specials, ~3 % subnormals, +-Inf and NaN.
 */
inline Tensor
diffOperand(Rng &rng, Shape shape, double zero_frac, bool specials)
{
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.numel(); ++i) {
        const double u = rng.uniform();
        float v = static_cast<float>(rng.gaussian());
        if (u < zero_frac) {
            v = rng.below(2) == 0 ? 0.0f : -0.0f;
        } else if (specials && u < zero_frac + 0.03) {
            switch (rng.below(4)) {
              case 0:
                v = std::numeric_limits<float>::denorm_min() *
                    static_cast<float>(1 + rng.below(1000)) *
                    (rng.below(2) == 0 ? 1.0f : -1.0f);
                break;
              case 1: v = std::numeric_limits<float>::infinity(); break;
              case 2: v = -std::numeric_limits<float>::infinity(); break;
              default: v = std::numeric_limits<float>::quiet_NaN(); break;
            }
        }
        t[i] = v;
    }
    return t;
}

/**
 * (m x k) * (k x n): i-k-j, float sums, zero a skipped. The oracle of
 * all three GEMMs: matmulTransA(at, b) must equal
 * referenceMatmul(transpose(at), b), and matmulTransB(a, bt)
 * referenceMatmul(a, transpose(bt)).
 */
inline Tensor
referenceMatmul(const Tensor &a, const Tensor &b)
{
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = a[i * k + kk];
            if (av == 0.0f)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                c[i * n + j] += av * b[kk * n + j];
        }
    }
    return c;
}

/** True when (iy, ix) lies inside an h x w image. */
inline bool
referenceInside(std::ptrdiff_t iy, std::ptrdiff_t ix, std::size_t h,
                std::size_t w)
{
    return iy >= 0 && ix >= 0 && iy < static_cast<std::ptrdiff_t>(h) &&
           ix < static_cast<std::ptrdiff_t>(w);
}

/** im2col through bounds-checked at4 reads, zero outside the image. */
inline Tensor
referenceIm2col(const Tensor &input, const Conv2dGeometry &g)
{
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    const std::size_t p = g.outH(h), q = g.outW(w);
    const std::size_t patch = c * g.kernelH * g.kernelW;
    Tensor cols({n * p * q, patch});
    for (std::size_t r = 0; r < n * p * q; ++r) {
        const std::size_t in = r / (p * q);
        const std::size_t oy = (r / q) % p, ox = r % q;
        std::size_t idx = 0;
        for (std::size_t ic = 0; ic < c; ++ic)
            for (std::size_t ky = 0; ky < g.kernelH; ++ky)
                for (std::size_t kx = 0; kx < g.kernelW; ++kx) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                        static_cast<std::ptrdiff_t>(g.pad);
                    const std::ptrdiff_t ix =
                        static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                        static_cast<std::ptrdiff_t>(g.pad);
                    cols.at2(r, idx++) =
                        referenceInside(iy, ix, h, w)
                            ? input.at4(in, ic,
                                        static_cast<std::size_t>(iy),
                                        static_cast<std::size_t>(ix))
                            : 0.0f;
                }
    }
    return cols;
}

/** col2im: scatter-add in (n, c, oy, ox, ky, kx) order through at4. */
inline Tensor
referenceCol2im(const Tensor &cols, const Shape &inputShape,
                const Conv2dGeometry &g)
{
    const std::size_t n = inputShape[0], c = inputShape[1];
    const std::size_t h = inputShape[2], w = inputShape[3];
    const std::size_t p = g.outH(h), q = g.outW(w);
    Tensor out(inputShape);
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t ic = 0; ic < c; ++ic)
            for (std::size_t oy = 0; oy < p; ++oy)
                for (std::size_t ox = 0; ox < q; ++ox) {
                    const std::size_t r = (in * p + oy) * q + ox;
                    std::size_t idx = ic * g.kernelH * g.kernelW;
                    for (std::size_t ky = 0; ky < g.kernelH; ++ky)
                        for (std::size_t kx = 0; kx < g.kernelW; ++kx) {
                            const float v = cols.at2(r, idx++);
                            const std::ptrdiff_t iy =
                                static_cast<std::ptrdiff_t>(
                                    oy * g.stride + ky) -
                                static_cast<std::ptrdiff_t>(g.pad);
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(
                                    ox * g.stride + kx) -
                                static_cast<std::ptrdiff_t>(g.pad);
                            if (referenceInside(iy, ix, h, w))
                                out.at4(in, ic,
                                        static_cast<std::size_t>(iy),
                                        static_cast<std::size_t>(ix)) += v;
                        }
                }
    return out;
}

/**
 * E2BQM fake quantization by composition: copy each block into its
 * own tensor, run the hardware-faithful e2bqmQuantize on it (levels
 * and error of every candidate), dequantize the winner. A block size
 * of 0 means one block spanning the tensor (fakeQuantizeE2bqm).
 */
inline Tensor
referenceFakeQuantizeHqt(const Tensor &x, std::size_t block_size,
                         const quant::E2bqmConfig &config,
                         quant::E2bqmSelectionInfo *info)
{
    const std::size_t n = x.numel();
    if (block_size == 0) {
        const quant::E2bqmResult res = quant::e2bqmQuantize(x, config);
        if (info != nullptr)
            ++info->bitsTally[res.best().candidate.bits];
        return res.best().dequantize(x.shape());
    }
    Tensor out(x.shape());
    for (std::size_t lo = 0; lo < n; lo += block_size) {
        const std::size_t hi = std::min(lo + block_size, n);
        Tensor block({hi - lo});
        for (std::size_t i = lo; i < hi; ++i)
            block[i - lo] = x[i];
        const quant::E2bqmResult res = quant::e2bqmQuantize(block, config);
        if (info != nullptr)
            ++info->bitsTally[res.best().candidate.bits];
        const Tensor deq = res.best().dequantize(block.shape());
        for (std::size_t i = lo; i < hi; ++i)
            out[i] = deq[i - lo];
    }
    return out;
}

/** The attention core's forward results. */
struct ReferenceAttention
{
    Tensor context; ///< (B*T, D)
    Tensor attn;    ///< (B, H, T, T) softmax rows
};

/**
 * The core of MultiHeadSelfAttention::forward from the projected
 * (B*T, D) @p q, @p k, @p v, as double loops: per (batch, head),
 * scores = Q K^T / sqrt(d) and context = attn V, each output one
 * double sum rounded to float.
 */
inline ReferenceAttention
referenceAttention(const Tensor &q, const Tensor &k, const Tensor &v,
                   std::size_t batch, std::size_t seq, std::size_t heads)
{
    const std::size_t dim = q.dim(1), hd = dim / heads;
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
    ReferenceAttention out{Tensor({batch * seq, dim}),
                           Tensor({batch, heads, seq, seq})};
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t hh = 0; hh < heads; ++hh) {
            const std::size_t off = hh * hd;
            Tensor scores({seq, seq});
            for (std::size_t i = 0; i < seq; ++i)
                for (std::size_t j = 0; j < seq; ++j) {
                    double dot = 0.0;
                    for (std::size_t d = 0; d < hd; ++d)
                        dot += static_cast<double>(
                                   q.at2(b * seq + i, off + d)) *
                               k.at2(b * seq + j, off + d);
                    scores.at2(i, j) = static_cast<float>(dot) * inv_sqrt_d;
                }
            const Tensor attn = nn::softmax(scores);
            for (std::size_t i = 0; i < seq; ++i)
                for (std::size_t j = 0; j < seq; ++j)
                    out.attn.at4(b, hh, i, j) = attn.at2(i, j);
            for (std::size_t i = 0; i < seq; ++i)
                for (std::size_t d = 0; d < hd; ++d) {
                    double acc = 0.0;
                    for (std::size_t j = 0; j < seq; ++j)
                        acc += static_cast<double>(attn.at2(i, j)) *
                               v.at2(b * seq + j, off + d);
                    out.context.at2(b * seq + i, off + d) =
                        static_cast<float>(acc);
                }
        }
    }
    return out;
}

/** Gradients of the attention core w.r.t. its Q, K and V inputs. */
struct ReferenceAttentionGrads
{
    Tensor dq, dk, dv; ///< (B*T, D) each
};

/**
 * The core of MultiHeadSelfAttention::backward as double loops: from
 * @p dcontext and the forward's @p attn, dAttn = dctx V^T, dV =
 * attn^T dctx, the softmax backward, dQ = dS K / sqrt(d) and dK =
 * dS^T Q / sqrt(d), each output one double sum rounded to float.
 */
inline ReferenceAttentionGrads
referenceAttentionBackward(const Tensor &q, const Tensor &k,
                           const Tensor &v, const Tensor &attn,
                           const Tensor &dcontext, std::size_t batch,
                           std::size_t seq, std::size_t heads)
{
    const std::size_t dim = q.dim(1), hd = dim / heads;
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
    ReferenceAttentionGrads g{Tensor(q.shape()), Tensor(k.shape()),
                              Tensor(v.shape())};
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t hh = 0; hh < heads; ++hh) {
            const std::size_t off = hh * hd;
            Tensor dattn({seq, seq});
            for (std::size_t i = 0; i < seq; ++i)
                for (std::size_t j = 0; j < seq; ++j) {
                    double acc = 0.0;
                    for (std::size_t d = 0; d < hd; ++d)
                        acc += static_cast<double>(
                                   dcontext.at2(b * seq + i, off + d)) *
                               v.at2(b * seq + j, off + d);
                    dattn.at2(i, j) = static_cast<float>(acc);
                }
            for (std::size_t j = 0; j < seq; ++j)
                for (std::size_t d = 0; d < hd; ++d) {
                    double acc = 0.0;
                    for (std::size_t i = 0; i < seq; ++i)
                        acc += static_cast<double>(attn.at4(b, hh, i, j)) *
                               dcontext.at2(b * seq + i, off + d);
                    g.dv.at2(b * seq + j, off + d) = static_cast<float>(acc);
                }
            Tensor dscores({seq, seq});
            for (std::size_t i = 0; i < seq; ++i) {
                double row_dot = 0.0;
                for (std::size_t j = 0; j < seq; ++j)
                    row_dot += static_cast<double>(attn.at4(b, hh, i, j)) *
                               dattn.at2(i, j);
                for (std::size_t j = 0; j < seq; ++j)
                    dscores.at2(i, j) = static_cast<float>(
                        attn.at4(b, hh, i, j) * (dattn.at2(i, j) - row_dot));
            }
            for (std::size_t i = 0; i < seq; ++i)
                for (std::size_t d = 0; d < hd; ++d) {
                    double accq = 0.0, acck = 0.0;
                    for (std::size_t j = 0; j < seq; ++j) {
                        accq += static_cast<double>(dscores.at2(i, j)) *
                                k.at2(b * seq + j, off + d);
                        acck += static_cast<double>(dscores.at2(j, i)) *
                                q.at2(b * seq + j, off + d);
                    }
                    g.dq.at2(b * seq + i, off + d) =
                        static_cast<float>(accq) * inv_sqrt_d;
                    g.dk.at2(b * seq + i, off + d) =
                        static_cast<float>(acck) * inv_sqrt_d;
                }
        }
    }
    return g;
}

} // namespace cq::test

#endif // CQ_TESTS_TENSOR_REFERENCE_H
