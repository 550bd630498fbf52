/**
 * @file
 * Tests for the tensor library: shapes, ops, GEMM variants,
 * im2col/col2im and distance metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/threadpool.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor_reference.h"

namespace cq {
namespace {

TEST(Tensor, ShapeNumel)
{
    EXPECT_EQ(shapeNumel({}), 1u);
    EXPECT_EQ(shapeNumel({3}), 3u);
    EXPECT_EQ(shapeNumel({2, 3, 4}), 24u);
}

TEST(Tensor, ConstructZeroFilled)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6u);
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ConstructWithValue)
{
    Tensor t({4}, 2.5f);
    EXPECT_EQ(t.sum(), 10.0f);
}

TEST(Tensor, At2Indexing)
{
    Tensor t({2, 3});
    t.at2(1, 2) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);
}

TEST(Tensor, At4Indexing)
{
    Tensor t({2, 3, 4, 5});
    t.at4(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapeKeepsData)
{
    Tensor t({2, 3}, 1.0f);
    t[4] = 5.0f;
    t.reshape({3, 2});
    EXPECT_EQ(t.at2(2, 0), 5.0f);
}

TEST(Tensor, Reductions)
{
    Tensor t({4}, std::vector<float>{-3.0f, 1.0f, 2.0f, -0.5f});
    EXPECT_FLOAT_EQ(t.sum(), -0.5f);
    EXPECT_FLOAT_EQ(t.maxAbs(), 3.0f);
    EXPECT_FLOAT_EQ(t.min(), -3.0f);
    EXPECT_FLOAT_EQ(t.max(), 2.0f);
    EXPECT_FLOAT_EQ(t.mean(), -0.125f);
    EXPECT_FLOAT_EQ(t.sumSquares(), 9.0f + 1.0f + 4.0f + 0.25f);
}

TEST(Tensor, FillGaussianStats)
{
    Rng rng(3);
    Tensor t({100000});
    t.fillGaussian(rng, 1.0f, 0.5f);
    EXPECT_NEAR(t.mean(), 1.0f, 0.02f);
}

TEST(Tensor, ApplyElementwise)
{
    Tensor t({3}, 2.0f);
    t.apply([](float x) { return x * x; });
    EXPECT_FLOAT_EQ(t.sum(), 12.0f);
}

TEST(TensorOps, AddSubMul)
{
    Tensor a({2}, std::vector<float>{1.0f, 2.0f});
    Tensor b({2}, std::vector<float>{3.0f, 5.0f});
    EXPECT_EQ(add(a, b)[1], 7.0f);
    EXPECT_EQ(sub(b, a)[0], 2.0f);
    EXPECT_EQ(mul(a, b)[1], 10.0f);
    EXPECT_EQ(scale(a, 4.0f)[0], 4.0f);
}

TEST(TensorOps, Accumulate)
{
    Tensor a({2}, 1.0f);
    Tensor b({2}, 2.0f);
    accumulate(a, b, 0.5f);
    EXPECT_FLOAT_EQ(a[0], 2.0f);
}

TEST(TensorOps, MatmulSmallKnown)
{
    Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(TensorOps, MatmulTransVariantsAgree)
{
    Rng rng(5);
    Tensor a({7, 5});
    Tensor b({5, 6});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    const Tensor c = matmul(a, b);

    const Tensor at = transpose(a);
    const Tensor bt = transpose(b);
    const Tensor c1 = matmulTransA(at, b);
    const Tensor c2 = matmulTransB(a, bt);
    EXPECT_LT(maxAbsDiff(c, c1), 1e-4);
    EXPECT_LT(maxAbsDiff(c, c2), 1e-4);
}

TEST(TensorOps, TransposeRoundTrip)
{
    Rng rng(6);
    Tensor a({4, 9});
    a.fillGaussian(rng, 0.0f, 1.0f);
    EXPECT_TRUE(transpose(transpose(a)) == a);
}

TEST(TensorOps, Conv2dGeometryDims)
{
    Conv2dGeometry g{3, 8, 3, 3, 1, 1};
    EXPECT_EQ(g.outH(16), 16u);
    EXPECT_EQ(g.outW(16), 16u);
    Conv2dGeometry s{3, 8, 3, 3, 2, 0};
    EXPECT_EQ(s.outH(7), 3u);
}

TEST(TensorOps, Im2colIdentityKernel)
{
    // 1x1 kernel im2col is just a reshape.
    Rng rng(7);
    Tensor x({2, 3, 4, 4});
    x.fillGaussian(rng, 0.0f, 1.0f);
    Conv2dGeometry g{3, 1, 1, 1, 1, 0};
    const Tensor cols = im2col(x, g);
    EXPECT_EQ(cols.dim(0), 2u * 4 * 4);
    EXPECT_EQ(cols.dim(1), 3u);
    // Element (n=0, oy=1, ox=2, c=1) equals x(0, 1, 1, 2).
    EXPECT_FLOAT_EQ(cols.at2((0 * 4 + 1) * 4 + 2, 1), x.at4(0, 1, 1, 2));
}

TEST(TensorOps, Im2colPaddingZeros)
{
    Tensor x({1, 1, 2, 2}, 1.0f);
    Conv2dGeometry g{1, 1, 3, 3, 1, 1};
    const Tensor cols = im2col(x, g);
    // Top-left output patch: corners outside the image are zero.
    EXPECT_FLOAT_EQ(cols.at2(0, 0), 0.0f); // (-1,-1)
    EXPECT_FLOAT_EQ(cols.at2(0, 4), 1.0f); // (0,0)
}

TEST(TensorOps, Col2imAdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> (adjoint property).
    Rng rng(8);
    Tensor x({2, 3, 6, 6});
    x.fillGaussian(rng, 0.0f, 1.0f);
    Conv2dGeometry g{3, 4, 3, 3, 2, 1};
    const Tensor cols = im2col(x, g);
    Tensor y(cols.shape());
    y.fillGaussian(rng, 0.0f, 1.0f);
    const Tensor back = col2im(y, x.shape(), g);

    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < cols.numel(); ++i)
        lhs += static_cast<double>(cols[i]) * y[i];
    for (std::size_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x[i]) * back[i];
    EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(TensorOps, Distances)
{
    Tensor a({3}, std::vector<float>{1.0f, 0.0f, -1.0f});
    Tensor b({3}, std::vector<float>{0.0f, 0.0f, -1.0f});
    EXPECT_DOUBLE_EQ(rectilinearDistance(a, b), 1.0);
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 1.0);
    EXPECT_NEAR(rmse(a, b), std::sqrt(1.0 / 3.0), 1e-9);
    EXPECT_NEAR(meanBias(a, b), 1.0 / 3.0, 1e-9);
}

TEST(TensorOps, CosineSimilarityIdentical)
{
    Rng rng(9);
    Tensor a({64});
    a.fillGaussian(rng, 0.0f, 1.0f);
    EXPECT_NEAR(cosineSimilarity(a, a), 1.0, 1e-9);
    EXPECT_NEAR(cosineSimilarity(a, scale(a, -2.0f)), -1.0, 1e-9);
}

// ------------------------------------------ differential (vs oracle)

TEST(TensorDiff, GemmVariantsMatchReferenceLoops)
{
    // Widths 1..100 cover every 16/8/4/1 tile mix; each shape runs on
    // one thread and on a 4-wide pool. All three variants share one
    // kernel, so one oracle checks them all. Trial kinds (trial % 4):
    // 0 finite operands; 1 specials in A only, so B is finite and the
    // mask-free kernel runs; 2 a single +-Inf or NaN in B, which alone
    // selects the masked kernel; 3 specials in both.
    Rng rng(2024);
    const double zeroFracs[] = {0.0, 0.5, 0.95};
    for (int trial = 0; trial < 96; ++trial) {
        const std::size_t m = 1 + rng.below(100);
        const std::size_t k = trial == 0 ? 0 : 1 + rng.below(100);
        const std::size_t n = 1 + rng.below(100);
        const double zf = zeroFracs[trial % 3];
        const int kind = trial % 4;
        Tensor a = test::diffOperand(rng, {m, k}, zf, kind == 1 || kind == 3);
        Tensor at = test::diffOperand(rng, {k, m}, zf, kind == 1 || kind == 3);
        Tensor b = test::diffOperand(rng, {k, n}, 0.1, kind == 3);
        Tensor bt = test::diffOperand(rng, {n, k}, 0.1, kind == 3);
        if (kind == 2 && k > 0) {
            const float specials[] = {
                std::numeric_limits<float>::infinity(),
                -std::numeric_limits<float>::infinity(),
                std::numeric_limits<float>::quiet_NaN()};
            const float v = specials[rng.below(3)];
            b[rng.below(b.numel())] = v;
            bt[rng.below(bt.numel())] = v;
        }
        if (trial % 6 == 5 && k >= 2) {
            // Every output gets +h * b and -h * b (h ~ 2^62) at two k
            // positions p < q, so the sum keeps only the terms after
            // q: a reordered sum keeps others.
            const std::size_t p = rng.below(k - 1);
            const std::size_t q = p + 1 + rng.below(k - 1 - p);
            for (std::size_t i = 0; i < m; ++i) {
                const float h = std::ldexp(
                    1.0f + static_cast<float>(rng.uniform()), 62);
                a[i * k + p] = at[p * m + i] = h;
                a[i * k + q] = at[q * m + i] = -h;
            }
            for (std::size_t j = 0; j < n; ++j) {
                b[q * n + j] = b[p * n + j];
                bt[j * k + q] = bt[j * k + p];
            }
        }
        const Tensor wantC = test::referenceMatmul(a, b);
        const Tensor wantA = test::referenceMatmul(transpose(at), b);
        const Tensor wantB = test::referenceMatmul(a, transpose(bt));
        for (unsigned threads : {1u, 4u}) {
            ThreadPool::instance().setNumThreads(threads);
            SCOPED_TRACE("trial " + std::to_string(trial) + " " +
                         std::to_string(m) + "x" + std::to_string(k) +
                         "x" + std::to_string(n) + " threads " +
                         std::to_string(threads));
            EXPECT_EQ(test::bitDifference(matmul(a, b), wantC), "");
            EXPECT_EQ(test::bitDifference(matmulTransA(at, b), wantA), "");
            EXPECT_EQ(test::bitDifference(matmulTransB(a, bt), wantB), "");
        }
    }
    ThreadPool::instance().setNumThreads(0);
}

TEST(TensorDiff, SignedZerosAndSpecialsAreExact)
{
    // A zero of either sign in A is skipped (so 0 * Inf never turns an
    // output into NaN), and an all-skipped output stays +0.
    const float inf = std::numeric_limits<float>::infinity();
    const Tensor a({2, 3}, std::vector<float>{-0.0f, 0.0f, 2.0f,
                                              -0.0f, 0.0f, -0.0f});
    const Tensor b({3, 2}, std::vector<float>{inf, -inf, 1.0f, 2.0f,
                                              -0.0f, 0.0f});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(test::bitDifference(c, test::referenceMatmul(a, b)), "");
    EXPECT_FALSE(std::signbit(c[2]));
    EXPECT_FALSE(std::signbit(c[3]));
    EXPECT_EQ(test::bitDifference(matmulTransA(transpose(a), b),
                                  test::referenceMatmul(a, b)),
              "");
    // matmulTransB skips the same terms: 0 * Inf is no NaN there
    // either.
    const Tensor cb = matmulTransB(a, transpose(b));
    EXPECT_EQ(test::bitDifference(cb, test::referenceMatmul(a, b)), "");
    EXPECT_FALSE(std::isnan(cb[0]));
    EXPECT_FALSE(std::signbit(cb[3]));
}

TEST(TensorDiff, Im2colCol2imMatchReferenceLoops)
{
    Rng rng(77);
    // im2col of x and col2im of a seeded column gradient against the
    // oracle loops, on one thread and on a 4-wide pool.
    const auto check = [&rng](const Tensor &x, const Conv2dGeometry &g,
                              bool specials) {
        for (unsigned threads : {1u, 4u}) {
            ThreadPool::instance().setNumThreads(threads);
            const Tensor cols = im2col(x, g);
            EXPECT_EQ(test::bitDifference(cols, test::referenceIm2col(x, g)),
                      "");
            const Tensor grads =
                test::diffOperand(rng, cols.shape(), 0.3, specials);
            EXPECT_EQ(test::bitDifference(
                          col2im(grads, x.shape(), g),
                          test::referenceCol2im(grads, x.shape(), g)),
                      "");
        }
    };
    for (int trial = 0; trial < 60; ++trial) {
        Conv2dGeometry g{};
        g.inChannels = 1 + rng.below(4);
        g.outChannels = 1;
        g.kernelH = 1 + rng.below(5);
        g.kernelW = 1 + rng.below(5);
        g.stride = 1 + rng.below(3);
        g.pad = rng.below(3);
        const std::size_t n = 1 + rng.below(3);
        const std::size_t h = g.kernelH + rng.below(10);
        const std::size_t w = g.kernelW + rng.below(10);
        const Tensor x = test::diffOperand(rng, {n, g.inChannels, h, w},
                                           0.3, trial % 4 == 3);
        SCOPED_TRACE("trial " + std::to_string(trial));
        check(x, g, trial % 4 == 3);
    }
    // The train-cnn-hqt conv layers: batch 32, 3x3 kernels, stride 1,
    // pad 1, on its 1-channel 12x12 input and its 8- and 16-channel
    // 6x6 maps.
    const std::pair<std::size_t, std::size_t> trainerLayers[] = {
        {1, 12}, {8, 6}, {16, 6}};
    for (const auto &[channels, side] : trainerLayers) {
        const Conv2dGeometry g{channels, 16, 3, 3, 1, 1};
        SCOPED_TRACE("train-cnn-hqt layer with " + std::to_string(channels) +
                     " input channels");
        check(test::diffOperand(rng, {32, channels, side, side}, 0.5, true), g,
              true);
    }
    ThreadPool::instance().setNumThreads(0);
}

// ------------------------------------------------- shape-check panics

TEST(TensorOpsDeath, ElementwiseShapeMismatchNamesBothShapes)
{
    Tensor a({2, 3}), b({3, 2});
    EXPECT_DEATH(add(a, b), "add: shape mismatch \\[2, 3\\] vs \\[3, 2\\]");
    EXPECT_DEATH(accumulate(a, b, 1.0f), "accumulate: shape mismatch");
}

TEST(TensorOpsDeath, MatmulShapeMismatchNamesBothShapes)
{
    Tensor a({4, 5}), b({6, 7});
    EXPECT_DEATH(matmul(a, b),
                 "matmul: inner dims disagree, \\[4, 5\\] x \\[6, 7\\]");
    Tensor v({5});
    EXPECT_DEATH(matmul(v, b), "matmul: expects rank-2 operands");
    EXPECT_DEATH(matmulTransA(a, b), "matmulTransA: A\\^T rows 4 != B rows 6");
    EXPECT_DEATH(matmulTransB(a, b), "matmulTransB: A cols 5 != B\\^T rows 7");
}

TEST(TensorOpsDeath, TransposeAndConvShapeChecks)
{
    Tensor v({6});
    EXPECT_DEATH(transpose(v), "transpose: expects rank 2, got \\[6\\]");

    Conv2dGeometry g;
    g.inChannels = 3;
    g.outChannels = 4;
    g.kernelH = g.kernelW = 3;
    g.stride = 1;
    g.pad = 1;
    Tensor notNchw({2, 3, 8});
    EXPECT_DEATH(im2col(notNchw, g), "im2col: expects NCHW");
    Tensor wrongChannels({1, 2, 8, 8});
    EXPECT_DEATH(im2col(wrongChannels, g),
                 "has 2 channels, geometry wants 3");
    Tensor cols({5, 5});
    EXPECT_DEATH(col2im(cols, {1, 3, 8, 8}, g),
                 "col2im: cols \\[5, 5\\] incompatible with input "
                 "\\[1, 3, 8, 8\\]");
}

} // namespace
} // namespace cq
