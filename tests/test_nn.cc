/**
 * @file
 * Tests for the DNN training framework: numerical gradient checks for
 * every layer, loss functions, optimizers (including NDPO-constant
 * equivalence), network composition, datasets and the quantized
 * trainer.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "layer_reference.h"
#include "nn/activation.h"
#include "nn/attention.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/datasets.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/quant_trainer.h"
#include "nn/softmax.h"
#include "tensor/tensor_ops.h"
#include "tensor_reference.h"

namespace cq::nn {
namespace {

/**
 * Numerical gradient check. Loss L = sum(weights .* layer(x)); the
 * analytic input/parameter gradients from backward() are compared to
 * fourth-order central differences. Conv/pool layers are checked at
 * every input element; parameter checks sample a subset for speed.
 */
class GradCheck
{
  public:
    GradCheck(Layer &layer, const Tensor &input, std::uint64_t seed = 9)
        : layer_(layer), input_(input)
    {
        Rng rng(seed);
        const Tensor out = layer_.forward(input_);
        lossWeights_ = Tensor(out.shape());
        lossWeights_.fillGaussian(rng, 0.0f, 1.0f);
    }

    double
    loss(const Tensor &input)
    {
        const Tensor out = layer_.forward(input);
        double l = 0.0;
        for (std::size_t i = 0; i < out.numel(); ++i)
            l += static_cast<double>(out[i]) * lossWeights_[i];
        return l;
    }

    /** Analytic gradients: returns grad wrt input; fills param grads. */
    Tensor
    analytic()
    {
        layer_.zeroGrads();
        layer_.forward(input_);
        return layer_.backward(lossWeights_);
    }

    /**
     * dL/dv from loss(v + d) at d = +-h, +-2h: the Richardson
     * extrapolation of two central quotients. Its O(h^4) truncation
     * lets h be large enough that the FP32 round-off of the forward
     * pass stays far below the tolerances. (Through the Transformer
     * block that round-off is ~1e-6 in L, so a two-point quotient at
     * h = 1e-3 misses a 0.02 gradient by up to ~5 %.)
     */
    template <typename LossAt>
    static double
    derivative(LossAt &&lossAt, double h)
    {
        return (8.0 * (lossAt(h) - lossAt(-h)) -
                (lossAt(2.0 * h) - lossAt(-2.0 * h))) /
               (12.0 * h);
    }

    /** Max relative error of input gradient vs finite differences. */
    double
    checkInput(double eps = 1e-2)
    {
        const Tensor analytic_grad = analytic();
        double worst = 0.0;
        for (std::size_t i = 0; i < input_.numel(); ++i) {
            const double num = derivative(
                [&](double d) {
                    Tensor x = input_;
                    x[i] += static_cast<float>(d);
                    return loss(x);
                },
                eps);
            worst = std::max(
                worst, relErr(num, analytic_grad[i]));
        }
        return worst;
    }

    /** Max relative error of parameter gradients (sampled). */
    double
    checkParams(double eps = 1e-2, std::size_t max_per_param = 24)
    {
        analytic();
        // Snapshot analytic gradients (finite-difference evaluation
        // below re-runs forward, but does not touch grads).
        std::vector<Tensor> grads;
        for (Param *p : layer_.params())
            grads.push_back(p->grad);

        double worst = 0.0;
        Rng rng(1234);
        const auto params = layer_.params();
        for (std::size_t pi = 0; pi < params.size(); ++pi) {
            Param *p = params[pi];
            const std::size_t n = p->value.numel();
            for (std::size_t s = 0;
                 s < std::min(max_per_param, n); ++s) {
                const std::size_t i = rng.below(n);
                const float saved = p->value[i];
                const double num = derivative(
                    [&](double d) {
                        p->value[i] = saved + static_cast<float>(d);
                        return loss(input_);
                    },
                    eps);
                p->value[i] = saved;
                worst = std::max(worst, relErr(num, grads[pi][i]));
            }
        }
        return worst;
    }

  private:
    static double
    relErr(double a, double b)
    {
        const double scale =
            std::max({std::fabs(a), std::fabs(b), 1e-2});
        return std::fabs(a - b) / scale;
    }

    Layer &layer_;
    Tensor input_;
    Tensor lossWeights_;
};

Tensor
randomTensor(const Shape &shape, std::uint64_t seed, float sigma = 1.0f)
{
    Rng rng(seed);
    Tensor t(shape);
    t.fillGaussian(rng, 0.0f, sigma);
    return t;
}

// ------------------------------------------------------ gradient checks

TEST(GradCheckTest, Linear)
{
    Rng rng(1);
    Linear layer("fc", 5, 7, rng);
    GradCheck check(layer, randomTensor({4, 5}, 2));
    EXPECT_LT(check.checkInput(), 2e-2);
    EXPECT_LT(check.checkParams(), 2e-2);
}

TEST(GradCheckTest, Conv2d)
{
    Rng rng(3);
    Conv2d layer("conv", Conv2dGeometry{2, 3, 3, 3, 1, 1}, rng);
    GradCheck check(layer, randomTensor({2, 2, 5, 5}, 4));
    EXPECT_LT(check.checkInput(), 2e-2);
    EXPECT_LT(check.checkParams(), 2e-2);
}

TEST(GradCheckTest, Conv2dStrided)
{
    Rng rng(5);
    Conv2d layer("conv", Conv2dGeometry{3, 4, 3, 3, 2, 0}, rng);
    GradCheck check(layer, randomTensor({2, 3, 7, 7}, 6));
    EXPECT_LT(check.checkInput(), 2e-2);
    EXPECT_LT(check.checkParams(), 2e-2);
}

TEST(GradCheckTest, MaxPool)
{
    MaxPool2d layer("pool", 2, 2);
    // Finite differences require every pooling window's max to be
    // separated from the runner-up by more than 2*eps, or the argmax
    // flips under perturbation; space the values out explicitly.
    Tensor x = randomTensor({2, 3, 6, 6}, 7);
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = std::round(x[i] * 5.0f) / 5.0f +
               static_cast<float>(i % 97) * 1e-3f;
    GradCheck check(layer, x);
    EXPECT_LT(check.checkInput(1e-4), 2e-2);
}

TEST(GradCheckTest, GlobalAvgPool)
{
    GlobalAvgPool layer("gap");
    GradCheck check(layer, randomTensor({2, 4, 3, 3}, 8));
    EXPECT_LT(check.checkInput(), 2e-2);
}

TEST(GradCheckTest, ActivationsAll)
{
    for (auto kind : {ActKind::ReLU, ActKind::Tanh, ActKind::Sigmoid,
                      ActKind::Gelu}) {
        Activation layer("act", kind);
        // Shift inputs away from ReLU's kink for finite differences.
        Tensor x = randomTensor({3, 9}, 9u + static_cast<int>(kind));
        for (std::size_t i = 0; i < x.numel(); ++i)
            if (std::fabs(x[i]) < 0.05f)
                x[i] += 0.1f;
        GradCheck check(layer, x);
        EXPECT_LT(check.checkInput(), 2e-2) << actKindName(kind);
    }
}

TEST(GradCheckTest, LayerNorm)
{
    LayerNorm layer("ln", 6);
    GradCheck check(layer, randomTensor({4, 6}, 10));
    EXPECT_LT(check.checkInput(), 2e-2);
    EXPECT_LT(check.checkParams(), 2e-2);
}

TEST(GradCheckTest, Lstm)
{
    Rng rng(11);
    Lstm layer("lstm", 4, 5, rng);
    GradCheck check(layer, randomTensor({3, 2, 4}, 12, 0.5f));
    EXPECT_LT(check.checkInput(), 2e-2);
    EXPECT_LT(check.checkParams(), 2e-2);
}

TEST(GradCheckTest, MultiHeadSelfAttention)
{
    Rng rng(13);
    MultiHeadSelfAttention layer("attn", 2, 3, 8, 2, rng);
    GradCheck check(layer, randomTensor({6, 8}, 14, 0.5f));
    // FP32 forward + 1e-3 differences: allow ~5% relative slack.
    EXPECT_LT(check.checkInput(), 5e-2);
    EXPECT_LT(check.checkParams(), 5e-2);
}

TEST(GradCheckTest, TransformerBlock)
{
    Rng rng(15);
    TransformerBlock layer("blk", 2, 3, 8, 2, 16, rng);
    GradCheck check(layer, randomTensor({6, 8}, 16, 0.5f));
    EXPECT_LT(check.checkInput(), 5e-2);
    // The deep ln/attention/ffn composition leaves ~1e-4 of FP32
    // round-off noise in the difference quotient; gradients of
    // magnitude ~4e-3 therefore carry ~10% apparent error even when
    // exact (verified by Richardson extrapolation), so the bound
    // here is loose.
    EXPECT_LT(check.checkParams(3e-3), 0.12);
}

/** max |got - want| over max |want|: a normwise relative gap. */
double
normwiseGap(const Tensor &got, const Tensor &want)
{
    double scale = 0.0;
    for (std::size_t i = 0; i < want.numel(); ++i)
        scale = std::max(scale, std::fabs(static_cast<double>(want[i])));
    return maxAbsDiff(got, want) / scale;
}

/** max over columns j of sum_r |x[r][j]|. */
double
maxColumnAbsSum(const Tensor &x)
{
    double worst = 0.0;
    for (std::size_t j = 0; j < x.dim(1); ++j) {
        double s = 0.0;
        for (std::size_t r = 0; r < x.dim(0); ++r)
            s += std::fabs(static_cast<double>(x.at2(r, j)));
        worst = std::max(worst, s);
    }
    return worst;
}

TEST(AttentionDiff, GemmCoreMatchesDoubleLoopOracle)
{
    // Two sequences of 5 tokens, 3 heads of width 4.
    const std::size_t batch = 2, seq = 5, dim = 12, heads = 3;
    Rng rng(31);
    MultiHeadSelfAttention layer("attn", batch, seq, dim, heads, rng);
    const Tensor x = randomTensor({batch * seq, dim}, 32, 0.5f);
    const Tensor dy = randomTensor({batch * seq, dim}, 33);
    layer.zeroGrads();
    const Tensor y = layer.forward(x);
    const Tensor dx = layer.backward(dy);

    // The oracle runs the same projections, as Linear copies of the
    // layer's q/k/v/out weights, around the double-loop core.
    const std::vector<Param *> params = layer.params();
    std::vector<std::unique_ptr<Linear>> proj;
    for (std::size_t p = 0; p < 4; ++p) {
        proj.push_back(
            std::make_unique<Linear>("ref", dim, dim, rng));
        proj[p]->params()[0]->value = params[2 * p]->value;
        proj[p]->params()[1]->value = params[2 * p + 1]->value;
    }
    const Tensor q = proj[0]->forward(x);
    const Tensor k = proj[1]->forward(x);
    const Tensor v = proj[2]->forward(x);
    const test::ReferenceAttention core =
        test::referenceAttention(q, k, v, batch, seq, heads);
    const Tensor yRef = proj[3]->forward(core.context);
    const test::ReferenceAttentionGrads g =
        test::referenceAttentionBackward(q, k, v, core.attn,
                                         proj[3]->backward(dy), batch,
                                         seq, heads);
    Tensor dxRef = proj[0]->backward(g.dq);
    accumulate(dxRef, proj[1]->backward(g.dk));
    accumulate(dxRef, proj[2]->backward(g.dv));

    // Bound. The two paths differ only in rounding: a float sum of
    // n terms is within n * u of the sum of their magnitudes (u =
    // 2^-24), the oracle's double sum within u. The longest path,
    // to the q/k weight gradients, chains five sums of at most
    // n = max(batch * seq, dim) = 12 terms (dctx V^T, dS K, and the
    // projection sum on either side of the core, counted on both
    // paths), and the softmax backward can double a perturbation of
    // dAttn. With the sum of magnitudes within 4x of the tensor's
    // largest element for these N(0, 1)-scaled operands, 5 * 2 * 4 *
    // n * u bounds every gap: 40 * 12 * 2^-24 = 2.9e-5. (Measured:
    // 1e-7 to 3e-7.)
    const double u = std::ldexp(1.0, -24);
    const double bound = 40.0 * 12.0 * u;
    EXPECT_LT(normwiseGap(y, yRef), bound);
    EXPECT_LT(normwiseGap(dx, dxRef), bound);
    for (std::size_t p = 0; p < 4; ++p)
        for (std::size_t t = 0; t < 2; ++t) {
            const Tensor &got = params[2 * p + t]->grad;
            const Tensor &want = proj[p]->params()[t]->grad;
            if (p == 1 && t == 1) {
                // Shifting every key by one vector shifts each score
                // row by a constant, which softmax ignores: the exact
                // K-bias gradient is 0 and both paths hold rounding
                // alone, small against the dK rows it sums.
                EXPECT_LT(maxAbsDiff(got, want) / maxColumnAbsSum(g.dk),
                          bound);
                continue;
            }
            EXPECT_LT(normwiseGap(got, want), bound)
                << params[2 * p + t]->name;
        }
}

// ------------------------------------- layer oracles (vs plain loops)

TEST(LayerDiff, ActivationsMatchReferenceLoops)
{
    // Forward and backward of every kind, bitwise, with the specials
    // in both the input and the incoming gradient. ReLU must give +0
    // for -0 and NaN (a std::max(x, 0.0f) ReLU keeps both), and its
    // backward, which reads the cached output, must equal the oracle's
    // x > 0 ? dy : 0.
    Rng rng(41);
    for (auto kind : {ActKind::ReLU, ActKind::Tanh, ActKind::Sigmoid,
                      ActKind::Gelu}) {
        Activation layer("act", kind);
        for (int trial = 0; trial < 4; ++trial) {
            const Shape shape =
                trial % 2 == 0 ? Shape{4, 3, 5, 7} : Shape{33, 17};
            const bool specials = trial < 3;
            const Tensor x = test::diffOperand(rng, shape, 0.1, specials);
            const Tensor dy = test::diffOperand(rng, shape, 0.1, specials);
            SCOPED_TRACE(std::string(actKindName(kind)) + " trial " +
                         std::to_string(trial));
            const Tensor y = layer.forward(x);
            const Tensor dx = layer.backward(dy);
            const Tensor yRef = test::referenceActivation(kind, x);
            EXPECT_EQ(test::bitDifference(y, yRef), "");
            EXPECT_EQ(test::bitDifference(
                          dx, test::referenceActivationBackward(kind, x,
                                                                yRef, dy)),
                      "");
        }
    }
}

TEST(LayerDiff, MaxPoolMatchesReferenceLoops)
{
    // Normal values snapped to multiples of 0.5, so windows hold exact
    // ties (the first maximum wins), plus the specials and one whole
    // window of NaN and one of -inf. Each output's gradient is
    // distinct, so the backward pass pins every window's argmax.
    struct Pool
    {
        std::size_t window, stride;
    };
    Rng rng(43);
    const float inf = std::numeric_limits<float>::infinity();
    for (const Pool pool : {Pool{2, 2}, Pool{3, 1}, Pool{2, 3}, Pool{3, 2}}) {
        for (int trial = 0; trial < 3; ++trial) {
            const std::size_t h = pool.window + rng.below(8);
            const std::size_t w = pool.window + rng.below(8);
            Tensor x = test::diffOperand(rng, {2, 3, h, w}, 0.1, true);
            for (std::size_t i = 0; i < x.numel(); ++i)
                if (std::isnormal(x[i]))
                    x[i] = std::round(x[i] * 2.0f) / 2.0f;
            for (std::size_t ky = 0; ky < pool.window; ++ky)
                for (std::size_t kx = 0; kx < pool.window; ++kx) {
                    x.at4(0, 1, ky, kx) =
                        std::numeric_limits<float>::quiet_NaN();
                    x.at4(1, 2, ky, kx) = -inf;
                }
            SCOPED_TRACE("window " + std::to_string(pool.window) +
                         " stride " + std::to_string(pool.stride) +
                         " trial " + std::to_string(trial));
            MaxPool2d layer("pool", pool.window, pool.stride);
            const Tensor y = layer.forward(x);
            Tensor dy(y.shape());
            for (std::size_t i = 0; i < dy.numel(); ++i)
                dy[i] = static_cast<float>(i + 1);
            const Tensor dx = layer.backward(dy);
            const test::ReferenceMaxPool ref =
                test::referenceMaxPool(x, pool.window, pool.stride);
            EXPECT_EQ(test::bitDifference(y, ref.out), "");
            EXPECT_EQ(test::bitDifference(dx, test::referenceMaxPoolBackward(
                                                  ref, x.shape(), dy)),
                      "");
        }
    }
}

TEST(LayerDiff, GlobalAvgPoolMatchesReferenceLoops)
{
    Rng rng(47);
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t h = 1 + rng.below(7), w = 1 + rng.below(7);
        const bool specials = trial % 2 == 1;
        const Tensor x = test::diffOperand(rng, {3, 4, h, w}, 0.1, specials);
        const Tensor dy = test::diffOperand(rng, {3, 4}, 0.1, specials);
        SCOPED_TRACE("trial " + std::to_string(trial));
        GlobalAvgPool layer("gap");
        EXPECT_EQ(test::bitDifference(layer.forward(x),
                                      test::referenceGlobalAvgPool(x)),
                  "");
        EXPECT_EQ(test::bitDifference(
                      layer.backward(dy),
                      test::referenceGlobalAvgPoolBackward(x.shape(), dy)),
                  "");
    }
}

TEST(Layers, MaxPoolNanWindowKeepsItsGradient)
{
    // 0..15 in one 4x4 plane with its bottom-right 2x2 window NaN:
    // that window outputs -inf and routes its gradient to its own
    // first tap (2, 2), not to element (0, 0) of the top-left window.
    Tensor x({1, 1, 4, 4});
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(i);
    for (std::size_t iy = 2; iy < 4; ++iy)
        for (std::size_t ix = 2; ix < 4; ++ix)
            x.at4(0, 0, iy, ix) = std::numeric_limits<float>::quiet_NaN();
    MaxPool2d layer("pool", 2, 2);
    const Tensor y = layer.forward(x);
    EXPECT_EQ(y.vec(), (std::vector<float>{
                           5.0f, 7.0f, 13.0f,
                           -std::numeric_limits<float>::infinity()}));
    const Tensor dx = layer.backward(Tensor(y.shape(), 1.0f));
    std::vector<float> want(16, 0.0f);
    for (std::size_t i : {5u, 7u, 13u, 10u})
        want[i] = 1.0f;
    EXPECT_EQ(dx.vec(), want);
}

TEST(GradCheckTest, PositionalEncoding)
{
    PositionalEncoding layer("pos", 4, 6);
    GradCheck check(layer, randomTensor({8, 6}, 17));
    EXPECT_LT(check.checkInput(), 1e-3); // identity gradient
}


TEST(GradCheckTest, BatchNormTraining)
{
    BatchNorm2d layer("bn", 3);
    GradCheck check(layer, randomTensor({2, 3, 4, 4}, 50));
    EXPECT_LT(check.checkInput(), 3e-2);
    EXPECT_LT(check.checkParams(), 3e-2);
}

TEST(BatchNorm, NormalizesPerChannelInTraining)
{
    BatchNorm2d layer("bn", 2);
    Tensor x = randomTensor({4, 2, 5, 5}, 51);
    // Shift channel 1 strongly; normalized output must be ~N(0,1).
    for (std::size_t i = 0; i < x.numel(); ++i)
        if ((i / 25) % 2 == 1)
            x[i] += 10.0f;
    const Tensor out = layer.forward(x);
    for (std::size_t c = 0; c < 2; ++c) {
        double sum = 0.0, sum2 = 0.0;
        std::size_t cnt = 0;
        for (std::size_t n = 0; n < 4; ++n)
            for (std::size_t yx = 0; yx < 25; ++yx) {
                const float v =
                    out.at4(n, c, yx / 5, yx % 5);
                sum += v;
                sum2 += v * v;
                ++cnt;
            }
        EXPECT_NEAR(sum / cnt, 0.0, 1e-3);
        EXPECT_NEAR(sum2 / cnt, 1.0, 1e-2);
    }
}

TEST(BatchNorm, RunningStatsConvergeToDataStats)
{
    BatchNorm2d layer("bn", 1, 0.3f);
    Rng rng(52);
    for (int i = 0; i < 50; ++i) {
        Tensor x({8, 1, 4, 4});
        x.fillGaussian(rng, 2.0f, 0.5f);
        layer.forward(x);
    }
    EXPECT_NEAR(layer.runningMean()[0], 2.0f, 0.1f);
    EXPECT_NEAR(layer.runningVar()[0], 0.25f, 0.05f);
}

TEST(BatchNorm, EvalModeUsesRunningStats)
{
    BatchNorm2d layer("bn", 1);
    Rng rng(53);
    for (int i = 0; i < 30; ++i) {
        Tensor x({8, 1, 4, 4});
        x.fillGaussian(rng, 1.0f, 1.0f);
        layer.forward(x);
    }
    layer.setTraining(false);
    // A constant input in eval mode maps deterministically through
    // the running stats (no division by a zero batch variance).
    Tensor c({2, 1, 2, 2}, 1.0f);
    const Tensor out = layer.forward(c);
    for (std::size_t i = 0; i < out.numel(); ++i)
        EXPECT_NEAR(out[i], out[0], 1e-6);
}


TEST(GradCheckTest, ResidualIdentitySkip)
{
    Rng rng(55);
    std::vector<LayerPtr> main_path;
    main_path.push_back(std::make_unique<Conv2d>(
        "c", Conv2dGeometry{3, 3, 3, 3, 1, 1}, rng));
    Residual layer("res", std::move(main_path));
    GradCheck check(layer, randomTensor({2, 3, 4, 4}, 56));
    EXPECT_LT(check.checkInput(), 2e-2);
    EXPECT_LT(check.checkParams(), 2e-2);
}

TEST(GradCheckTest, ResidualProjectionSkip)
{
    Rng rng(57);
    std::vector<LayerPtr> main_path;
    main_path.push_back(std::make_unique<Conv2d>(
        "c", Conv2dGeometry{2, 4, 3, 3, 2, 1}, rng));
    auto skip = std::make_unique<Conv2d>(
        "down", Conv2dGeometry{2, 4, 1, 1, 2, 0}, rng);
    Residual layer("res", std::move(main_path), std::move(skip));
    GradCheck check(layer, randomTensor({2, 2, 6, 6}, 58));
    EXPECT_LT(check.checkInput(), 2e-2);
    EXPECT_LT(check.checkParams(), 2e-2);
}

TEST(Residual, IdentityPlusZeroMainIsDouble)
{
    // A main path that is the identity activation doubles the input.
    std::vector<LayerPtr> main_path;
    main_path.push_back(
        std::make_unique<Activation>("id", ActKind::ReLU));
    Residual layer("res", std::move(main_path));
    Tensor x({2, 3}, 1.0f);
    const Tensor y = layer.forward(x);
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_FLOAT_EQ(y[i], 2.0f);
}

TEST(Residual, TrainsMiniResNetOnSpiral)
{
    SpiralDataset data(2, 0.1, 60);
    Rng rng(61);
    Network net;
    net.add(std::make_unique<Linear>("in", 2, 16, rng));
    std::vector<LayerPtr> block;
    block.push_back(std::make_unique<Linear>("b1", 16, 16, rng));
    block.push_back(std::make_unique<Activation>("t", ActKind::Tanh));
    block.push_back(std::make_unique<Linear>("b2", 16, 16, rng));
    net.add(std::make_unique<Residual>("res", std::move(block)));
    net.add(std::make_unique<Activation>("t2", ActKind::Tanh));
    net.add(std::make_unique<Linear>("out", 16, 2, rng));

    QuantTrainerConfig cfg;
    cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(64);
    cfg.optimizer.kind = OptimizerKind::Adam;
    cfg.optimizer.lr = 5e-3;
    QuantTrainer trainer(net, cfg);
    for (int i = 0; i < 200; ++i) {
        const auto b = data.sample(64);
        trainer.stepClassification(b.inputs, b.labels);
    }
    const auto eval = data.evalSet(256);
    EXPECT_GT(trainer.evalAccuracy(eval.inputs, eval.labels), 0.88);
}

// ------------------------------------------------------------- shapes

TEST(Layers, LinearShape)
{
    Rng rng(20);
    Linear layer("fc", 3, 8, rng);
    EXPECT_EQ(layer.forward(randomTensor({5, 3}, 21)).shape(),
              (Shape{5, 8}));
}

TEST(Layers, ConvShapePadStride)
{
    Rng rng(22);
    Conv2d layer("conv", Conv2dGeometry{3, 16, 5, 5, 2, 2}, rng);
    EXPECT_EQ(layer.forward(randomTensor({2, 3, 32, 32}, 23)).shape(),
              (Shape{2, 16, 16, 16}));
}

TEST(Layers, LstmShape)
{
    Rng rng(24);
    Lstm layer("lstm", 6, 10, rng);
    EXPECT_EQ(layer.forward(randomTensor({7, 3, 6}, 25)).shape(),
              (Shape{7, 3, 10}));
}

TEST(Layers, MergeLeading)
{
    MergeLeading layer("m");
    const Tensor out = layer.forward(randomTensor({3, 4, 5}, 26));
    EXPECT_EQ(out.shape(), (Shape{12, 5}));
    EXPECT_EQ(layer.backward(out).shape(), (Shape{3, 4, 5}));
}

TEST(Layers, FlattenRoundTrip)
{
    Flatten layer("f");
    const Tensor out = layer.forward(randomTensor({3, 2, 4, 4}, 27));
    EXPECT_EQ(out.shape(), (Shape{3, 32}));
    EXPECT_EQ(layer.backward(out).shape(), (Shape{3, 2, 4, 4}));
}

// ------------------------------------------------------------- losses

TEST(Loss, SoftmaxRowsSumToOne)
{
    const Tensor probs = softmax(randomTensor({6, 10}, 30));
    for (std::size_t r = 0; r < 6; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < 10; ++c)
            s += probs.at2(r, c);
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Loss, CrossEntropyPerfectPrediction)
{
    Tensor logits({2, 3});
    logits.at2(0, 1) = 50.0f;
    logits.at2(1, 2) = 50.0f;
    SoftmaxCrossEntropy head;
    EXPECT_NEAR(head.loss(logits, {1, 2}), 0.0, 1e-6);
}

TEST(Loss, CrossEntropyUniformIsLogC)
{
    Tensor logits({4, 8}); // all zeros -> uniform
    SoftmaxCrossEntropy head;
    EXPECT_NEAR(head.loss(logits, {0, 1, 2, 3}), std::log(8.0), 1e-6);
}

TEST(Loss, GradientMatchesFiniteDifference)
{
    Tensor logits = randomTensor({3, 5}, 31);
    const std::vector<int> labels{1, 4, 0};
    SoftmaxCrossEntropy head;
    head.loss(logits, labels);
    const Tensor grad = head.grad();

    const double eps = 1e-3;
    for (std::size_t i = 0; i < logits.numel(); ++i) {
        Tensor lp = logits, lm = logits;
        lp[i] += static_cast<float>(eps);
        lm[i] -= static_cast<float>(eps);
        SoftmaxCrossEntropy h2;
        const double num =
            (h2.loss(lp, labels) - h2.loss(lm, labels)) / (2 * eps);
        EXPECT_NEAR(num, grad[i], 1e-4);
    }
}

TEST(Loss, AccuracyCountsArgmax)
{
    Tensor logits({3, 2});
    logits.at2(0, 1) = 1.0f; // predicts 1
    logits.at2(1, 0) = 1.0f; // predicts 0
    logits.at2(2, 1) = 1.0f; // predicts 1
    EXPECT_NEAR(SoftmaxCrossEntropy::accuracy(logits, {1, 0, 0}),
                2.0 / 3.0, 1e-9);
}

TEST(Loss, MseAndGrad)
{
    Tensor pred({2}, std::vector<float>{1.0f, 3.0f});
    Tensor target({2}, std::vector<float>{0.0f, 1.0f});
    EXPECT_NEAR(mseLoss(pred, target), 0.5 * (1.0 + 4.0) / 2.0, 1e-6);
    const Tensor g = mseGrad(pred, target);
    EXPECT_NEAR(g[0], 0.5f, 1e-6);
    EXPECT_NEAR(g[1], 1.0f, 1e-6);
}

// ---------------------------------------------------------- optimizers

TEST(OptimizerTest, SgdMatchesHandComputation)
{
    Param p("w", {2});
    p.value[0] = 1.0f;
    p.value[1] = -1.0f;
    p.grad[0] = 0.5f;
    p.grad[1] = -0.25f;
    OptimizerConfig cfg;
    cfg.kind = OptimizerKind::SGD;
    cfg.lr = 0.1;
    Optimizer opt(cfg);
    opt.attach({&p});
    opt.step();
    EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.1f * 0.5f);
    EXPECT_FLOAT_EQ(p.value[1], -1.0f + 0.1f * 0.25f);
}

TEST(OptimizerTest, AdaGradAccumulatesSquares)
{
    Param p("w", {1});
    p.value[0] = 0.0f;
    OptimizerConfig cfg;
    cfg.kind = OptimizerKind::AdaGrad;
    cfg.lr = 1.0;
    Optimizer opt(cfg);
    opt.attach({&p});
    // Two steps with g = 3, then g = 4: v = 9 then 25 (9f and 25f
    // absorb kNdpoEps = 1e-8 exactly).
    p.grad[0] = 3.0f;
    opt.step();
    EXPECT_NEAR(p.value[0], -3.0 / 3.0, 1e-5);
    p.grad[0] = 4.0f;
    opt.step();
    EXPECT_NEAR(p.value[0], -1.0 - 4.0 / 5.0, 1e-5);
}

TEST(OptimizerTest, RmsPropDecaysHistory)
{
    Param p("w", {1});
    OptimizerConfig cfg;
    cfg.kind = OptimizerKind::RMSProp;
    cfg.lr = 0.01;
    Optimizer opt(cfg);
    opt.attach({&p});
    p.grad[0] = 2.0f;
    opt.step();
    // beta = 0.9: v = 0.1 * 4 = 0.4 (0.4f + 1e-8 rounds back to 0.4f);
    // step = 0.01 * 2 / sqrt(0.4).
    EXPECT_NEAR(p.value[0], -0.01 * 2.0 / std::sqrt(0.4), 1e-6);
}

TEST(OptimizerTest, AdamBiasCorrectionExact)
{
    Param p("w", {1});
    OptimizerConfig cfg;
    cfg.kind = OptimizerKind::Adam;
    cfg.lr = 0.001;
    Optimizer opt(cfg);
    opt.attach({&p});
    p.grad[0] = 0.5f;
    opt.step();
    // After step 1 with exact bias correction, the update equals
    // -lr * g / |g| = -lr (eps moves it by about 2e-8).
    EXPECT_NEAR(p.value[0], -0.001, 1e-6);
}

TEST(OptimizerTest, AdamFixedC5MatchesStepOne)
{
    // The paper's fixed-c5 Adam (fromConfig) equals exact Adam's
    // constants at step 1: sqrt(1-b2^1)/(1-b1^1).
    OptimizerConfig cfg;
    cfg.kind = OptimizerKind::Adam;
    const auto fixed = NdpoConstants::fromConfig(cfg);
    const auto exact = NdpoConstants::forStep(cfg, 1);
    EXPECT_NEAR(fixed.c5, exact.c5, 1e-12);
    // And at large t the exact correction converges to lr.
    EXPECT_NEAR(NdpoConstants::forStep(cfg, 100000).c5, cfg.lr, 1e-6);
}

TEST(OptimizerTest, ConvergesOnQuadratic)
{
    // Minimize (w - 3)^2 with each optimizer.
    const struct
    {
        OptimizerKind kind;
        double lr;
    } cases[] = {
        {OptimizerKind::SGD, 0.05},
        {OptimizerKind::AdaGrad, 0.5},
        {OptimizerKind::RMSProp, 0.02},
        {OptimizerKind::Adam, 0.05},
    };
    for (const auto &c : cases) {
        Param p("w", {1});
        OptimizerConfig cfg;
        cfg.kind = c.kind;
        cfg.lr = c.lr;
        Optimizer opt(cfg);
        opt.attach({&p});
        for (int i = 0; i < 800; ++i) {
            p.grad[0] = 2.0f * (p.value[0] - 3.0f);
            opt.step();
        }
        EXPECT_NEAR(p.value[0], 3.0f, 0.1)
            << optimizerKindName(c.kind);
    }
}

// ------------------------------------------------------------ datasets

TEST(Datasets, PatternImagesDeterministicEval)
{
    PatternImageDataset d(4, 1, 8, 8, 0.3, 99);
    const auto a = d.evalSet(16);
    const auto b = d.evalSet(16);
    EXPECT_TRUE(a.inputs == b.inputs);
    EXPECT_EQ(a.labels, b.labels);
}

TEST(Datasets, PatternImagesLabelRange)
{
    PatternImageDataset d(6, 2, 8, 8, 0.3, 7);
    const auto batch = d.sample(64);
    for (int l : batch.labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, 6);
    }
    EXPECT_EQ(batch.inputs.shape(), (Shape{64, 2, 8, 8}));
}

TEST(Datasets, SpiralSeparable)
{
    SpiralDataset d(2, 0.05, 3);
    const auto b = d.sample(200);
    // Points should be non-degenerate.
    EXPECT_GT(b.inputs.maxAbs(), 0.5f);
}

TEST(Datasets, MarkovTargetsMatchNextTokens)
{
    MarkovTextDataset d(8, 5);
    const auto batch = d.sample(6, 3);
    EXPECT_EQ(batch.inputs.shape(), (Shape{6, 3, 8}));
    EXPECT_EQ(batch.targets.size(), 18u);
    // One-hot rows.
    for (std::size_t t = 0; t < 6; ++t)
        for (std::size_t b = 0; b < 3; ++b) {
            float s = 0.0f;
            for (std::size_t v = 0; v < 8; ++v)
                s += batch.inputs[(t * 3 + b) * 8 + v];
            EXPECT_FLOAT_EQ(s, 1.0f);
        }
}

TEST(Datasets, MarkovIsLearnable)
{
    // A bigram table fit on samples should beat the uniform model.
    MarkovTextDataset d(8, 6);
    const auto batch = d.sample(64, 16);
    std::array<std::array<double, 8>, 8> counts{};
    for (std::size_t t = 0; t < 64; ++t)
        for (std::size_t b = 0; b < 16; ++b) {
            int cur = 0;
            for (std::size_t v = 0; v < 8; ++v)
                if (batch.inputs[(t * 16 + b) * 8 + v] > 0.5f)
                    cur = static_cast<int>(v);
            counts[cur][batch.targets[t * 16 + b]] += 1.0;
        }
    double nll = 0.0;
    std::size_t n = 0;
    for (std::size_t t = 0; t < 64; ++t)
        for (std::size_t b = 0; b < 16; ++b) {
            int cur = 0;
            for (std::size_t v = 0; v < 8; ++v)
                if (batch.inputs[(t * 16 + b) * 8 + v] > 0.5f)
                    cur = static_cast<int>(v);
            double total = 1e-9;
            for (double c : counts[cur])
                total += c;
            nll -= std::log(
                (counts[cur][batch.targets[t * 16 + b]] + 1e-9) /
                total);
            ++n;
        }
    EXPECT_LT(nll / n, std::log(8.0) * 0.8);
}

TEST(Datasets, SequenceRuleShapes)
{
    SequenceRuleDataset d(4, 12, 10, 8);
    const auto b = d.sample(5);
    EXPECT_EQ(b.inputs.shape(), (Shape{50, 12}));
    EXPECT_EQ(b.labels.size(), 5u);
}

// -------------------------------------------------------- quant trainer

TEST(QuantTrainerTest, Fp32LearnsSpiral)
{
    SpiralDataset data(2, 0.1, 17);
    Network net = makeSpiralMlp(18);

    QuantTrainerConfig cfg;
    cfg.optimizer.kind = OptimizerKind::Adam;
    cfg.optimizer.lr = 5e-3;
    QuantTrainer trainer(net, cfg);

    for (int i = 0; i < 200; ++i) {
        const auto b = data.sample(64);
        trainer.stepClassification(b.inputs, b.labels);
    }
    const auto eval = data.evalSet(256);
    EXPECT_GT(trainer.evalAccuracy(eval.inputs, eval.labels), 0.9);
}

TEST(QuantTrainerTest, QuantizedLearnsSpiralToo)
{
    SpiralDataset data(2, 0.1, 17);
    Network net = makeSpiralMlp(18);

    QuantTrainerConfig cfg;
    cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(64);
    cfg.optimizer.kind = OptimizerKind::Adam;
    cfg.optimizer.lr = 5e-3;
    QuantTrainer trainer(net, cfg);

    for (int i = 0; i < 200; ++i) {
        const auto b = data.sample(64);
        trainer.stepClassification(b.inputs, b.labels);
    }
    const auto eval = data.evalSet(256);
    EXPECT_GT(trainer.evalAccuracy(eval.inputs, eval.labels), 0.88);
}

TEST(QuantTrainerTest, MasterWeightsStayFullPrecision)
{
    // After a step, the network holds master (unquantized) weights --
    // quantized copies exist only during forward/backward.
    SpiralDataset data(2, 0.1, 19);
    Rng rng(20);
    Network net;
    net.add(std::make_unique<Linear>("fc1", 2, 16, rng));
    net.add(std::make_unique<Linear>("fc2", 16, 2, rng));

    QuantTrainerConfig cfg;
    cfg.algorithm = quant::AlgorithmConfig::zhu2019();
    QuantTrainer trainer(net, cfg);
    const auto b = data.sample(8);
    trainer.stepClassification(b.inputs, b.labels);

    // Quantizing the current weights must change them (i.e. they are
    // not already a quantized lattice).
    Param *w = net.params()[0];
    const Tensor q = quant::applyPolicy(w->value, cfg.algorithm,
                                        quant::TensorRole::Weight);
    EXPECT_FALSE(q == w->value);
}

TEST(QuantTrainerTest, GradientRecordsCollected)
{
    SpiralDataset data(2, 0.1, 21);
    Rng rng(22);
    Network net;
    net.add(std::make_unique<Linear>("fc1", 2, 8, rng));
    net.add(std::make_unique<Linear>("fc2", 8, 2, rng));

    QuantTrainerConfig cfg;
    cfg.recordGradientStats = true;
    QuantTrainer trainer(net, cfg);
    const auto b = data.sample(8);
    trainer.stepClassification(b.inputs, b.labels);
    // One record per layer per step.
    EXPECT_EQ(trainer.gradientRecords().size(), 2u);
    EXPECT_EQ(trainer.gradientRecords()[0].step, 1u);
}

TEST(QuantTrainerTest, DeterministicGivenSeeds)
{
    const auto run = [] {
        SpiralDataset data(2, 0.1, 23);
        Rng rng(24);
        Network net;
        net.add(std::make_unique<Linear>("fc1", 2, 8, rng));
        net.add(std::make_unique<Linear>("fc2", 8, 2, rng));
        QuantTrainerConfig cfg;
        cfg.algorithm = quant::AlgorithmConfig::zhang2020();
        QuantTrainer trainer(net, cfg);
        double loss = 0.0;
        for (int i = 0; i < 5; ++i) {
            const auto b = data.sample(8);
            loss = trainer.stepClassification(b.inputs, b.labels);
        }
        return loss;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

/** CRC-32 continued from @p crc over the low @p bytes of @p bits, LSB first. */
std::uint32_t
crcBits(std::uint32_t crc, std::uint64_t bits, std::size_t bytes)
{
    unsigned char buf[8];
    for (std::size_t i = 0; i < bytes; ++i)
        buf[i] = static_cast<unsigned char>(bits >> (8 * i));
    return crc32(buf, bytes, crc);
}

struct PolicyDigest
{
    std::string policy;
    /** CRC-32 of every step's loss (the double's bits). */
    std::uint32_t lossCrc = 0;
    /** CRC-32 of the final master weights (the floats' bits). */
    std::uint32_t mastersCrc = 0;

    bool operator==(const PolicyDigest &) const = default;
};

/**
 * The trainer's numerics under each table8_accuracy policy. A kernel
 * fast path must leave every row untouched; a deliberate numerics
 * change re-baselines the table in one edit: the failing test prints
 * the replacement.
 */
const std::vector<PolicyDigest> kPolicyDigests = {
    {"fp32", 0xa6f1abe9u, 0xacb1afedu},
    {"zhu_hqt", 0x44faa287u, 0x603437ccu},
    {"zhang_hqt", 0x28d10d50u, 0xb3095e3du},
    {"zhu", 0x21cf2b01u, 0x9fbf6b96u},
    {"zhang", 0xbe516d68u, 0xba997ce7u},
    {"wang2018", 0x6c0db494u, 0x040b029du},
    {"yang2020", 0x21cf2b01u, 0x9fbf6b96u},
};

TEST(QuantTrainerTest, PolicyRunsMatchPinnedDigests)
{
    // The train-cnn-hqt network (the resnet18 row of table8_accuracy:
    // conv 1->8, pool, conv 8->16 and two 16->16 on 12x12 images,
    // batch 32, Adam), 20 steps per policy, at pool widths 1 and 4.
    const std::pair<const char *, quant::AlgorithmConfig> policies[] = {
        {"fp32", quant::AlgorithmConfig::fp32()},
        {"zhu_hqt", quant::AlgorithmConfig::zhu2019Hqt(256)},
        {"zhang_hqt", quant::AlgorithmConfig::zhang2020Hqt(256)},
        {"zhu", quant::AlgorithmConfig::zhu2019()},
        {"zhang", quant::AlgorithmConfig::zhang2020()},
        {"wang2018", quant::AlgorithmConfig::wang2018()},
        {"yang2020", quant::AlgorithmConfig::yang2020()},
    };
    const auto train = [](const quant::AlgorithmConfig &algo) {
        PatternImageDataset data(4, 1, 12, 12, 1.2, 1234);
        Rng rng(11);
        Network net;
        net.add(std::make_unique<Conv2d>(
            "conv1", Conv2dGeometry{1, 8, 3, 3, 1, 1}, rng));
        net.add(std::make_unique<Activation>("relu1", ActKind::ReLU));
        net.add(std::make_unique<MaxPool2d>("pool1", 2, 2));
        for (int d = 0; d < 3; ++d) {
            const std::string tag = std::to_string(d + 2);
            net.add(std::make_unique<Conv2d>(
                "conv" + tag,
                Conv2dGeometry{d == 0 ? 8u : 16u, 16, 3, 3, 1, 1}, rng));
            net.add(std::make_unique<Activation>("relu" + tag,
                                                 ActKind::ReLU));
        }
        net.add(std::make_unique<GlobalAvgPool>("gap"));
        net.add(std::make_unique<Linear>("fc", 16, 4, rng));
        QuantTrainerConfig cfg;
        cfg.algorithm = algo;
        cfg.optimizer.kind = OptimizerKind::Adam;
        cfg.optimizer.lr = 3e-3;
        QuantTrainer trainer(net, cfg);
        std::uint32_t lossCrc = 0, mastersCrc = 0;
        for (int step = 0; step < 20; ++step) {
            const auto b = data.sample(32);
            lossCrc = crcBits(lossCrc,
                              std::bit_cast<std::uint64_t>(
                                  trainer.stepClassification(b.inputs,
                                                             b.labels)),
                              8);
        }
        for (const Param *p : net.params())
            for (std::size_t i = 0; i < p->value.numel(); ++i)
                mastersCrc = crcBits(
                    mastersCrc, std::bit_cast<std::uint32_t>(p->value[i]),
                    4);
        return std::make_pair(lossCrc, mastersCrc);
    };

    std::vector<PolicyDigest> got;
    for (const auto &[name, algo] : policies) {
        ThreadPool::instance().setNumThreads(1);
        const auto [lossCrc, mastersCrc] = train(algo);
        ThreadPool::instance().setNumThreads(4);
        EXPECT_EQ(train(algo), std::make_pair(lossCrc, mastersCrc))
            << name << ": pool width 4 differs from width 1";
        got.push_back({name, lossCrc, mastersCrc});
    }
    ThreadPool::instance().setNumThreads(0);

    std::string table;
    for (std::size_t i = 0; i < got.size(); ++i) {
        char row[96];
        std::snprintf(row, sizeof row, "    {\"%s\", 0x%08xu, 0x%08xu},%s\n",
                      got[i].policy.c_str(), got[i].lossCrc,
                      got[i].mastersCrc,
                      i < kPolicyDigests.size() && kPolicyDigests[i] == got[i]
                          ? ""
                          : " // changed");
        table += row;
    }
    EXPECT_TRUE(got == kPolicyDigests)
        << "trainer numerics differ from the pinned digests; after a "
           "deliberate change, replace kPolicyDigests with:\n"
        << table;
}

TEST(QuantTrainerTest, LanguageModelPerplexityDrops)
{
    MarkovTextDataset data(8, 31);
    Rng rng(32);
    Network net;
    net.add(std::make_unique<Lstm>("lstm", 8, 16, rng));
    net.add(std::make_unique<MergeLeading>("m"));
    net.add(std::make_unique<Linear>("proj", 16, 8, rng));

    QuantTrainerConfig cfg;
    cfg.optimizer.kind = OptimizerKind::Adam;
    cfg.optimizer.lr = 1e-2;
    QuantTrainer trainer(net, cfg);

    const auto eval = data.evalSet(12, 16);
    const double before =
        trainer.evalPerplexity(eval.inputs, eval.targets, 8);
    for (int i = 0; i < 60; ++i) {
        const auto b = data.sample(12, 16);
        trainer.stepLanguageModel(b.inputs, b.targets, 8);
    }
    const double after =
        trainer.evalPerplexity(eval.inputs, eval.targets, 8);
    EXPECT_LT(after, before * 0.8);
    EXPECT_LT(after, 8.0); // below the uniform-model perplexity
}

// ------------------------------------------------------------- network

TEST(NetworkTest, ForwardHookSeesEveryLayer)
{
    Rng rng(40);
    Network net;
    net.add(std::make_unique<Linear>("a", 4, 4, rng));
    net.add(std::make_unique<Linear>("b", 4, 4, rng));
    net.add(std::make_unique<Linear>("c", 4, 2, rng));

    std::vector<std::size_t> seen;
    net.forward(randomTensor({2, 4}, 41),
                [&](const Tensor &x, std::size_t i) {
                    seen.push_back(i);
                    return x;
                });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(NetworkTest, BackwardHookReverseOrder)
{
    Rng rng(42);
    Network net;
    net.add(std::make_unique<Linear>("a", 4, 4, rng));
    net.add(std::make_unique<Linear>("b", 4, 2, rng));
    net.forward(randomTensor({2, 4}, 43));

    std::vector<std::size_t> seen;
    net.backward(randomTensor({2, 2}, 44),
                 [&](const Tensor &g, std::size_t i) {
                     seen.push_back(i);
                     return g;
                 });
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 0}));
}

TEST(NetworkTest, NumParamsCounts)
{
    Rng rng(45);
    Network net;
    net.add(std::make_unique<Linear>("a", 4, 8, rng)); // 32 + 8
    net.add(std::make_unique<Linear>("b", 8, 2, rng)); // 16 + 2
    EXPECT_EQ(net.numParams(), 58u);
}

} // namespace
} // namespace cq::nn
