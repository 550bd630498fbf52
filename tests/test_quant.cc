/**
 * @file
 * Tests for the quantization library: formats, streaming statistics,
 * LDQ properties (including the paper's error-bound proposition),
 * E2BQM selection behaviour and the algorithm policies.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/threadpool.h"
#include "quant/block_quant.h"
#include "quant/e2bqm.h"
#include "quant/policy.h"
#include "quant/qformat.h"
#include "quant/statistics.h"
#include "tensor/tensor_ops.h"
#include "tensor_reference.h"

namespace cq::quant {
namespace {

// ---------------------------------------------------------------- formats

TEST(QFormat, LevelsSymmetric)
{
    IntFormat f{8, 1.0};
    EXPECT_EQ(f.qmax(), 127);
    EXPECT_EQ(f.qmin(), -127);
    IntFormat f4{4, 1.0};
    EXPECT_EQ(f4.qmax(), 7);
}

TEST(QFormat, FormatForMaxAbsCoversRange)
{
    const IntFormat f = formatForMaxAbs(6.35, 8);
    EXPECT_NEAR(f.scale * f.qmax(), 6.35, 1e-9);
    // The extreme value quantizes without clipping.
    EXPECT_EQ(quantizeValue(6.35, f), 127);
    EXPECT_EQ(quantizeValue(-6.35, f), -127);
}

TEST(QFormat, QuantizeSaturates)
{
    IntFormat f{8, 0.1};
    EXPECT_EQ(quantizeValue(1000.0, f), 127);
    EXPECT_EQ(quantizeValue(-1000.0, f), -127);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(quantizeValue(inf, f), 127);
    EXPECT_EQ(quantizeValue(-inf, f), -127);
    // A NaN has no level: INT32_MIN, which an int16 level store keeps
    // as 0.
    const std::int32_t q =
        quantizeValue(std::numeric_limits<double>::quiet_NaN(), f);
    EXPECT_EQ(q, std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(static_cast<std::int16_t>(q), 0);
}

TEST(QFormat, RoundTripErrorBounded)
{
    Rng rng(1);
    const IntFormat f = formatForMaxAbs(1.0, 8);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        const double xq = dequantizeValue(quantizeValue(x, f), f);
        EXPECT_LE(std::fabs(x - xq), f.scale / 2 + 1e-12);
    }
}

TEST(QFormat, ZeroMaxAbsSafe)
{
    const IntFormat f = formatForMaxAbs(0.0, 8);
    EXPECT_EQ(quantizeValue(0.0, f), 0);
}

TEST(QFormat, FakeQuantizeTensorShapePreserved)
{
    Rng rng(2);
    Tensor x({3, 5});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const IntFormat f = formatForMaxAbs(x.maxAbs(), 8);
    const Tensor q = fakeQuantizeTensor(x, f);
    EXPECT_EQ(q.shape(), x.shape());
    EXPECT_LE(maxAbsDiff(x, q), f.scale / 2 + 1e-9);
}

TEST(QFormat, ShiftableCoversFineAndWide)
{
    const ShiftableFormat sf = shiftableForMaxAbs(12.7, 8, 2);
    EXPECT_NEAR(sf.wide().scale * 127, 12.7, 1e-9);
    EXPECT_NEAR(sf.fine().scale * 4, sf.wide().scale, 1e-12);
}

TEST(QFormat, ShiftableBeatsPlainOnLongTail)
{
    // Data: dense small values plus a few large outliers.
    Rng rng(3);
    Tensor x({4096});
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.gaussian(0.0, 0.05));
    for (int i = 0; i < 16; ++i)
        x[i * 256] = static_cast<float>(rng.gaussian(0.0, 2.0));

    const double max_abs = x.maxAbs();
    const Tensor plain =
        fakeQuantizeTensor(x, formatForMaxAbs(max_abs, 8));
    const Tensor shifty =
        fakeQuantizeShiftable(x, shiftableForMaxAbs(max_abs, 8, 3));
    EXPECT_LT(rmse(x, shifty), rmse(x, plain));
}

// ---------------------------------------------------------------- stats

TEST(Statistics, MaxAbsStreaming)
{
    MaxAbsStat stat;
    for (double v : {0.5, -2.0, 1.0})
        stat.observe(v);
    EXPECT_DOUBLE_EQ(stat.value(), 2.0);
    EXPECT_EQ(stat.count(), 3u);
    stat.reset();
    EXPECT_DOUBLE_EQ(stat.value(), 0.0);
}

TEST(Statistics, ErrorStatMatchesTensorOps)
{
    Rng rng(4);
    Tensor a({512}), b({512});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);

    ErrorStat stat;
    for (std::size_t i = 0; i < a.numel(); ++i)
        stat.observe(a[i], b[i]);

    EXPECT_NEAR(stat.value(ErrorMetric::Rectilinear),
                rectilinearDistance(a, b), 1e-6);
    EXPECT_NEAR(stat.value(ErrorMetric::CosineDistance),
                1.0 - cosineSimilarity(a, b), 1e-6);
    EXPECT_NEAR(stat.value(ErrorMetric::MeanBias),
                meanBias(a, b), 1e-6);
    EXPECT_NEAR(stat.value(ErrorMetric::MaxError), maxAbsDiff(a, b),
                1e-6);
}

TEST(Statistics, MeanBiasIsSigned)
{
    // Regression: the streaming MeanBias used to return |sum|/count
    // while the tensor-ops reference returns the signed mean. Both
    // must agree, sign included, on the same data.
    Tensor a({4}), b({4});
    // x - x' = {-1, -1, -1, +1}: mean bias is -0.5, not +0.5.
    const float av[] = {0.0f, 1.0f, 2.0f, 4.0f};
    const float bv[] = {1.0f, 2.0f, 3.0f, 3.0f};
    ErrorStat stat;
    for (int i = 0; i < 4; ++i) {
        a[i] = av[i];
        b[i] = bv[i];
        stat.observe(av[i], bv[i]);
    }
    EXPECT_DOUBLE_EQ(stat.value(ErrorMetric::MeanBias), -0.5);
    EXPECT_DOUBLE_EQ(meanBias(a, b), -0.5);
    EXPECT_DOUBLE_EQ(stat.value(ErrorMetric::MeanBias),
                     meanBias(a, b));
}

TEST(Statistics, ErrorStatPerfectMatchZero)
{
    ErrorStat stat;
    stat.observe(1.0, 1.0);
    stat.observe(-2.0, -2.0);
    for (auto m : {ErrorMetric::Rectilinear, ErrorMetric::CosineDistance,
                   ErrorMetric::MeanBias, ErrorMetric::MaxError})
        EXPECT_NEAR(stat.value(m), 0.0, 1e-12);
}

// ---------------------------------------------------------------- LDQ

TEST(Ldq, RoundTripShape)
{
    Rng rng(5);
    Tensor x({1000});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const BlockQuantized q = ldqQuantize(x, 128, 8);
    EXPECT_EQ(q.numBlocks(), 8u);
    EXPECT_EQ(q.dequantize().shape(), x.shape());
}

TEST(Ldq, BlockScaleNeverExceedsGlobal)
{
    Rng rng(6);
    Tensor x({4096});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const BlockQuantized ldq = ldqQuantize(x, 256, 8);
    const BlockQuantized dq = dqQuantize(x, 8);
    for (const auto &f : ldq.formats())
        EXPECT_LE(f.scale, dq.formats()[0].scale + 1e-12);
}

/**
 * The paper's Sec. III-A proposition: each block's scale never
 * exceeds the layer-wise scale, so the per-element rounding-error
 * *bound* of LDQ (half the local scale) never exceeds DQ's bound
 * (half the global scale). We check the bound elementwise.
 */
TEST(Ldq, ErrorBoundNeverWorseThanLayerwiseDq)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        Tensor x({2048});
        // Mix of distributions across trials.
        if (trial % 2) {
            x.fillGaussian(rng, 0.0f, 0.1f * (trial + 1));
        } else {
            x.fillUniform(rng, -1.0f * trial - 1, 1.0f * trial + 1);
        }
        const BlockQuantized ldq = ldqQuantize(x, 128, 8);
        const BlockQuantized dq = dqQuantize(x, 8);
        const double dq_bound = dq.formats()[0].scale / 2.0;
        const Tensor via_ldq = ldq.dequantize();
        for (std::size_t i = 0; i < x.numel(); ++i) {
            const double err = std::fabs(
                static_cast<double>(x[i]) - via_ldq[i]);
            // LDQ error obeys the local bound, which obeys DQ's.
            EXPECT_LE(err, ldq.formatOf(i).scale / 2.0 + 1e-12);
            EXPECT_LE(ldq.formatOf(i).scale / 2.0, dq_bound + 1e-12);
        }
    }
}

TEST(Ldq, ErrorStrictlyBetterOnVaryingScales)
{
    // Blocks with very different magnitudes: LDQ wins on the small
    // block (near-zero error) and matches DQ on the large one, so
    // the overall RMSE improves by about 1/sqrt(2).
    Rng rng(8);
    Tensor x({1024});
    for (std::size_t i = 0; i < 512; ++i)
        x[i] = static_cast<float>(rng.gaussian(0.0, 0.001));
    for (std::size_t i = 512; i < 1024; ++i)
        x[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    const double e_ldq = rmse(x, fakeQuantizeLdq(x, 512, 8));
    const double e_dq = rmse(x, dqQuantize(x, 8).dequantize());
    EXPECT_LE(e_ldq, e_dq * 1.01);

    // The decisive effect: the small block alone (where gradients
    // carry signal that DQ rounds away relative to its magnitude) is
    // quantized orders of magnitude more precisely.
    const Tensor via_ldq = fakeQuantizeLdq(x, 512, 8);
    const Tensor via_dq = dqQuantize(x, 8).dequantize();
    double e_small_ldq = 0.0, e_small_dq = 0.0;
    for (std::size_t i = 0; i < 512; ++i) {
        e_small_ldq += std::pow(x[i] - via_ldq[i], 2);
        e_small_dq += std::pow(x[i] - via_dq[i], 2);
    }
    EXPECT_LT(e_small_ldq, e_small_dq * 1e-3);
}

TEST(Ldq, CompressionRatioFormulas)
{
    // C_LDQ = 4 / (1 + 2/K); C_DQ = 4 / (1 + 2/N).
    EXPECT_NEAR(ldqCompressionRatio(1 << 20, 1024),
                4.0 / (1.0 + 2.0 / 1024), 1e-9);
    EXPECT_NEAR(dqCompressionRatio(1 << 20),
                4.0 / (1.0 + 2.0 / (1 << 20)), 1e-6);
}

TEST(Ldq, CompressionLossSmallForLargeBlocks)
{
    const std::size_t n = 1 << 22;
    // K >= 200 -> loss < 1%; K >= 4000 -> loss < 0.05% (Sec. III-A).
    EXPECT_GT(ldqCompressionRatio(n, 200) / dqCompressionRatio(n),
              0.99);
    EXPECT_GT(ldqCompressionRatio(n, 4000) / dqCompressionRatio(n),
              0.9995);
}

TEST(Ldq, StorageBytesAccountsTags)
{
    Rng rng(9);
    Tensor x({1024});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const BlockQuantized q = ldqQuantize(x, 256, 8);
    EXPECT_DOUBLE_EQ(q.storageBytes(), 1024.0 + 4 * 2.0);
}

TEST(Ldq, ShortLastBlockHandled)
{
    Rng rng(10);
    Tensor x({1000});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const BlockQuantized q = ldqQuantize(x, 300, 8);
    EXPECT_EQ(q.numBlocks(), 4u);
    EXPECT_EQ(q.dequantize().numel(), 1000u);
}

// ---------------------------------------------------------------- E2BQM

TEST(E2bqm, SingleCandidateIsPlainDq)
{
    Rng rng(11);
    Tensor x({512});
    x.fillGaussian(rng, 0.0f, 1.0f);
    E2bqmConfig cfg;
    cfg.candidates = {QuantCandidate{8, 1.0, 0}};
    const Tensor got = fakeQuantizeE2bqm(x, cfg);
    const Tensor want = dqQuantize(x, 8).dequantize();
    EXPECT_LT(maxAbsDiff(got, want), 1e-9);
}

TEST(E2bqm, SelectsLowerErrorCandidate)
{
    // Long-tail data: a clipped candidate should win under the
    // rectilinear metric.
    Rng rng(12);
    Tensor x({4096});
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.gaussian(0.0, 0.02));
    x[7] = 3.0f; // single large outlier

    const auto result =
        e2bqmQuantize(x, E2bqmConfig::clippingLadder(8));
    // The unclipped candidate (index 0) wastes nearly all levels on
    // the outlier; a clipped one must be selected.
    EXPECT_NE(result.selected, 0u);
    // And the winner's error is minimal up to the arbitration
    // tolerance (a near-tie may legitimately go to a cheaper format).
    for (const auto &cand : result.candidates)
        EXPECT_LE(result.best().error,
                  cand.error + kArbitrationRelEps * cand.error);
}

TEST(E2bqm, ArbitrationNearTieGoesToFewerBits)
{
    // Regression: the arbiter documented "(near-)equal error → fewer
    // bits wins" but compared with exact ==, so a 1-ULP error edge
    // could force INT16 over INT8.
    CandidateResult int8;
    int8.candidate = {8, 1.0, 0};
    int8.error = 0.125;
    CandidateResult int16;
    int16.candidate = {16, 1.0, 0};
    // 1 ULP below the INT8 error: within the relative tolerance.
    int16.error = std::nextafter(0.125, 0.0);
    EXPECT_EQ(arbitrate({int8, int16}), 0u);
    // Same near-tie with INT16 listed first still picks INT8.
    EXPECT_EQ(arbitrate({int16, int8}), 1u);
    // A clearly lower INT16 error must still win.
    int16.error = 0.125 * (1.0 - 1e-6);
    EXPECT_EQ(arbitrate({int8, int16}), 1u);
    // Exactly equal errors also go to the cheaper format.
    int16.error = 0.125;
    EXPECT_EQ(arbitrate({int8, int16}), 0u);
}

TEST(E2bqm, ArbitrationComparesSignedMetricsByMagnitude)
{
    // MeanBias is signed: a bias of -0.2 is worse than +0.1.
    CandidateResult neg;
    neg.candidate = {8, 1.0, 0};
    neg.error = -0.2;
    CandidateResult pos;
    pos.candidate = {16, 1.0, 0};
    pos.error = 0.1;
    EXPECT_EQ(arbitrate({neg, pos}), 1u);
}

TEST(E2bqm, NoClipNeededOnUniformData)
{
    Rng rng(13);
    Tensor x({4096});
    x.fillUniform(rng, -1.0f, 1.0f);
    const auto result =
        e2bqmQuantize(x, E2bqmConfig::clippingLadder(8));
    // Uniform data has no tail: clipping only hurts.
    EXPECT_EQ(result.selected, 0u);
}

TEST(E2bqm, AdaptivePrecisionPrefersInt8WhenAdequate)
{
    Rng rng(14);
    Tensor x({1024});
    x.fillUniform(rng, -1.0f, 1.0f);
    auto cfg = E2bqmConfig::adaptivePrecision();
    cfg.metric = ErrorMetric::MaxError;
    const auto result = e2bqmQuantize(x, cfg);
    // INT16 always has lower error; this checks the arbiter reports
    // both candidates and errors are ordered.
    ASSERT_EQ(result.candidates.size(), 2u);
    EXPECT_LT(result.candidates[1].error, result.candidates[0].error);
}

TEST(E2bqm, ShiftableLadderImprovesLongTail)
{
    Rng rng(15);
    Tensor x({8192});
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.gaussian(0.0, 0.05));
    for (int i = 0; i < 32; ++i)
        x[i * 256] = static_cast<float>(rng.gaussian(0.0, 1.5));

    E2bqmConfig plain;
    plain.candidates = {QuantCandidate{8, 1.0, 0}};
    const double e_plain = rmse(x, fakeQuantizeE2bqm(x, plain));
    const double e_shift = rmse(
        x, fakeQuantizeE2bqm(x, E2bqmConfig::shiftableLadder(8)));
    EXPECT_LT(e_shift, e_plain);
}

TEST(E2bqm, HqtBlockedPathRuns)
{
    Rng rng(16);
    Tensor x({3000});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const Tensor out =
        fakeQuantizeHqt(x, 1024, E2bqmConfig::clippingLadder(8));
    EXPECT_EQ(out.numel(), x.numel());
    EXPECT_LT(rmse(x, out), 0.05);
}

TEST(E2bqm, CandidateDequantizeConsistent)
{
    Rng rng(17);
    Tensor x({256});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const auto result =
        e2bqmQuantize(x, E2bqmConfig::shiftableLadder(8));
    // Each candidate's recorded error equals the recomputed error of
    // its dequantized tensor.
    for (const auto &cand : result.candidates) {
        const Tensor deq = cand.dequantize(x.shape());
        EXPECT_NEAR(cand.error, rectilinearDistance(x, deq), 1e-6);
    }
}

// ------------------------------------------ differential (vs oracle)

/**
 * Seeded gradient-like data: N(0, 0.05) with heavy-tail outliers, runs
 * of zeros (whole all-zero blocks at small block sizes) and, when
 * @p specials, a few +-Inf and NaN.
 */
Tensor
e2bqmData(Rng &rng, std::size_t n, bool specials)
{
    Tensor x({n});
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        double v = rng.gaussian(0.0, 0.05);
        if (u < 0.02)
            v *= 60.0;
        else if (u < 0.3)
            v = 0.0;
        x[i] = static_cast<float>(v);
    }
    const std::size_t zeroRun = rng.below(n + 1);
    for (std::size_t i = zeroRun; i < std::min(n, zeroRun + 300); ++i)
        x[i] = 0.0f;
    if (specials) {
        const float inf = std::numeric_limits<float>::infinity();
        const float nan = std::numeric_limits<float>::quiet_NaN();
        for (float v : {inf, -inf, nan})
            x[rng.below(n)] = v;
    }
    return x;
}

TEST(E2bqmDiff, FusedSweepMatchesPerBlockComposition)
{
    // Every ladder and a lone candidate x every metric x block sizes
    // 1..600: the output and the chosen-bits tally equal the per-block
    // composition of e2bqmQuantize(block).best().dequantize().
    const ErrorMetric metrics[] = {
        ErrorMetric::Rectilinear, ErrorMetric::CosineDistance,
        ErrorMetric::MeanBias, ErrorMetric::MaxError};
    Rng rng(31);
    int trial = 0;
    for (ErrorMetric metric : metrics) {
        const E2bqmConfig configs[] = {
            E2bqmConfig::clippingLadder(8, metric),
            E2bqmConfig::clippingLadder(4, metric),
            E2bqmConfig::shiftableLadder(8, metric),
            E2bqmConfig::shiftableLadder(12, metric),
            E2bqmConfig::adaptivePrecision(metric),
            E2bqmConfig{{QuantCandidate{8, 1.0, 0}}, metric},
            E2bqmConfig{{QuantCandidate{8, 0.5, 2}}, metric}};
        for (const E2bqmConfig &cfg : configs) {
            for (int rep = 0; rep < 4; ++rep, ++trial) {
                const std::size_t n = 1 + rng.below(2000);
                const std::size_t bs =
                    rep == 0 ? 1 + rng.below(4) : 1 + rng.below(600);
                const Tensor x = e2bqmData(rng, n, trial % 3 == 2);
                SCOPED_TRACE("trial " + std::to_string(trial) + " " +
                             errorMetricName(metric) + " n " +
                             std::to_string(n) + " block " +
                             std::to_string(bs));
                E2bqmSelectionInfo wantInfo, wantOne;
                const Tensor want =
                    test::referenceFakeQuantizeHqt(x, bs, cfg, &wantInfo);
                const Tensor wantWhole =
                    test::referenceFakeQuantizeHqt(x, 0, cfg, &wantOne);
                for (unsigned threads : {1u, 4u}) {
                    ThreadPool::instance().setNumThreads(threads);
                    E2bqmSelectionInfo info, one;
                    EXPECT_EQ(test::bitDifference(
                                  fakeQuantizeHqt(x, bs, cfg, &info), want),
                              "");
                    EXPECT_EQ(info.bitsTally, wantInfo.bitsTally);
                    EXPECT_EQ(test::bitDifference(
                                  fakeQuantizeE2bqm(x, cfg, &one),
                                  wantWhole),
                              "");
                    EXPECT_EQ(one.bitsTally, wantOne.bitsTally);
                }
            }
        }
    }
    ThreadPool::instance().setNumThreads(0);
}

TEST(E2bqmDiff, DegenerateBlocksMatchComposition)
{
    // All-zero, all-Inf, all-NaN and mixed special blocks, and the
    // empty tensor (one tallied block for fakeQuantizeE2bqm, none for
    // fakeQuantizeHqt). The 40-element tensors reach the 16-wide
    // chunks of the plain-candidate path with one Inf or NaN each,
    // which must keep their blocks scalar.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::vector<float>> blocks = {
        {0.0f, -0.0f, 0.0f, 0.0f},
        {inf, inf, -inf, inf},
        {nan, nan, nan},
        {1.0f, nan, -2.0f, inf, 0.0f, -0.0f, 3e-40f},
        {}};
    for (float special : {inf, nan}) {
        std::vector<float> data(40);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = 0.25f * static_cast<float>(i % 7) - 0.75f;
        data[21] = special;
        blocks.push_back(data);
    }
    for (ErrorMetric metric :
         {ErrorMetric::Rectilinear, ErrorMetric::CosineDistance,
          ErrorMetric::MeanBias, ErrorMetric::MaxError}) {
        for (const E2bqmConfig &cfg :
             {E2bqmConfig::clippingLadder(8, metric),
              E2bqmConfig::shiftableLadder(8, metric),
              E2bqmConfig::adaptivePrecision(metric)}) {
            for (const std::vector<float> &data : blocks) {
                const Tensor x({data.size()}, data);
                for (std::size_t bs :
                     {std::size_t(1), std::size_t(3), std::size_t(17)}) {
                    E2bqmSelectionInfo info, want;
                    EXPECT_EQ(test::bitDifference(
                                  fakeQuantizeHqt(x, bs, cfg, &info),
                                  test::referenceFakeQuantizeHqt(
                                      x, bs, cfg, &want)),
                              "");
                    EXPECT_EQ(info.bitsTally, want.bitsTally);
                }
                E2bqmSelectionInfo info, want;
                EXPECT_EQ(test::bitDifference(
                              fakeQuantizeE2bqm(x, cfg, &info),
                              test::referenceFakeQuantizeHqt(x, 0, cfg,
                                                             &want)),
                          "");
                EXPECT_EQ(info.bitsTally, want.bitsTally);
            }
        }
    }
}

// ---------------------------------------------------------------- policies

TEST(Policy, Fp32KeepsDataExact)
{
    Rng rng(18);
    Tensor x({100});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const auto algo = AlgorithmConfig::fp32();
    for (auto role :
         {TensorRole::Weight, TensorRole::Activation,
          TensorRole::NeuronGradient, TensorRole::WeightGradient}) {
        EXPECT_TRUE(applyPolicy(x, algo, role) == x);
    }
}

TEST(Policy, WeightGradientsAlwaysFullPrecision)
{
    Rng rng(19);
    Tensor x({100});
    x.fillGaussian(rng, 0.0f, 1.0f);
    for (const auto &algo :
         {AlgorithmConfig::zhu2019(), AlgorithmConfig::zhang2020(),
          AlgorithmConfig::zhu2019Hqt(), AlgorithmConfig::zhang2020Hqt()}) {
        EXPECT_TRUE(
            applyPolicy(x, algo, TensorRole::WeightGradient) == x);
    }
}

TEST(Policy, QuantizedRolesChangeData)
{
    Rng rng(20);
    Tensor x({1000});
    x.fillGaussian(rng, 0.0f, 1.0f);
    const auto algo = AlgorithmConfig::zhu2019();
    const Tensor w = applyPolicy(x, algo, TensorRole::Weight);
    EXPECT_FALSE(w == x);
    EXPECT_LT(rmse(x, w), 0.02); // but close
}

TEST(Policy, HqtVariantUsesBlocks)
{
    const auto plain = AlgorithmConfig::zhang2020();
    const auto hqt = AlgorithmConfig::zhang2020Hqt(512);
    EXPECT_FALSE(plain.usesHqt());
    EXPECT_TRUE(hqt.usesHqt());
    EXPECT_EQ(hqt.blockSize, 512u);
}

TEST(Policy, HqtNeverWorseOnBlockStructuredData)
{
    // Per the LDQ proposition, block-sliced quantization has error
    // <= layer-wise for the same candidates.
    Rng rng(21);
    Tensor x({4096});
    for (std::size_t i = 0; i < x.numel(); ++i) {
        const double sigma = i < 2048 ? 0.001 : 1.0;
        x[i] = static_cast<float>(rng.gaussian(0.0, sigma));
    }
    const auto plain = AlgorithmConfig::zhu2019();
    const auto hqt = AlgorithmConfig::zhu2019Hqt(2048);
    const double e_plain =
        rmse(x, applyPolicy(x, plain, TensorRole::Weight));
    const double e_hqt =
        rmse(x, applyPolicy(x, hqt, TensorRole::Weight));
    EXPECT_LE(e_hqt, e_plain + 1e-12);
}

TEST(Policy, RoleNamesStable)
{
    EXPECT_STREQ(tensorRoleName(TensorRole::Weight), "weight");
    EXPECT_STREQ(tensorRoleName(TensorRole::WeightGradient),
                 "weight-gradient");
}


// ---------------------------------------------------------------- FP8

TEST(FloatFormat, PresetsSane)
{
    const auto fp8 = FloatFormat::fp8();
    EXPECT_EQ(fp8.expBits, 5);
    EXPECT_EQ(fp8.mantBits, 2);
    // e5m2 with saturating (non-IEEE-reserved) top exponent:
    // 1.75 * 2^16.
    EXPECT_DOUBLE_EQ(fp8.maxValue(), 1.75 * 65536.0);
    EXPECT_DOUBLE_EQ(fp8.minNormal(), std::pow(2.0, -14));
    EXPECT_GT(FloatFormat::fp24().maxValue(),
              FloatFormat::fp16().maxValue());
}

TEST(FloatFormat, ExactValuesRoundTrip)
{
    const auto fp8 = FloatFormat::fp8();
    for (double v : {0.0, 1.0, 1.25, 1.5, 1.75, 2.0, 0.5, -3.0,
                     0.0625}) {
        EXPECT_DOUBLE_EQ(roundToFloatFormat(v, fp8), v) << v;
    }
}

TEST(FloatFormat, RoundsToNearest)
{
    const auto fp8 = FloatFormat::fp8();
    // Between 1.0 and 1.25 the midpoint rounds to even (1.0).
    EXPECT_DOUBLE_EQ(roundToFloatFormat(1.1, fp8), 1.0);
    EXPECT_DOUBLE_EQ(roundToFloatFormat(1.2, fp8), 1.25);
    EXPECT_DOUBLE_EQ(roundToFloatFormat(-1.2, fp8), -1.25);
}

TEST(FloatFormat, SaturatesAtMax)
{
    const auto fp8 = FloatFormat::fp8();
    EXPECT_DOUBLE_EQ(roundToFloatFormat(1e30, fp8), fp8.maxValue());
    EXPECT_DOUBLE_EQ(roundToFloatFormat(-1e30, fp8),
                     -fp8.maxValue());
}

TEST(FloatFormat, SubnormalsRepresented)
{
    const auto fp8 = FloatFormat::fp8();
    // Smallest subnormal = 2^(1-bias-mantBits) = 2^-16.
    const double tiny = std::pow(2.0, -16);
    EXPECT_DOUBLE_EQ(roundToFloatFormat(tiny, fp8), tiny);
    EXPECT_DOUBLE_EQ(roundToFloatFormat(tiny / 3.0, fp8), 0.0);
}

TEST(FloatFormat, RelativeErrorBoundedForNormals)
{
    const auto fp8 = FloatFormat::fp8();
    Rng rng(61);
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.uniform(0.01, 1000.0);
        const double q = roundToFloatFormat(v, fp8);
        // Half-ULP relative bound: 2^-(mantBits+1).
        EXPECT_LE(std::fabs(q - v) / v, std::pow(2.0, -3) + 1e-12);
    }
}

TEST(FloatFormat, ScaledQuantizationCoversSmallData)
{
    // Gradients of magnitude ~1e-6 need loss scaling to survive FP8.
    Rng rng(62);
    Tensor x({4096});
    x.fillGaussian(rng, 0.0f, 1e-6f);
    const Tensor unscaled = fakeQuantizeFloat(x, FloatFormat::fp8());
    const Tensor scaled = fakeQuantizeFloatScaled(
        x, FloatFormat::fp8(), x.maxAbs());
    EXPECT_LT(rmse(x, scaled), rmse(x, unscaled) + 1e-12);
    // Relative reconstruction error stays at FP8 resolution.
    EXPECT_LT(rmse(x, scaled), 0.1 * 1e-6);
}

TEST(Policy, Wang2018UsesFp8)
{
    Rng rng(63);
    Tensor x({512});
    x.fillGaussian(rng, 0.0f, 0.3f);
    const auto algo = AlgorithmConfig::wang2018();
    const Tensor q =
        applyPolicy(x, algo, TensorRole::NeuronGradient);
    EXPECT_FALSE(q == x);
    // FP8's ~2-bit mantissa: coarse but relative error bounded.
    EXPECT_LT(rmse(x, q), 0.1);
    EXPECT_TRUE(applyPolicy(x, algo, TensorRole::WeightGradient) == x);
}

TEST(Policy, Yang2020IsPlainInt8)
{
    Rng rng(64);
    Tensor x({512});
    x.fillGaussian(rng, 0.0f, 0.3f);
    const auto algo = AlgorithmConfig::yang2020();
    const Tensor got = applyPolicy(x, algo, TensorRole::Weight);
    const Tensor want = dqQuantize(x, 8).dequantize();
    EXPECT_LT(maxAbsDiff(got, want), 1e-9);
}

} // namespace
} // namespace cq::quant
