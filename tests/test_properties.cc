/**
 * @file
 * Parameterized property tests (TEST_P sweeps) over the quantization
 * library, the PE-array datapath, the DRAM model and the functional
 * quantized GEMM: invariants that must hold across bit widths, block
 * sizes, distributions and configurations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "arch/pe_array.h"
#include "arch/quantized_gemm.h"
#include "arch/squ.h"
#include "common/rng.h"
#include "dram/dram_controller.h"
#include "quant/block_quant.h"
#include "quant/e2bqm.h"
#include "quant/qformat.h"
#include "tensor/tensor_ops.h"

namespace cq {
namespace {

Tensor
distTensor(int kind, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor x({n});
    switch (kind) {
      case 0: // gaussian
        x.fillGaussian(rng, 0.0f, 0.5f);
        break;
      case 1: // uniform
        x.fillUniform(rng, -2.0f, 2.0f);
        break;
      case 2: // long tail
        x.fillGaussian(rng, 0.0f, 0.01f);
        for (int i = 0; i < 8; ++i)
            x[rng.below(n)] = static_cast<float>(
                rng.gaussian(0.0, 1.0));
        break;
      case 3: // block-varying scales
        for (std::size_t i = 0; i < n; ++i)
            x[i] = static_cast<float>(rng.gaussian(
                0.0, std::pow(10.0, -3.0 + (i * 7 / n))));
        break;
      default:
        x.fill(0.0f);
    }
    return x;
}

// --------------------------------------------- quant round-trip sweep

class QuantRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(QuantRoundTrip, ErrorBoundedByHalfScale)
{
    const auto [bits, dist] = GetParam();
    const Tensor x = distTensor(dist, 4096, 101 + bits + dist);
    const quant::IntFormat fmt =
        quant::formatForMaxAbs(x.maxAbs(), bits);
    const Tensor q = quant::fakeQuantizeTensor(x, fmt);
    // Dynamic quantization never clips, so every element obeys the
    // half-LSB bound.
    EXPECT_LE(maxAbsDiff(x, q), fmt.scale / 2.0 + 1e-9);
}

TEST_P(QuantRoundTrip, ExtremesRepresentable)
{
    const auto [bits, dist] = GetParam();
    const Tensor x = distTensor(dist, 4096, 202 + bits + dist);
    const quant::IntFormat fmt =
        quant::formatForMaxAbs(x.maxAbs(), bits);
    // The max-magnitude element maps to +-qmax exactly.
    EXPECT_EQ(std::abs(quant::quantizeValue(x.maxAbs(), fmt)),
              fmt.qmax());
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndDistributions, QuantRoundTrip,
    ::testing::Combine(::testing::Values(4, 8, 12, 16),
                       ::testing::Values(0, 1, 2, 3)),
    [](const auto &info) {
        return "int" + std::to_string(std::get<0>(info.param)) +
               "_dist" + std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------------- LDQ block sweep

class LdqBlocks : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LdqBlocks, BlockScalesNeverExceedGlobal)
{
    const std::size_t block = GetParam();
    for (int dist = 0; dist < 4; ++dist) {
        const Tensor x = distTensor(dist, 8192, 300 + dist);
        const auto ldq = quant::ldqQuantize(x, block, 8);
        const auto dq = quant::dqQuantize(x, 8);
        for (const auto &fmt : ldq.formats())
            EXPECT_LE(fmt.scale, dq.formats()[0].scale + 1e-12);
    }
}

TEST_P(LdqBlocks, ReconstructionWithinLocalBound)
{
    const std::size_t block = GetParam();
    const Tensor x = distTensor(3, 8192, 301);
    const auto ldq = quant::ldqQuantize(x, block, 8);
    const Tensor back = ldq.dequantize();
    for (std::size_t i = 0; i < x.numel(); ++i) {
        EXPECT_LE(std::fabs(x[i] - back[i]),
                  ldq.formatOf(i).scale / 2.0 + 1e-9);
    }
}

TEST_P(LdqBlocks, CompressionMonotoneInBlockSize)
{
    const std::size_t block = GetParam();
    const std::size_t n = 1 << 20;
    EXPECT_LE(quant::ldqCompressionRatio(n, block),
              quant::ldqCompressionRatio(n, block * 2) + 1e-12);
    EXPECT_LE(quant::ldqCompressionRatio(n, block),
              quant::dqCompressionRatio(n));
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, LdqBlocks,
                         ::testing::Values(32, 64, 256, 1024, 4096),
                         [](const auto &info) {
                             return "K" + std::to_string(info.param);
                         });

// ------------------------------------------------ bit-serial PE sweep

class BitSerial
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(BitSerial, ExactForAllWidths)
{
    const auto [bits_a, bits_b] = GetParam();
    Rng rng(17);
    const std::int32_t max_a = (1 << (bits_a - 1)) - 1;
    const std::int32_t max_b = (1 << (bits_b - 1)) - 1;
    for (int trial = 0; trial < 500; ++trial) {
        const auto va = static_cast<std::int32_t>(
                            rng.below(2 * max_a + 1)) -
                        max_a;
        const auto vb = static_cast<std::int32_t>(
                            rng.below(2 * max_b + 1)) -
                        max_b;
        EXPECT_EQ(arch::PeArray::bitSerialMultiply(va, bits_a, vb,
                                                   bits_b),
                  static_cast<std::int64_t>(va) * vb);
    }
    // Boundary values.
    EXPECT_EQ(arch::PeArray::bitSerialMultiply(max_a, bits_a, max_b,
                                               bits_b),
              static_cast<std::int64_t>(max_a) * max_b);
    EXPECT_EQ(arch::PeArray::bitSerialMultiply(-max_a, bits_a, max_b,
                                               bits_b),
              -static_cast<std::int64_t>(max_a) * max_b);
}

INSTANTIATE_TEST_SUITE_P(
    WidthPairs, BitSerial,
    ::testing::Combine(::testing::Values(4, 8, 12, 16),
                       ::testing::Values(4, 8, 12, 16)),
    [](const auto &info) {
        return "a" + std::to_string(std::get<0>(info.param)) + "_b" +
               std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------- PE cycles sweep

struct MmDims
{
    std::uint64_t m, n, k;
};

class PeCycles : public ::testing::TestWithParam<MmDims>
{
};

TEST_P(PeCycles, NeverBeatsPeakThroughput)
{
    const auto d = GetParam();
    arch::CambriconQConfig cfg;
    arch::PeArray pe(cfg);
    for (int bits : {4, 8, 16}) {
        const double macs =
            static_cast<double>(arch::PeArray::macs(d.m, d.n, d.k));
        const double peak_per_cycle =
            4096.0 / ((bits / 4.0) * (bits / 4.0));
        const Tick cycles = pe.mmCycles(d.m, d.n, d.k, bits, bits);
        EXPECT_GE(static_cast<double>(cycles) * peak_per_cycle,
                  macs)
            << "bits=" << bits;
        // Utilization in (0, 1].
        const double u = pe.utilization(d.m, d.n, d.k, bits, bits);
        EXPECT_GT(u, 0.0);
        EXPECT_LE(u, 1.0 + 1e-9);
    }
}

TEST_P(PeCycles, SystolicAlsoBounded)
{
    const auto d = GetParam();
    arch::CambriconQConfig cfg;
    cfg.systolicDataflow = true;
    cfg.peRows = 32;
    cfg.peCols = 32;
    cfg.peBits = 8;
    arch::PeArray pe(cfg);
    const double macs =
        static_cast<double>(arch::PeArray::macs(d.m, d.n, d.k));
    EXPECT_GE(
        static_cast<double>(pe.mmCycles(d.m, d.n, d.k, 8, 8)) * 1024.0,
        macs);
}

INSTANTIATE_TEST_SUITE_P(
    GemmShapes, PeCycles,
    ::testing::Values(MmDims{1, 1, 1}, MmDims{64, 64, 64},
                      MmDims{100, 100, 100}, MmDims{1, 4096, 4096},
                      MmDims{4096, 64, 576}, MmDims{32, 1000, 9216}),
    [](const auto &info) {
        return "m" + std::to_string(info.param.m) + "n" +
               std::to_string(info.param.n) + "k" +
               std::to_string(info.param.k);
    });

// --------------------------------------------------- DRAM sweep

class DramPatterns
    : public ::testing::TestWithParam<std::tuple<unsigned, int>>
{
};

TEST_P(DramPatterns, NeverExceedsPeakAndMonotone)
{
    const auto [channels, pattern] = GetParam();
    dram::DramController ctrl(dram::DramConfig::scaled(channels));
    Rng rng(7);
    Tick t = 0;
    Bytes moved = 0;
    for (int i = 0; i < 200; ++i) {
        Addr addr;
        switch (pattern) {
          case 0: // sequential
            addr = static_cast<Addr>(i) * 4096;
            break;
          case 1: // random
            addr = rng.next() % (1ull << 30);
            break;
          default: // bank-conflicting strided
            addr = static_cast<Addr>(i) * 8 * 2048 * channels;
            break;
        }
        const Tick done = ctrl.transfer(t, addr, 4096, i % 2 == 0);
        EXPECT_GE(done, t); // completion monotone
        t = done;
        moved += 4096;
    }
    const double achieved =
        static_cast<double>(moved) / static_cast<double>(t);
    EXPECT_LE(achieved,
              dram::kPeakBytesPerTick * channels + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    ChannelsAndPatterns, DramPatterns,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(0, 1, 2)),
    [](const auto &info) {
        return "ch" + std::to_string(std::get<0>(info.param)) +
               "_pat" + std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------------- SQU sweep

class SquWays : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SquWays, ThroughputInverseInWays)
{
    const unsigned ways = GetParam();
    arch::CambriconQConfig cfg;
    arch::Squ squ(cfg);
    const double t1 = squ.bytesPerCycle(1);
    const double tw = squ.bytesPerCycle(ways);
    // Never faster with more ways; at most `ways` times slower.
    EXPECT_LE(tw, t1 + 1e-12);
    EXPECT_GE(tw * ways + 1e-9, std::min<double>(
                                    t1 * 1.0,
                                    cfg.squQuantBytesPerCycle));
}

TEST_P(SquWays, StreamCyclesSuperlinearInBytes)
{
    const unsigned ways = GetParam();
    arch::CambriconQConfig cfg;
    arch::Squ squ(cfg);
    const Tick small = squ.streamCycles(16384, ways);
    const Tick big = squ.streamCycles(65536, ways);
    EXPECT_GE(big + 1, 4 * small / 2); // at least ~2x for 4x bytes
}

INSTANTIATE_TEST_SUITE_P(Ways, SquWays,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &info) {
                             return "w" + std::to_string(info.param);
                         });

// ------------------------------------------ E2BQM metric consistency

class E2bqmMetrics
    : public ::testing::TestWithParam<quant::ErrorMetric>
{
};

TEST_P(E2bqmMetrics, WinnerMinimizesConfiguredMetric)
{
    const auto metric = GetParam();
    for (int dist = 0; dist < 4; ++dist) {
        const Tensor x = distTensor(dist, 2048, 900 + dist);
        auto cfg = quant::E2bqmConfig::clippingLadder(8, metric);
        const auto result = quant::e2bqmQuantize(x, cfg);
        // Compare magnitudes (MeanBias is signed) and allow the
        // arbitration tolerance: a near-tie may go to fewer bits.
        for (const auto &cand : result.candidates)
            EXPECT_LE(std::fabs(result.best().error),
                      std::fabs(cand.error) *
                              (1.0 + quant::kArbitrationRelEps) +
                          1e-12);
        // The reported error matches a recomputation on the winner.
        const Tensor deq = result.best().dequantize(x.shape());
        quant::ErrorStat stat;
        for (std::size_t i = 0; i < x.numel(); ++i)
            stat.observe(x[i], deq[i]);
        EXPECT_NEAR(result.best().error, stat.value(metric),
                    1e-6 + 1e-6 * std::fabs(result.best().error));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Metrics, E2bqmMetrics,
    ::testing::Values(quant::ErrorMetric::Rectilinear,
                      quant::ErrorMetric::CosineDistance,
                      quant::ErrorMetric::MeanBias,
                      quant::ErrorMetric::MaxError),
    [](const auto &info) {
        std::string name = quant::errorMetricName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// --------------------------------- functional quantized GEMM datapath

class QuantizedGemm
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>>
{
};

TEST_P(QuantizedGemm, TracksFp32WithinQuantizationNoise)
{
    const auto [bits, block_k] = GetParam();
    Rng rng(55);
    Tensor a({12, 96});
    Tensor b({96, 8});
    a.fillGaussian(rng, 0.0f, 0.5f);
    b.fillGaussian(rng, 0.0f, 0.5f);

    arch::QuantizedGemmOptions opts;
    opts.bits = bits;
    opts.blockK = block_k;
    const Tensor got = arch::quantizedMatmul(a, b, opts);
    const Tensor want = matmul(a, b);

    // Error budget: per-product error ~ |a|*db + |b|*da summed over
    // k; bound loosely via the operand scales.
    const double rel =
        rmse(got, want) /
        std::max(1e-9, std::sqrt(static_cast<double>(
                           want.sumSquares() / want.numel())));
    const double budget = bits >= 12 ? 2e-3 : (bits == 8 ? 2e-2
                                                         : 0.35);
    EXPECT_LT(rel, budget) << "bits=" << bits
                           << " blockK=" << block_k;
}

TEST_P(QuantizedGemm, FinerBlocksNeverHurtMuch)
{
    const auto [bits, block_k] = GetParam();
    // The coarse reference is one block over the whole k extent, twice
    // the largest instantiated block, so every block_k is finer.
    constexpr std::size_t k = 192;
    Rng rng(56);
    Tensor a({8, k});
    Tensor b({k, 8});
    // Segment-varying magnitudes: fine blocks must win clearly.
    for (std::size_t i = 0; i < a.numel(); ++i)
        a[i] = static_cast<float>(
            rng.gaussian(0.0, i % 96 < 48 ? 0.001 : 1.0));
    b.fillGaussian(rng, 0.0f, 0.5f);

    arch::QuantizedGemmOptions fine;
    fine.bits = bits;
    fine.blockK = block_k;
    arch::QuantizedGemmOptions coarse = fine;
    coarse.blockK = k;
    const Tensor want = matmul(a, b);
    EXPECT_LE(rmse(arch::quantizedMatmul(a, b, fine), want),
              rmse(arch::quantizedMatmul(a, b, coarse), want) * 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndBlocks, QuantizedGemm,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(std::size_t(16),
                                         std::size_t(32),
                                         std::size_t(96))),
    [](const auto &info) {
        return "int" + std::to_string(std::get<0>(info.param)) +
               "_K" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace cq
