/**
 * @file
 * Tests for the DRAM controller model, including
 * the differential test of the controller's row runs against the
 * per-burst oracle in dram_reference.h.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "arch/ndp_engine.h"
#include "common/rng.h"
#include "dram/dram_controller.h"
#include "dram_reference.h"
#include "nn/optimizer.h"

namespace cq {
namespace {

/** A refresh interval past the end of every test's run: no refresh. */
constexpr Tick kNoRefresh = Tick{1} << 62;

// ---------------------------------------------------------------- DRAM

TEST(Dram, PeakBandwidthMatchesSpec)
{
    // 64 B / 3.75 ticks = 17.06 GB/s at 1 GHz ticks.
    EXPECT_NEAR(dram::kPeakBytesPerTick, 17.06, 0.05);
}

TEST(Dram, SequentialStreamApproachesPeak)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Bytes bytes = 8 << 20; // 8 MiB
    const Tick done = ctrl.transfer(0, 0, bytes, false);
    const double achieved =
        static_cast<double>(bytes) / static_cast<double>(done);
    // Row misses every 2 KiB cost a little; expect > 90% of peak.
    EXPECT_GT(achieved, 0.9 * dram::kPeakBytesPerTick);
    EXPECT_LE(achieved, dram::kPeakBytesPerTick + 0.01);
}

TEST(Dram, RowHitsDominateSequential)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.transfer(0, 0, 1 << 20, false);
    const double hits = ctrl.stats().get("dram.rowHits");
    const double misses = ctrl.stats().get("dram.rowMisses");
    // 2 KiB rows, 64 B bursts -> 31 hits per miss, minus the rows
    // that periodic refresh closes mid-stream.
    EXPECT_NEAR(hits / misses, 31.0, 1.5);
}

TEST(Dram, RandomAccessSlowerThanSequential)
{
    dram::DramController seq(dram::DramConfig::lpddr4_2133());
    dram::DramController rnd(dram::DramConfig::lpddr4_2133());

    const Tick t_seq = seq.transfer(0, 0, 256 * 64, false);

    Tick t = 0;
    for (int i = 0; i < 256; ++i) {
        // Jump rows within one bank: worst-case locality.
        const Addr addr = static_cast<Addr>(i) * 8 * 2048;
        t = rnd.transfer(t, addr, 64, false);
    }
    EXPECT_GT(t, 2 * t_seq);
}

TEST(Dram, WritesCountedSeparately)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.transfer(0, 0, 4096, true);
    EXPECT_EQ(ctrl.stats().get("dram.writes"), 64.0);
    EXPECT_EQ(ctrl.stats().get("dram.reads"), 0.0);
}

TEST(Dram, EnergyAccumulates)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    EXPECT_EQ(ctrl.dynamicEnergy(), 0.0);
    ctrl.transfer(0, 0, 64 * 1024, false);
    const PicoJoule after_read = ctrl.dynamicEnergy();
    EXPECT_GT(after_read, 0.0);
    ctrl.transfer(ctrl.busFreeAt(), 1 << 24, 64 * 1024, true);
    EXPECT_GT(ctrl.dynamicEnergy(), after_read);
}

TEST(Dram, StandbyEnergyScalesWithTime)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    EXPECT_DOUBLE_EQ(ctrl.standbyEnergy(2000),
                     2.0 * ctrl.standbyEnergy(1000));
}

TEST(Dram, EarliestStartRespected)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Tick done = ctrl.transfer(100000, 0, 64, false);
    EXPECT_GE(done, 100000u);
}

TEST(Dram, ScaledChannelsFaster)
{
    dram::DramController one(dram::DramConfig::lpddr4_2133());
    dram::DramController four(dram::DramConfig::scaled(4));
    const Bytes bytes = 4 << 20;
    const Tick t1 = one.transfer(0, 0, bytes, false);
    const Tick t4 = four.transfer(0, 0, bytes, false);
    EXPECT_LT(3 * t4, t1); // close to 4x faster
}

// ---------------------------------------------------------------- NDP path

TEST(DramNdp, UpdateCheaperThanExplicitTraffic)
{
    // In-place NDP update vs moving w/m/v + dW through the bus.
    const std::size_t weights = 1 << 20;

    dram::DramController ndp(dram::DramConfig::lpddr4_2133());
    const Tick t_ndp = ndp.ndpUpdate(0, 0, weights, 4);

    dram::DramController exp(dram::DramConfig::lpddr4_2133());
    Tick t = 0;
    // Read dW, w, m; write w, m (RMSProp): 20 B per weight.
    t = exp.transfer(t, 0x00000000, weights * 4, false);
    t = exp.transfer(t, 0x10000000, weights * 4, false);
    t = exp.transfer(t, 0x20000000, weights * 4, false);
    t = exp.transfer(t, 0x10000000, weights * 4, true);
    t = exp.transfer(t, 0x20000000, weights * 4, true);

    EXPECT_LT(t_ndp, t / 3);
    // Bus bytes: only gradients cross for NDP.
    EXPECT_EQ(ndp.busBytes(), weights * 4);
    EXPECT_EQ(exp.busBytes(), weights * 20);
}

TEST(DramNdp, ProtocolCommandCounts)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    // One row group: 512 4-byte weights fill a 2 KiB row.
    ctrl.ndpUpdate(0, 0, 512, 4);
    // 3 ACT + 3 PRE per row group (w, m, v rows).
    EXPECT_EQ(ctrl.stats().get("dram.activates"), 3.0);
    EXPECT_EQ(ctrl.stats().get("dram.precharges"), 3.0);
    EXPECT_EQ(ctrl.stats().get("dram.ndpRowGroups"), 1.0);
    EXPECT_EQ(ctrl.stats().get("dram.ndpElements"), 512.0);
}

TEST(DramNdp, MultiRowGroups)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.ndpUpdate(0, 0, 2048, 4); // four row groups
    EXPECT_EQ(ctrl.stats().get("dram.ndpRowGroups"), 4.0);
    EXPECT_EQ(ctrl.stats().get("dram.activates"), 12.0);
}


TEST(Dram, RefreshesIssuedPeriodically)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    // Stream long enough to cross several tREFI boundaries.
    Tick t = 0;
    for (int i = 0; i < 100; ++i)
        t = ctrl.transfer(t, static_cast<Addr>(i) * 4096, 4096, false);
    const double refreshes = ctrl.stats().get("dram.refreshes");
    EXPECT_GE(refreshes,
              static_cast<double>(t / ctrl.config().tREFI) - 1.0);
}

TEST(Dram, RefreshDisableRestoresThroughput)
{
    dram::DramConfig no_ref = dram::DramConfig::lpddr4_2133();
    no_ref.tREFI = kNoRefresh;
    dram::DramController with(dram::DramConfig::lpddr4_2133());
    dram::DramController without(no_ref);
    const Bytes bytes = 4 << 20;
    const Tick t_with = with.transfer(0, 0, bytes, false);
    const Tick t_without = without.transfer(0, 0, bytes, false);
    EXPECT_GT(t_with, t_without);
    // Overhead roughly tRFC / tREFI (~7%).
    EXPECT_LT(static_cast<double>(t_with),
              1.12 * static_cast<double>(t_without));
}

// ------------------------------------------ row runs vs per-burst oracle

/** Every observable of @p fast equals that of the per-burst @p ref. */
::testing::AssertionResult
sameState(const dram::DramController &fast, const test::ReferenceDram &ref)
{
    if (fast.busFreeAt() != ref.busFreeAt())
        return ::testing::AssertionFailure()
               << "busFreeAt " << fast.busFreeAt() << " vs "
               << ref.busFreeAt();
    if (std::bit_cast<std::uint64_t>(fast.dynamicEnergy()) !=
        std::bit_cast<std::uint64_t>(ref.dynamicEnergy()))
        return ::testing::AssertionFailure()
               << "dynamicEnergy bits " << fast.dynamicEnergy() << " vs "
               << ref.dynamicEnergy();
    if (fast.stats().all() != ref.stats().all())
        return ::testing::AssertionFailure()
               << "stats\n" << fast.stats().dump("row runs")
               << ref.stats().dump("per burst");
    return ::testing::AssertionSuccess();
}

/**
 * The per-burst model's answer to a stripe set: one call per stripe,
 * all at @p earliest, finishing when the last finishes.
 */
Tick
referenceStripes(test::ReferenceDram &ref, Tick earliest, Addr addr,
                 Bytes bytes, bool is_write, std::uint64_t stripes,
                 Bytes stride)
{
    Tick done = earliest;
    for (std::uint64_t i = 0; i < stripes; ++i)
        done = std::max(
            done, ref.transfer(earliest, addr + i * stride, bytes, is_write));
    return done;
}

/**
 * (channels, refresh, 4/4/4/3 bursts). The controller models only the
 * 4/4/4/3 pattern, so the third element is always true; it stays in
 * the tuple so every arm keeps its name and seed.
 */
class DramDiff
    : public ::testing::TestWithParam<std::tuple<unsigned, bool, bool>>
{
};

TEST_P(DramDiff, RowRunsMatchPerBurstModel)
{
    const auto [channels, refresh, fractional] = GetParam();
    Rng rng(1000 * channels + 10 * refresh + fractional);
    for (int trial = 0; trial < 4; ++trial) {
        dram::DramConfig cfg = dram::DramConfig::scaled(channels);
        // A short refresh interval lands refreshes inside row runs.
        const Tick refi = 600 + rng.below(1501);
        cfg.tREFI = refresh ? refi : kNoRefresh;
        dram::DramController fast(cfg);
        test::ReferenceDram ref(cfg);
        Tick t = 0;
        Tick last_done = 0;
        for (int call = 0; call < 1500; ++call) {
            // Non-decreasing call ticks: back-to-back posts, short
            // gaps, dependent chains and idle stretches.
            const std::uint64_t gap = rng.below(10);
            if (gap < 3)
                t += rng.below(100);
            else if (gap < 5)
                t = std::max(t, last_done);
            else if (gap == 5)
                t += rng.below(20000);
            // A small hot region re-hits open rows across calls.
            Addr addr = rng.below(8) == 0 ? rng.below(1ull << 30)
                                          : rng.below(256 << 10);
            if (rng.below(2) == 0)
                addr &= ~Addr{63};
            const std::uint64_t kind = rng.below(24);
            std::string what;
            Tick got = 0, want = 0;
            if (kind >= 16) {
                // A stripe set: the strided DMA of SLOAD/SSTORE. Three
                // draws: sets of up to 300 stripes whose strides fall
                // below, at and above the row window, or are 0; sets of
                // short stripes, many to a window, at strides that are
                // 0, mostly not multiples of 64 B, or multiples of 64 B
                // below the window; and single transfers of 64-256 KiB,
                // which cross many full windows and, with refresh,
                // several tREFI. Some sets start just short of a window
                // boundary so their stripes cross it.
                const Bytes window = dram::kRowBytes * channels;
                std::uint64_t stripes = 1;
                Bytes bytes = 0, stride = 0;
                if (kind < 20) {
                    stripes = 1 + rng.below(300);
                    bytes = 1 + rng.below(2048);
                    const std::uint64_t stride_class = rng.below(5);
                    stride = stride_class == 0   ? 0
                             : stride_class == 1 ? 1 + rng.below(window - 1)
                             : stride_class == 2 ? window
                             : stride_class == 3
                                 ? window + 1 + rng.below(window)
                                 : bytes + rng.below(64);
                } else if (kind < 22) {
                    stripes = 2 + rng.below(299);
                    bytes = 1 + rng.below(256);
                    const std::uint64_t stride_class = rng.below(3);
                    stride = stride_class == 0   ? 0
                             : stride_class == 1 ? 1 + rng.below(511)
                                                 : 64 * (1 + rng.below(
                                                             window / 64 - 1));
                } else {
                    bytes = (64 << 10) + rng.below(192 << 10);
                }
                if (kind < 22 && rng.below(4) == 0)
                    addr = (addr / window + 1) * window -
                           1 - rng.below(bytes);
                const bool is_write = kind % 2 == 0;
                what = std::string(is_write ? "write(" : "read(") +
                       std::to_string(t) + ", " + std::to_string(addr) +
                       ", " + std::to_string(bytes) + ", " +
                       std::to_string(stripes) + " stripes, stride " +
                       std::to_string(stride) + ")";
                got = fast.transfer(t, addr, bytes, is_write, stripes,
                                    stride);
                want = referenceStripes(ref, t, addr, bytes, is_write,
                                        stripes, stride);
            } else if (kind < 2) {
                const std::size_t elems = 1 + rng.below(3000);
                constexpr Bytes kElemBytes[] = {2, 4, 4, 8, 12};
                const Bytes elem_bytes = kElemBytes[rng.below(5)];
                what = "ndpUpdate(" + std::to_string(t) + ", " +
                       std::to_string(addr) + ", " +
                       std::to_string(elems) + ", " +
                       std::to_string(elem_bytes) + ")";
                got = fast.ndpUpdate(t, addr, elems, elem_bytes);
                want = ref.ndpUpdate(t, addr, elems, elem_bytes);
            } else {
                const std::uint64_t size_class = rng.below(3);
                const Bytes bytes =
                    1 + rng.below(size_class == 0   ? 256
                                  : size_class == 1 ? 4096
                                                    : 40960);
                const bool is_write = kind % 2 == 0;
                // The executor's QMOVE posts its write one tick after
                // its read, so the next call may start a tick earlier.
                const Tick at = kind == 15 ? t + 1 : t;
                what = std::string(is_write ? "write(" : "read(") +
                       std::to_string(at) + ", " + std::to_string(addr) +
                       ", " + std::to_string(bytes) + ")";
                got = fast.transfer(at, addr, bytes, is_write);
                want = ref.transfer(at, addr, bytes, is_write);
            }
            last_done = want;
            ASSERT_EQ(got, want)
                << what << " at call " << call << ", tREFI "
                << cfg.tREFI;
            ASSERT_TRUE(sameState(fast, ref))
                << what << " at call " << call << ", tREFI "
                << cfg.tREFI;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChannelsRefreshBursts, DramDiff,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 16u),
                       ::testing::Bool(), ::testing::Values(true)),
    [](const auto &info) {
        return "ch" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_refresh" : "_norefresh") +
               "_frac";
    });

// ------------------------------------------------------------ error paths

TEST(DramDeath, TransferBeyondCapacityPanics)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Bytes capacity = dram::kCapacityBytes;
    EXPECT_DEATH(ctrl.transfer(0, capacity, 64, false),
                 "exceeds DRAM capacity");
    // A range that starts in bounds but runs off the end must also die
    // (guards the overflow-safe form of the check).
    EXPECT_DEATH(ctrl.transfer(0, capacity - 32, 64, false),
                 "exceeds DRAM capacity");
}

TEST(DramDeath, StripeSetRangeChecks)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Bytes capacity = dram::kCapacityBytes;
    // The first stripes are in range; the last starts at capacity, or
    // starts below it and runs past.
    EXPECT_DEATH(ctrl.transfer(0, capacity - 4096, 64, false, 3, 2048),
                 "exceeds DRAM capacity");
    EXPECT_DEATH(ctrl.transfer(0, capacity - 2080, 64, true, 2, 2048),
                 "exceeds DRAM capacity");
    // addr + (stripes - 1) x stride wraps past 2^64 back into range,
    // through the add and through the multiply.
    EXPECT_DEATH(ctrl.transfer(0, 64, 64, false, 2, ~Bytes{0} - 63),
                 "exceeds DRAM capacity");
    EXPECT_DEATH(ctrl.transfer(0, 64, 64, false, (1ull << 32) + 1,
                               1ull << 32),
                 "exceeds DRAM capacity");
    // A set of no stripes moves no bytes.
    EXPECT_DEATH(ctrl.transfer(0, 0, 64, false, 0, 64), "zero-byte read");
    EXPECT_DEATH(ctrl.transfer(0, 0, 0, true, 4, 64), "zero-byte write");
}

/** Construct a controller from the default config after @p edit. */
void
constructWith(const std::function<void(dram::DramConfig &)> &edit)
{
    dram::DramConfig cfg = dram::DramConfig::lpddr4_2133();
    edit(cfg);
    dram::DramController ctrl(cfg);
}

TEST(DramDeath, NonPowerOfTwoGeometryPanics)
{
    // The device geometry is checked at compile time (dram_config.h);
    // the channel count is the one field a configuration sets.
    EXPECT_DEATH(constructWith([](auto &c) { c.channels = 3; }),
                 "channels = 3 is not a power of two");
    EXPECT_DEATH(constructWith([](auto &c) { c.channels = 0; }),
                 "channels = 0 is not a power of two");
}

TEST(DramDeath, ZeroByteTransferPanics)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    EXPECT_DEATH(ctrl.transfer(0, 0, 0, false), "zero-byte read");
    EXPECT_DEATH(ctrl.transfer(0, 64, 0, true), "zero-byte write");
}

TEST(DramDeath, NdpUpdateErrorPaths)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    EXPECT_DEATH(ctrl.ndpUpdate(0, 0, 0, 4), "zero-element NDP update");
    EXPECT_DEATH(ctrl.ndpUpdate(0, 0, 16, 0), "outside \\(0, rowBytes");
    EXPECT_DEATH(ctrl.ndpUpdate(0, 0, 16, dram::kRowBytes + 1),
                 "outside \\(0, rowBytes");
    const Bytes capacity = dram::kCapacityBytes;
    EXPECT_DEATH(ctrl.ndpUpdate(0, capacity - 64, 512, 4),
                 "exceeds DRAM capacity");
}

TEST(Dram, InRangeEdgesAccepted)
{
    // The last addressable bytes of the last channel must be usable:
    // the codegen places tensors at region bases (r << 32), so an
    // off-by-one in the capacity check would fire on real programs.
    dram::DramConfig cfg = dram::DramConfig::lpddr4_2133();
    dram::DramController ctrl(cfg);
    const Bytes capacity =
        dram::kCapacityBytes * static_cast<Bytes>(cfg.channels);
    EXPECT_GT(ctrl.transfer(0, capacity - 64, 64, false), 0u);
    EXPECT_GT(ctrl.transfer(0, capacity - 2112, 64, false, 2, 2048), 0u);
    EXPECT_GT(ctrl.ndpUpdate(0, capacity - 512 * 4, 512, 4), 0u);
}

TEST(NdpEngineDeath, WgstoreBeforeCrosetPanics)
{
    arch::NdpEngine ndp;
    std::vector<float> w(4), m(4), v(4), g(4);
    EXPECT_DEATH(ndp.weightGradientStore(w, m, v, g),
                 "WGSTORE before CROSET");
}

TEST(NdpEngineDeath, MismatchedRowSizesPanic)
{
    arch::NdpEngine ndp;
    ndp.configure(nn::NdpoConstants::fromConfig(nn::OptimizerConfig{}));
    std::vector<float> w(4), m(4), v(4), g(3);
    EXPECT_DEATH(ndp.weightGradientStore(w, m, v, g),
                 "w/m/v/g row sizes differ: w=4 m=4 v=4 g=3");
    std::vector<float> m_short(2), g4(4);
    EXPECT_DEATH(ndp.weightGradientStore(w, m_short, v, g4),
                 "w/m/v/g row sizes differ");
}

TEST(Dram, RefreshClosesOpenRows)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.transfer(0, 0, 64, false); // opens a row
    const double misses0 = ctrl.stats().get("dram.rowMisses");
    // Access the same row again *after* a refresh boundary: the row
    // was closed by the refresh, so this is another miss.
    ctrl.transfer(2 * ctrl.config().tREFI, 0, 64, false);
    EXPECT_GT(ctrl.stats().get("dram.rowMisses"), misses0);
}

} // namespace
} // namespace cq
