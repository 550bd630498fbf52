/**
 * @file
 * Implementation of the DRAM controller model.
 */

#include "dram/dram_controller.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace cq::dram {

DramConfig
DramConfig::lpddr4_2133()
{
    return DramConfig{};
}

DramConfig
DramConfig::scaled(unsigned factor)
{
    DramConfig cfg;
    CQ_ASSERT(factor >= 1);
    cfg.channels = factor;
    return cfg;
}

namespace {

// The address map splits an address into power-of-two fields.
static_assert(std::has_single_bit(kNumBanks) &&
              std::has_single_bit(kRowBytes) &&
              std::has_single_bit(kBurstBytes) &&
              kRowBytes % kBurstBytes == 0);

/** True when @p e is a whole number of pJ below 2^53. */
constexpr bool
wholePj(PicoJoule e)
{
    return e >= 0.0 && e < 0x1p53 &&
           static_cast<double>(static_cast<std::uint64_t>(e)) == e;
}

// Whole-pJ energies keep every product and sum in dynamicEnergy()
// exact, so it equals the per-command running sum bit for bit.
static_assert(wholePj(kEActPre) && wholePj(kEReadBurst) &&
              wholePj(kEWriteBurst) && wholePj(kENdpPerElement) &&
              wholePj(kERefresh));

} // namespace

DramController::DramController(DramConfig config)
    : config_(config), banks_(kNumBanks * config.channels)
{
    CQ_ASSERT_MSG(std::has_single_bit(config_.channels),
                  "DramConfig::channels = %u is not a power of two",
                  config_.channels);
    windowShift_ = std::countr_zero(kRowBytes) - kBurstShift +
                   std::countr_zero(config_.channels);
    channelMask_ = config_.channels - 1;

    for (unsigned p = 0; p < 4; ++p) {
        // With multiple channels each channel has its own bus; we model
        // the aggregate as `channels` bursts being able to overlap by
        // crediting the shared-bus time 1/channels per burst.
        burstBus_[p] = std::max<Tick>(1, kBurstDur[p] / config_.channels);
    }

    // A row hit starts the moment the bus frees if its bank is ready by
    // then. The bank finished the channel's previous burst C bursts
    // earlier, and those C bursts held the bus for at least
    // busSpan(p, C) ticks. When that covers the bank time from every
    // phase (C = 1, and C >= 4 under 4/4/4/3), row runs are exact;
    // otherwise (C = 2) every burst takes the per-burst step.
    bool bus_bound = true;
    for (unsigned p = 0; p < 4; ++p)
        bus_bound = bus_bound &&
                    busSpan(p, config_.channels) >= kBurstDur[p];
    stepBursts_ = bus_bound ? config_.channels
                            : std::uint64_t{1} << windowShift_;
    nextRefresh_ = config_.tREFI;
}

void
DramController::applyRefreshUpTo(Tick now)
{
    while (nextRefresh_ <= now) {
        // All-bank refresh: rows close, banks stall for tRFC.
        for (auto &b : banks_) {
            b.rowOpen = false;
            b.readyAt = std::max(b.readyAt, nextRefresh_) +
                        kTRFC;
        }
        ++nRefreshes_;
        nextRefresh_ += config_.tREFI;
    }
}

void
DramController::checkRange(Addr addr, Bytes bytes, std::uint64_t stripes,
                           Bytes stride) const
{
    const Bytes capacity =
        kCapacityBytes * static_cast<Bytes>(config_.channels);
    // The last stripe starts highest; an offset or start that does not
    // fit in 64 bits is out of range too.
    Bytes offset = 0, last = 0, extent = 0;
    const bool wraps =
        __builtin_mul_overflow(stripes - 1, stride, &offset) ||
        __builtin_add_overflow(addr, offset, &last);
    if (wraps || __builtin_add_overflow(offset, bytes, &extent))
        extent = ~Bytes{0};
    CQ_ASSERT_MSG(!wraps && last < capacity && bytes <= capacity - last,
                  "address range [0x%llx, +%llu) exceeds DRAM capacity "
                  "%llu B (%u channel(s) x %llu B)",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(extent),
                  static_cast<unsigned long long>(capacity),
                  config_.channels,
                  static_cast<unsigned long long>(kCapacityBytes));
}

void
DramController::mapBurst(std::uint64_t burst, std::size_t &bank,
                         std::uint64_t &row) const
{
    // Channel interleave at burst granularity (for scaled configs),
    // then Row : Bank : Column within the channel. Bank bits above the
    // column bits keep sequential streams inside one open row.
    const std::uint64_t window = burst >> windowShift_;
    row = window >> kBankShift;
    bank = ((burst & channelMask_) << kBankShift) | (window & kBankMask);
}

inline Tick
DramController::prepareRow(Tick earliest, std::size_t bank,
                           std::uint64_t row)
{
    BankState &b = banks_[bank];
    Tick t = std::max(earliest, b.readyAt);
    if (b.rowOpen && b.openRow == row) {
        ++nRowHits_;
        return t;
    }
    // Row miss: PRECHARGE (if open) then ACTIVATE.
    if (b.rowOpen) {
        // Enforce tRAS since the last ACTIVATE before precharging.
        t = std::max(t, b.lastActivate + kTRAS);
        t += kTRP;
        ++nPrecharges_;
    }
    ++nRowMisses_;
    ++nActivates_;
    b.lastActivate = t;
    t += kTRCD;
    b.rowOpen = true;
    b.openRow = row;
    return t;
}

inline Tick
DramController::startBurst(std::size_t bank, Tick start)
{
    const unsigned phase = burstPhase_;
    burstPhase_ = (phase + 1) & 3;
    busFreeAt_ = start + burstBus_[phase];
    banks_[bank].readyAt = start + kBurstDur[phase];
    return start + kTCAS + kBurstDur[phase];
}

inline Tick
DramController::burstStep(Tick earliest, std::size_t bank,
                          std::uint64_t row)
{
    // The burst needs the bank ready and the data bus free.
    return startBurst(
        bank, std::max(prepareRow(earliest, bank, row), busFreeAt_));
}

std::uint64_t
DramController::runBeforeRefresh() const
{
    // A refresh falls due before a burst once an earlier burst of the
    // stripe finished at or after nextRefresh_. Along a row run the
    // finish ticks never fall (each burst starts at least one bus tick
    // after the previous and lasts at most one tick less), so the run
    // keeps its bursts up to the first that finishes that late.
    if (nextRefresh_ <= runFinish(0))
        return 1;
    // runFinish(4q + r) = q x busSpan(0, 4) + runFinish(r): bursts up
    // to 4q finish in time, and the fourth burst after that no longer
    // does.
    const Tick budget = nextRefresh_ - runFinish(0);
    std::uint64_t j = (budget - 1) / busSpan(0, 4) * 4;
    while (runFinish(j + 1) < nextRefresh_)
        ++j;
    return j + 2;
}

Tick
DramController::window(Tick earliest, Tick done, std::uint64_t burst,
                       std::uint64_t count)
{
    // Each channel's bursts in the window share one (bank, row).
    const std::uint64_t win = burst >> windowShift_;
    const std::uint64_t row = win >> kBankShift;
    const auto bankOf = [&](std::uint64_t b) -> std::size_t {
        return ((b & channelMask_) << kBankShift) | (win & kBankMask);
    };
    const auto refreshDue = [&] { return done >= nextRefresh_; };
    for (;;) {
        // A refresh falls due before a burst once an earlier burst of
        // the stripe finished at or after it; it closes every row, so
        // the first burst on each channel steps again.
        if (refreshDue())
            applyRefreshUpTo(done);
        const std::uint64_t steps = std::min(count, stepBursts_);
        std::uint64_t k = 0;
        do {
            done = std::max(done,
                            burstStep(earliest, bankOf(burst + k), row));
        } while (++k < steps && !refreshDue());
        burst += k;
        count -= k;
        if (count == 0)
            return done;
        if (refreshDue())
            continue;

        // Every channel's row is open: the rest are row hits that start
        // when the bus frees. Their finish ticks never fall, so a
        // refresh can fall due among them only if the second-to-last
        // finishes at or after it.
        const std::uint64_t run =
            count > 1 && runFinish(count - 2) >= nextRefresh_
                ? runBeforeRefresh()
                : count;
        // Run burst j starts busSpan(phase, j) after the first. Only the
        // last burst on each channel leaves its mark on a bank.
        const unsigned phase = burstPhase_;
        const std::uint64_t tail =
            std::min<std::uint64_t>(run, config_.channels);
        Tick start = busFreeAt_ + busSpan(phase, run - tail);
        for (std::uint64_t j = run - tail; j < run; ++j) {
            const unsigned p = (phase + j) & 3;
            banks_[bankOf(burst + j)].readyAt = start + kBurstDur[p];
            start += burstBus_[p];
        }
        busFreeAt_ = start;
        burstPhase_ = (phase + run) & 3;
        nRowHits_ += run;
        const unsigned last = (phase + run - 1) & 3;
        done = std::max(done, start - burstBus_[last] + kTCAS +
                                  kBurstDur[last]);
        burst += run;
        count -= run;
        if (count == 0)
            return done;
    }
}

// Inlined at both call sites: a call per window step costs about a
// quarter of the step.
[[gnu::always_inline]] inline Tick
DramController::oneChannelWindow(Tick earliest, Tick done,
                                 std::uint64_t burst, std::uint64_t &count,
                                 std::uint64_t own)
{
    if (done >= nextRefresh_)
        applyRefreshUpTo(done);
    // One row of one bank: the first burst steps, and burst j starts
    // busSpan(phase, j) after it.
    const std::uint64_t win = burst >> windowShift_;
    const std::size_t bank = win & kBankMask;
    const Tick first =
        std::max(prepareRow(earliest, bank, win >> kBankShift), busFreeAt_);
    const unsigned phase = burstPhase_;
    const Tick last = first + busSpan(phase, count - 1);
    const unsigned last_phase = (phase + count - 1) & 3;
    const unsigned prev_phase = (last_phase + 3) & 3;
    // Finish ticks never fall along the run, so a refresh can fall due
    // inside it only if the second-to-last burst finishes at or after
    // the next tREFI. Then only the first stripe's bursts go now (a
    // visit's stripes go one at a time): the first burst, and the
    // general routine for the rest, which splits them at the refresh.
    if (count > 1 && last - burstBus_[prev_phase] + kTCAS +
                             kBurstDur[prev_phase] >=
                         nextRefresh_) {
        count = own;
        const Tick started = std::max(done, startBurst(bank, first));
        return own > 1 ? window(earliest, started, burst + 1, own - 1)
                       : started;
    }
    busFreeAt_ = last + burstBus_[last_phase];
    banks_[bank].readyAt = last + kBurstDur[last_phase];
    burstPhase_ = (phase + count) & 3;
    nRowHits_ += count - 1;
    return std::max(done, last + kTCAS + kBurstDur[last_phase]);
}

Tick
DramController::transfer(Tick earliest, Addr addr, Bytes bytes,
                         bool is_write, std::uint64_t stripes,
                         Bytes stride)
{
    CQ_ASSERT_MSG(bytes > 0 && stripes > 0,
                  "zero-byte %s at addr 0x%llx (%llu stripe(s) of %llu B)",
                  is_write ? "write" : "read",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(stripes),
                  static_cast<unsigned long long>(bytes));
    checkRange(addr, bytes, stripes, stride);
    applyRefreshUpTo(earliest);
    busBytes_ += stripes * bytes;

    // Burst k carries bytes [k, k + 1) x kBurstBytes; a stripe from a
    // covers bursts [a >> kBurstShift, endOf(a)).
    const auto endOf = [&](Addr a) {
        return ((a + bytes - 1) >> kBurstShift) + 1;
    };
    const bool one_channel = config_.channels == 1;
    // Two stripes share a window only at a stride below the window.
    const bool visits =
        one_channel && (stride >> (windowShift_ + kBurstShift)) == 0;
    Tick last = earliest;
    std::uint64_t bursts = 0;
    for (std::uint64_t i = 0; i < stripes; ++i, addr += stride) {
        std::uint64_t burst = addr >> kBurstShift;
        const std::uint64_t end = endOf(addr);
        const std::uint64_t win = burst >> windowShift_;
        if (visits && ((end - 1) >> windowShift_) == win) {
            // This stripe and the ones after it that also lie wholly in
            // its window make one visit: one row run, or one stripe at
            // a time when a refresh can fall due inside it.
            std::uint64_t n = 1, count = end - burst;
            for (Addr a = addr + stride; i + n < stripes; a += stride) {
                const std::uint64_t e = endOf(a);
                if (((e - 1) >> windowShift_) != win)
                    break;
                count += e - (a >> kBurstShift);
                ++n;
            }
            bursts += count;
            for (;; ++i, addr += stride, --n) {
                burst = addr >> kBurstShift;
                std::uint64_t run = count;
                last = std::max(last, oneChannelWindow(earliest, earliest,
                                                       burst, run,
                                                       endOf(addr) - burst));
                if (run == count)
                    break;
                count -= run;
            }
            i += n - 1;
            addr += (n - 1) * stride;
            continue;
        }
        bursts += end - burst;
        // Each stripe's finish starts at earliest, as a separate call's
        // would.
        Tick done = earliest;
        while (burst < end) {
            const std::uint64_t window_end = std::min(
                end, ((burst >> windowShift_) + 1) << windowShift_);
            std::uint64_t n = window_end - burst;
            done = one_channel ? oneChannelWindow(earliest, done, burst, n, n)
                               : window(earliest, done, burst, n);
            burst = window_end;
        }
        last = std::max(last, done);
    }
    (is_write ? nWrites_ : nReads_) += bursts;
    return last;
}

Tick
DramController::ndpUpdate(Tick earliest, Addr addr,
                          std::size_t num_elements, Bytes element_bytes)
{
    CQ_ASSERT_MSG(num_elements > 0, "zero-element NDP update at 0x%llx",
                  static_cast<unsigned long long>(addr));
    CQ_ASSERT_MSG(element_bytes > 0 && element_bytes <= kRowBytes,
                  "NDP element size %llu outside (0, rowBytes=%llu]",
                  static_cast<unsigned long long>(element_bytes),
                  static_cast<unsigned long long>(kRowBytes));
    checkRange(addr, static_cast<Bytes>(num_elements) * element_bytes);
    applyRefreshUpTo(earliest);
    const std::size_t per_row =
        static_cast<std::size_t>(kRowBytes / element_bytes);
    const std::size_t bank_wrap = banks_.size() - 1;
    Tick t = earliest;
    std::size_t remaining = num_elements;
    Addr cur = addr;

    while (remaining > 0) {
        if (t >= nextRefresh_)
            applyRefreshUpTo(t);
        const std::size_t in_row = std::min(remaining, per_row);

        // Three successive ACTIVATEs open the rows holding w, m and v
        // (they live in distinct banks; the command bus serializes the
        // row commands).
        std::size_t bank;
        std::uint64_t row;
        mapBurst(cur >> kBurstShift, bank, row);
        Tick row_ready = 0;
        for (int r = 0; r < 3; ++r) {
            // The m/v rows track the weight row index within their
            // banks; modeling them as the same row id in neighbour
            // banks preserves the timing behaviour.
            BankState &bs = banks_[(bank + r) & bank_wrap];
            Tick bt = std::max(t + static_cast<Tick>(r) * kTCmd,
                               bs.readyAt);
            if (bs.rowOpen) {
                bt = std::max(bt, bs.lastActivate + kTRAS);
                bt += kTRP;
                ++nPrecharges_;
            }
            ++nActivates_;
            bs.rowOpen = true;
            bs.openRow = row;
            bs.lastActivate = bt;
            bs.readyAt = bt + kTRCD;
            row_ready = std::max(row_ready, bt + kTRCD);
        }

        // Gradient WRITE bursts cross the bus; w/m/v do not. They touch
        // no bank state, so after the first each starts when the one
        // before frees the bus. The NDPO pipeline updates one element
        // per tick once filled, which is never the bottleneck against
        // the bus bursts.
        const Bytes grad_bytes =
            static_cast<Bytes>(in_row) * element_bytes;
        const std::uint64_t bursts =
            (grad_bytes + kBurstBytes - 1) >> kBurstShift;
        const unsigned phase = burstPhase_;
        const unsigned last = (phase + bursts - 1) & 3;
        busFreeAt_ = std::max(row_ready, busFreeAt_) +
                     busSpan(phase, bursts);
        burstPhase_ = (phase + bursts) & 3;
        Tick data_done = busFreeAt_ - burstBus_[last] + kTCAS +
                         kBurstDur[last];
        nWrites_ += bursts;
        busBytes_ += grad_bytes;

        // NDPO datapath work + the trailing pipeline drain.
        nNdpElements_ += in_row;
        data_done += 4; // pipeline drain

        // Three PRECHARGEs write the updated rows back.
        for (int r = 0; r < 3; ++r) {
            BankState &bs = banks_[(bank + r) & bank_wrap];
            const Tick pt =
                std::max({data_done + static_cast<Tick>(r) * kTCmd,
                          bs.lastActivate + kTRAS,
                          bs.readyAt});
            bs.rowOpen = false;
            bs.readyAt = pt + kTRP;
            ++nPrecharges_;
        }
        ++nNdpRowGroups_;

        t = data_done;
        cur += static_cast<Addr>(in_row) * element_bytes;
        remaining -= in_row;
    }
    return t;
}

PicoJoule
DramController::dynamicEnergy() const
{
    const auto pj = [](PicoJoule e, std::uint64_t n) {
        return e * static_cast<double>(n);
    };
    return pj(kEActPre, nActivates_) +
           pj(kEReadBurst, nReads_) +
           pj(kEWriteBurst, nWrites_) +
           pj(kENdpPerElement, nNdpElements_) +
           pj(kERefresh * static_cast<double>(config_.channels),
              nRefreshes_);
}

PicoJoule
DramController::standbyEnergy(Tick total_ticks) const
{
    // mW * ns = pJ.
    return kStandbyPowerMw * static_cast<double>(total_ticks) *
           static_cast<double>(config_.channels);
}

StatGroup
DramController::stats() const
{
    StatGroup out;
    out.counter("dram.activates") = static_cast<double>(nActivates_);
    out.counter("dram.precharges") = static_cast<double>(nPrecharges_);
    out.counter("dram.reads") = static_cast<double>(nReads_);
    out.counter("dram.writes") = static_cast<double>(nWrites_);
    out.counter("dram.rowHits") = static_cast<double>(nRowHits_);
    out.counter("dram.rowMisses") = static_cast<double>(nRowMisses_);
    out.counter("dram.busBytes") = static_cast<double>(busBytes_);
    out.counter("dram.ndpElements") =
        static_cast<double>(nNdpElements_);
    out.counter("dram.ndpRowGroups") =
        static_cast<double>(nNdpRowGroups_);
    out.counter("dram.refreshes") = static_cast<double>(nRefreshes_);
    return out;
}

} // namespace cq::dram
