/**
 * @file
 * Implementation of the DRAM controller model.
 */

#include "dram/dram_controller.h"

#include <algorithm>
#include <bit>
#include <cmath>

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

void
requirePowerOfTwo(std::uint64_t value, const char *field)
{
    CQ_ASSERT_MSG(std::has_single_bit(value),
                  "DramConfig::%s = %llu is not a power of two", field,
                  static_cast<unsigned long long>(value));
}

void
requireWholePj(PicoJoule value, const char *field)
{
    CQ_ASSERT_MSG(std::isfinite(value) && std::trunc(value) == value,
                  "DramConfig::%s = %g is not a whole number of pJ",
                  field, value);
}

} // namespace

DramController::DramController(DramConfig config)
    : config_(config), banks_(config.numBanks * config.channels)
{
    requirePowerOfTwo(config_.burstBytes, "burstBytes");
    requirePowerOfTwo(config_.rowBytes, "rowBytes");
    requirePowerOfTwo(config_.numBanks, "numBanks");
    requirePowerOfTwo(config_.channels, "channels");
    CQ_ASSERT(config_.rowBytes % config_.burstBytes == 0);
    // Whole-pJ constants keep every partial energy sum exact, so a run
    // of n bursts may add n x e at once and stay bitwise equal to n
    // separate additions.
    requireWholePj(config_.eActPre, "eActPre");
    requireWholePj(config_.eReadBurst, "eReadBurst");
    requireWholePj(config_.eWriteBurst, "eWriteBurst");
    requireWholePj(config_.eNdpPerElement, "eNdpPerElement");
    requireWholePj(config_.eRefresh, "eRefresh");

    burstShift_ = std::countr_zero(config_.burstBytes);
    bankShift_ = std::countr_zero(config_.numBanks);
    windowShift_ = std::countr_zero(config_.rowBytes) - burstShift_ +
                   std::countr_zero(config_.channels);
    channelMask_ = config_.channels - 1;
    bankMask_ = config_.numBanks - 1;

    for (unsigned p = 0; p < 4; ++p) {
        // 4/4/4/3 pattern: average 3.75 ticks -> 17.06 GB/s on 64 B.
        burstDur_[p] = config_.tBurst;
        if (config_.fractionalBurst && p == 3)
            burstDur_[p] -= 1;
        // With multiple channels each channel has its own bus; we model
        // the aggregate as `channels` bursts being able to overlap by
        // crediting the shared-bus time 1/channels per burst.
        burstBus_[p] = std::max<Tick>(1, burstDur_[p] / config_.channels);
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
                    busSpan(p, config_.channels) >= burstDur_[p];
    stepBursts_ = bus_bound ? config_.channels
                            : std::uint64_t{1} << windowShift_;
    nextRefresh_ = config_.tREFI;
}

void
DramController::applyRefreshUpTo(Tick now)
{
    if (!config_.refreshEnabled)
        return;
    while (nextRefresh_ <= now) {
        // All-bank refresh: rows close, banks stall for tRFC.
        for (auto &b : banks_) {
            b.rowOpen = false;
            b.readyAt = std::max(b.readyAt, nextRefresh_) +
                        config_.tRFC;
        }
        dynamicEnergy_ +=
            config_.eRefresh * static_cast<double>(config_.channels);
        ++nRefreshes_;
        nextRefresh_ += config_.tREFI;
    }
}

void
DramController::checkRange(Addr addr, Bytes bytes) const
{
    const Bytes capacity =
        config_.capacityBytes * static_cast<Bytes>(config_.channels);
    CQ_ASSERT_MSG(addr < capacity && bytes <= capacity - addr,
                  "address range [0x%llx, +%llu) exceeds DRAM capacity "
                  "%llu B (%u channel(s) x %llu B)",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(capacity),
                  config_.channels,
                  static_cast<unsigned long long>(config_.capacityBytes));
}

void
DramController::mapBurst(std::uint64_t burst, std::size_t &bank,
                         std::uint64_t &row) const
{
    // Channel interleave at burst granularity (for scaled configs),
    // then Row : Bank : Column within the channel. Bank bits above the
    // column bits keep sequential streams inside one open row.
    const std::uint64_t window = burst >> windowShift_;
    row = window >> bankShift_;
    bank = ((burst & channelMask_) << bankShift_) | (window & bankMask_);
}

Tick
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
        t = std::max(t, b.lastActivate + config_.tRAS);
        t += config_.tRP;
        ++nPrecharges_;
    }
    ++nRowMisses_;
    ++nActivates_;
    dynamicEnergy_ += config_.eActPre;
    b.lastActivate = t;
    t += config_.tRCD;
    b.rowOpen = true;
    b.openRow = row;
    return t;
}

Tick
DramController::burstStep(Tick earliest, std::uint64_t burst)
{
    std::size_t bank;
    std::uint64_t row;
    mapBurst(burst, bank, row);
    // The burst needs the bank ready and the data bus free.
    const Tick start =
        std::max(prepareRow(earliest, bank, row), busFreeAt_);
    const unsigned phase = burstPhase_;
    burstPhase_ = (phase + 1) & 3;
    busFreeAt_ = start + burstBus_[phase];
    banks_[bank].readyAt = start + burstDur_[phase];
    return start + config_.tCAS + burstDur_[phase];
}

Tick
DramController::rowRun(std::uint64_t burst, std::uint64_t count)
{
    // Burst j starts busSpan(phase, j) after the first. Only the last
    // burst on each channel leaves its mark on a bank.
    const unsigned phase = burstPhase_;
    const std::size_t bank_in_chan =
        (burst >> windowShift_) & bankMask_;
    const std::uint64_t tail =
        std::min<std::uint64_t>(count, config_.channels);
    Tick start = busFreeAt_ + busSpan(phase, count - tail);
    for (std::uint64_t j = count - tail; j < count; ++j) {
        const unsigned p = (phase + j) & 3;
        const std::size_t bank =
            (((burst + j) & channelMask_) << bankShift_) | bank_in_chan;
        banks_[bank].readyAt = start + burstDur_[p];
        start += burstBus_[p];
    }
    busFreeAt_ = start;
    burstPhase_ = (phase + count) & 3;
    nRowHits_ += count;
    const unsigned last = (phase + count - 1) & 3;
    return start - burstBus_[last] + config_.tCAS + burstDur_[last];
}

std::uint64_t
DramController::runBeforeRefresh(std::uint64_t count) const
{
    // A refresh falls due before a burst once an earlier burst of the
    // transfer finished at or after nextRefresh_. Along a row run the
    // finish ticks never fall (each burst starts at least one bus tick
    // after the previous and lasts at most one tick less), so the run
    // keeps its bursts up to the first that finishes that late.
    if (!config_.refreshEnabled || count == 1)
        return count;
    const unsigned phase = burstPhase_;
    // Finish of run burst j, less the first start and tCAS.
    const auto reach = [&](std::uint64_t j) {
        return busSpan(phase, j) + burstDur_[(phase + j) & 3];
    };
    const Tick first = busFreeAt_ + config_.tCAS;
    if (first + reach(count - 2) < nextRefresh_)
        return count;
    if (nextRefresh_ <= first + reach(0))
        return 1;
    // reach(4q + r) = q x busSpan(0, 4) + reach(r): bursts up to 4q
    // finish in time, and the fourth burst after that no longer does.
    const Tick budget = nextRefresh_ - first;
    std::uint64_t j = (budget - reach(0) - 1) / busSpan(0, 4) * 4;
    while (reach(j + 1) < budget)
        ++j;
    return j + 2;
}

Tick
DramController::transfer(Tick earliest, Addr addr, Bytes bytes,
                         bool is_write)
{
    CQ_ASSERT_MSG(bytes > 0, "zero-byte %s at addr 0x%llx",
                  is_write ? "write" : "read",
                  static_cast<unsigned long long>(addr));
    checkRange(addr, bytes);
    applyRefreshUpTo(earliest);

    // Burst k carries the transfer's bytes in [k, k + 1) x burstBytes.
    std::uint64_t burst = addr >> burstShift_;
    const std::uint64_t end = ((addr + bytes - 1) >> burstShift_) + 1;
    const std::uint64_t count = end - burst;
    busBytes_ += bytes;
    if (is_write) {
        nWrites_ += count;
        dynamicEnergy_ +=
            config_.eWriteBurst * static_cast<double>(count);
    } else {
        nReads_ += count;
        dynamicEnergy_ += config_.eReadBurst * static_cast<double>(count);
    }

    Tick done = earliest;
    while (burst < end) {
        // A row window: each channel's bursts in it share one row.
        const std::uint64_t window_end =
            std::min(end, ((burst >> windowShift_) + 1) << windowShift_);
        std::uint64_t hits_from = burst + stepBursts_;
        while (burst < window_end) {
            if (config_.refreshEnabled && done >= nextRefresh_) {
                applyRefreshUpTo(done);
                hits_from = burst + stepBursts_; // every row closed
            }
            if (burst < hits_from) {
                done = std::max(done, burstStep(earliest, burst));
                ++burst;
            } else {
                const std::uint64_t run =
                    runBeforeRefresh(window_end - burst);
                done = std::max(done, rowRun(burst, run));
                burst += run;
            }
        }
    }
    return done;
}

Tick
DramController::ndpUpdate(Tick earliest, Addr addr,
                          std::size_t num_elements, Bytes element_bytes)
{
    CQ_ASSERT_MSG(num_elements > 0, "zero-element NDP update at 0x%llx",
                  static_cast<unsigned long long>(addr));
    CQ_ASSERT_MSG(element_bytes > 0 && element_bytes <= config_.rowBytes,
                  "NDP element size %llu outside (0, rowBytes=%llu]",
                  static_cast<unsigned long long>(element_bytes),
                  static_cast<unsigned long long>(config_.rowBytes));
    checkRange(addr, static_cast<Bytes>(num_elements) * element_bytes);
    applyRefreshUpTo(earliest);
    const std::size_t per_row =
        static_cast<std::size_t>(config_.rowBytes / element_bytes);
    const std::size_t bank_wrap = banks_.size() - 1;
    Tick t = earliest;
    std::size_t remaining = num_elements;
    Addr cur = addr;

    while (remaining > 0) {
        if (config_.refreshEnabled && t >= nextRefresh_)
            applyRefreshUpTo(t);
        const std::size_t in_row = std::min(remaining, per_row);

        // Three successive ACTIVATEs open the rows holding w, m and v
        // (they live in distinct banks; the command bus serializes the
        // row commands).
        std::size_t bank;
        std::uint64_t row;
        mapBurst(cur >> burstShift_, bank, row);
        Tick row_ready = 0;
        for (int r = 0; r < 3; ++r) {
            // The m/v rows track the weight row index within their
            // banks; modeling them as the same row id in neighbour
            // banks preserves the timing behaviour.
            BankState &bs = banks_[(bank + r) & bank_wrap];
            Tick bt = std::max(t + static_cast<Tick>(r) * config_.tCmd,
                               bs.readyAt);
            if (bs.rowOpen) {
                bt = std::max(bt, bs.lastActivate + config_.tRAS);
                bt += config_.tRP;
                ++nPrecharges_;
            }
            ++nActivates_;
            dynamicEnergy_ += config_.eActPre;
            bs.rowOpen = true;
            bs.openRow = row;
            bs.lastActivate = bt;
            bs.readyAt = bt + config_.tRCD;
            row_ready = std::max(row_ready, bt + config_.tRCD);
        }

        // Gradient WRITE bursts cross the bus; w/m/v do not. They touch
        // no bank state, so after the first each starts when the one
        // before frees the bus. The NDPO pipeline updates one element
        // per tick once filled, which is never the bottleneck against
        // the bus bursts.
        const Bytes grad_bytes =
            static_cast<Bytes>(in_row) * element_bytes;
        const std::uint64_t bursts =
            (grad_bytes + config_.burstBytes - 1) >> burstShift_;
        const unsigned phase = burstPhase_;
        const unsigned last = (phase + bursts - 1) & 3;
        busFreeAt_ = std::max(row_ready, busFreeAt_) +
                     busSpan(phase, bursts);
        burstPhase_ = (phase + bursts) & 3;
        Tick data_done = busFreeAt_ - burstBus_[last] + config_.tCAS +
                         burstDur_[last];
        nWrites_ += bursts;
        busBytes_ += grad_bytes;
        dynamicEnergy_ +=
            config_.eWriteBurst * static_cast<double>(bursts);

        // NDPO datapath energy + the trailing pipeline drain.
        dynamicEnergy_ +=
            config_.eNdpPerElement * static_cast<double>(in_row);
        nNdpElements_ += in_row;
        data_done += 4; // pipeline drain

        // Three PRECHARGEs write the updated rows back.
        for (int r = 0; r < 3; ++r) {
            BankState &bs = banks_[(bank + r) & bank_wrap];
            const Tick pt =
                std::max({data_done + static_cast<Tick>(r) * config_.tCmd,
                          bs.lastActivate + config_.tRAS,
                          bs.readyAt});
            bs.rowOpen = false;
            bs.readyAt = pt + config_.tRP;
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
DramController::standbyEnergy(Tick total_ticks) const
{
    // mW * ns = pJ.
    return config_.standbyPowerMw * static_cast<double>(total_ticks) *
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

void
DramController::reset()
{
    banks_.assign(banks_.size(), BankState{});
    busFreeAt_ = 0;
    busBytes_ = 0;
    burstPhase_ = 0;
    dynamicEnergy_ = 0.0;
    nActivates_ = nPrecharges_ = nReads_ = nWrites_ = 0;
    nRowHits_ = nRowMisses_ = nNdpElements_ = nNdpRowGroups_ = 0;
    nRefreshes_ = 0;
    nextRefresh_ = config_.tREFI;
}

} // namespace cq::dram
