/**
 * @file
 * Test oracle for the DRAM controller: the per-burst model.
 *
 * dram::DramController computes each run of row-hit bursts in one
 * arithmetic step. This class keeps the original formulation, which
 * walks the same command-level model one bus burst at a time, so the
 * differential tests in test_sim_dram.cc can prove that the two agree
 * on every returned tick, counter, bus-free tick and energy bit. It
 * is test-only and deliberately unoptimized: keep it a literal
 * statement of the model, not a second fast path.
 */

#ifndef CQ_TESTS_DRAM_REFERENCE_H
#define CQ_TESTS_DRAM_REFERENCE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_config.h"
#include "dram/dram_controller.h"

namespace cq::test {

/** Per-burst DRAM model with the DramController interface. */
class ReferenceDram
{
  public:
    explicit ReferenceDram(dram::DramConfig config)
        : config_(config), banks_(dram::kNumBanks * config.channels),
          nextRefresh_(config.tREFI)
    {
    }

    Tick
    transfer(Tick earliest, Addr addr, Bytes bytes, bool is_write)
    {
        applyRefreshUpTo(earliest);
        Tick done = earliest;
        Addr cur = addr;
        Bytes remaining = bytes;
        while (remaining > 0) {
            if (done >= nextRefresh_)
                applyRefreshUpTo(done);
            const Bytes in_burst =
                std::min<Bytes>(remaining,
                                dram::kBurstBytes -
                                    cur % dram::kBurstBytes);
            std::size_t bank;
            std::uint64_t row;
            mapAddress(cur, bank, row);
            const Tick col_ready = prepareRow(earliest, bank, row);
            const Tick start = std::max(col_ready, busFreeAt_);
            const Tick dur = burstDuration();
            busFreeAt_ = start + std::max<Tick>(1, dur / config_.channels);
            banks_[bank].readyAt = start + dur;
            done = std::max(done, start + dram::kTCAS + dur);

            busBytes_ += in_burst;
            if (is_write) {
                ++nWrites_;
                dynamicEnergy_ += dram::kEWriteBurst;
            } else {
                ++nReads_;
                dynamicEnergy_ += dram::kEReadBurst;
            }
            cur += in_burst;
            remaining -= in_burst;
        }
        return done;
    }

    Tick
    ndpUpdate(Tick earliest, Addr addr, std::size_t num_elements,
              Bytes element_bytes)
    {
        applyRefreshUpTo(earliest);
        const std::size_t per_row =
            static_cast<std::size_t>(dram::kRowBytes / element_bytes);
        Tick t = earliest;
        std::size_t remaining = num_elements;
        Addr cur = addr;
        while (remaining > 0) {
            if (t >= nextRefresh_)
                applyRefreshUpTo(t);
            const std::size_t in_row = std::min(remaining, per_row);
            std::size_t bank;
            std::uint64_t row;
            mapAddress(cur, bank, row);
            Tick row_ready = 0;
            for (int r = 0; r < 3; ++r) {
                dram::BankState &bs = banks_[(bank + r) % banks_.size()];
                Tick bt = std::max(t + static_cast<Tick>(r) * dram::kTCmd,
                                   bs.readyAt);
                if (bs.rowOpen) {
                    bt = std::max(bt, bs.lastActivate + dram::kTRAS);
                    bt += dram::kTRP;
                    ++nPrecharges_;
                }
                ++nActivates_;
                dynamicEnergy_ += dram::kEActPre;
                bs.rowOpen = true;
                bs.openRow = row;
                bs.lastActivate = bt;
                bs.readyAt = bt + dram::kTRCD;
                row_ready = std::max(row_ready, bt + dram::kTRCD);
            }

            const Bytes grad_bytes =
                static_cast<Bytes>(in_row) * element_bytes;
            Tick data_done = row_ready;
            Bytes sent = 0;
            while (sent < grad_bytes) {
                const Bytes chunk =
                    std::min<Bytes>(dram::kBurstBytes, grad_bytes - sent);
                const Tick start = std::max(row_ready, busFreeAt_);
                const Tick dur = burstDuration();
                busFreeAt_ =
                    start + std::max<Tick>(1, dur / config_.channels);
                data_done = start + dram::kTCAS + dur;
                sent += chunk;
                ++nWrites_;
                busBytes_ += chunk;
                dynamicEnergy_ += dram::kEWriteBurst;
            }
            dynamicEnergy_ +=
                dram::kENdpPerElement * static_cast<double>(in_row);
            nNdpElements_ += in_row;
            data_done += 4;

            for (int r = 0; r < 3; ++r) {
                dram::BankState &bs = banks_[(bank + r) % banks_.size()];
                const Tick pt = std::max(
                    {data_done + static_cast<Tick>(r) * dram::kTCmd,
                     bs.lastActivate + dram::kTRAS, bs.readyAt});
                bs.rowOpen = false;
                bs.readyAt = pt + dram::kTRP;
                ++nPrecharges_;
            }
            ++nNdpRowGroups_;

            t = data_done;
            cur += static_cast<Addr>(in_row) * element_bytes;
            remaining -= in_row;
        }
        return t;
    }

    Tick busFreeAt() const { return busFreeAt_; }
    PicoJoule dynamicEnergy() const { return dynamicEnergy_; }

    /** Same counter names as DramController::stats(). */
    StatGroup
    stats() const
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

  private:
    void
    applyRefreshUpTo(Tick now)
    {
        while (nextRefresh_ <= now) {
            for (auto &b : banks_) {
                b.rowOpen = false;
                b.readyAt = std::max(b.readyAt, nextRefresh_) +
                            dram::kTRFC;
            }
            dynamicEnergy_ +=
                dram::kERefresh * static_cast<double>(config_.channels);
            ++nRefreshes_;
            nextRefresh_ += config_.tREFI;
        }
    }

    /** Burst-granular channel interleave, then Row : Bank : Column. */
    void
    mapAddress(Addr addr, std::size_t &bank, std::uint64_t &row) const
    {
        const Bytes chan_stride = dram::kBurstBytes;
        const std::size_t chan = (addr / chan_stride) % config_.channels;
        const Addr in_chan = addr / (chan_stride * config_.channels) *
                                 chan_stride +
                             addr % chan_stride;
        const std::uint64_t row_global = in_chan / dram::kRowBytes;
        row = row_global / dram::kNumBanks;
        bank = chan * dram::kNumBanks + row_global % dram::kNumBanks;
    }

    Tick
    prepareRow(Tick earliest, std::size_t bank, std::uint64_t row)
    {
        dram::BankState &b = banks_[bank];
        Tick t = std::max(earliest, b.readyAt);
        if (b.rowOpen && b.openRow == row) {
            ++nRowHits_;
            return t;
        }
        if (b.rowOpen) {
            t = std::max(t, b.lastActivate + dram::kTRAS);
            t += dram::kTRP;
            ++nPrecharges_;
        }
        ++nRowMisses_;
        ++nActivates_;
        dynamicEnergy_ += dram::kEActPre;
        b.lastActivate = t;
        t += dram::kTRCD;
        b.rowOpen = true;
        b.openRow = row;
        return t;
    }

    /** 4/4/4/3 fractional-burst pattern. */
    Tick
    burstDuration()
    {
        Tick d = dram::kTBurst;
        if (burstPhase_ == 3)
            d -= 1;
        burstPhase_ = (burstPhase_ + 1) % 4;
        return d;
    }

    dram::DramConfig config_;
    std::vector<dram::BankState> banks_;
    Tick busFreeAt_ = 0;
    Bytes busBytes_ = 0;
    unsigned burstPhase_ = 0;
    PicoJoule dynamicEnergy_ = 0.0;
    std::uint64_t nActivates_ = 0;
    std::uint64_t nPrecharges_ = 0;
    std::uint64_t nReads_ = 0;
    std::uint64_t nWrites_ = 0;
    std::uint64_t nRowHits_ = 0;
    std::uint64_t nRowMisses_ = 0;
    std::uint64_t nNdpElements_ = 0;
    std::uint64_t nNdpRowGroups_ = 0;
    std::uint64_t nRefreshes_ = 0;
    Tick nextRefresh_ = 0;
};

} // namespace cq::test

#endif // CQ_TESTS_DRAM_REFERENCE_H
