/**
 * @file
 * Command-level DRAM controller model.
 *
 * Transfers are split into bus bursts; each burst is scheduled against
 * per-bank row state (ACTIVATE / PRECHARGE timing) and the shared data
 * bus. The model is transaction-driven: callers present transfers in
 * nondecreasing simulated time (the executor guarantees this) and
 * receive the completion tick. Row-hit/miss behaviour, bandwidth
 * saturation and per-command energy are all tracked.
 *
 * Stripe sets. One transfer() call moves a set of equal stripes at a
 * fixed stride -- the descriptor list of a strided DMA -- and
 * schedules each stripe exactly as a separate call at the same
 * earliest tick would: its own finish starts at earliest, so a refresh
 * that an earlier stripe's finish made due is taken only after this
 * stripe's first burst.
 *
 * Row windows. With C channels, an aligned window of kRowBytes x C
 * bytes maps to one (bank, row) per channel. One routine schedules the
 * bursts a stripe sends into a window: it maps the window once, steps
 * the first burst on each channel (row hit or miss), and moves the
 * rest forward in one closed-form run. Those later bursts are row hits
 * that start the moment the bus frees, as long as C bursts of bus time
 * cover one burst of bank time (C = 1 and C >= 4 with the 4/4/4/3
 * pattern; the constructor decides, and otherwise every burst of the
 * window steps). The run advances the start ticks, the bus, the
 * bank-ready ticks, the burst phase and the counters in one arithmetic
 * step. Finish ticks never fall along a window, so one comparison of
 * the second-to-last finish against the next tREFI tells whether a
 * refresh can fall due inside it; only then is the window split at
 * the refresh, after which the first burst on each channel steps
 * again.
 *
 * One channel: one step per row-window visit. A straight-line version
 * of the routine schedules a window (one row of one bank) as one step
 * and one closed-form run. A visit is the consecutive stripes of a set
 * that lie wholly in one window; they run as one row run of their
 * summed bursts. A burst holds its bank exactly as long as the bus, so
 * each later stripe's first burst is a row hit that starts when the
 * bus frees, as a separate call's would. Each stripe's refresh checks
 * see only its own finishes, so while the visit's second-to-last
 * finish is before the next tREFI none can fire; otherwise its stripes
 * go one at a time. A burst that two stripes share is scheduled once
 * for each. Multi-channel windows keep their per-channel steps: a
 * later stripe's first burst there can find its channel's bank still
 * busy. Results stay bitwise equal to the per-burst model, which the
 * tests keep as an oracle (tests/dram_reference.h) and compare against
 * on random call sequences.
 *
 * Energy. dynamicEnergy() is the command counters times the per-command
 * energies. Every constant is a whole number of pJ and every product
 * and sum stays far below 2^53, so the result is exact and equals the
 * per-command running sum bit for bit.
 *
 * The controller also implements the NDP engine's row protocol for
 * in-place weight update (Sec. IV-B3 of the paper): three ACTIVATEs
 * open the w/m/v rows, WRITE commands stream gradients over the bus,
 * the NDPO updates the row buffers locally, and three PRECHARGEs
 * close the rows -- w/m/v themselves never cross the bus.
 */

#ifndef CQ_DRAM_DRAM_CONTROLLER_H
#define CQ_DRAM_DRAM_CONTROLLER_H

#include <bit>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_config.h"

namespace cq::dram {

/** Per-bank row-buffer state. */
struct BankState
{
    bool rowOpen = false;
    std::uint64_t openRow = 0;
    /** Earliest tick the bank can accept a column command. */
    Tick readyAt = 0;
    /** Tick of the last ACTIVATE (for tRAS enforcement). */
    Tick lastActivate = 0;
};

/**
 * One memory channel plus its controller.
 */
class DramController
{
  public:
    /**
     * Panics unless the channel count is a power of two: the address
     * map splits an address into power-of-two fields.
     */
    explicit DramController(DramConfig config);

    const DramConfig &config() const { return config_; }

    /**
     * Stream @p stripes stripes of @p bytes each through the channel,
     * stripe i starting at @p addr + i x @p stride, none starting
     * before @p earliest. @p is_write selects the direction. Each
     * stripe is scheduled as a separate one-stripe call at @p earliest
     * would be. Returns the latest completion tick of any burst.
     * Panics on zero bytes or stripes, or when the set runs past the
     * addressable capacity.
     */
    Tick transfer(Tick earliest, Addr addr, Bytes bytes, bool is_write,
                  std::uint64_t stripes = 1, Bytes stride = 0);

    /**
     * NDP in-place update of @p num_elements consecutive
     * @p element_bytes-sized weights starting at @p addr. Per row
     * group: 3 ACT + gradient WRITE bursts + NDPO pipeline + 3 PRE.
     * Only the gradients cross the bus.
     */
    Tick ndpUpdate(Tick earliest, Addr addr, std::size_t num_elements,
                   Bytes element_bytes);

    /** Earliest tick a new transfer could begin (bus free). */
    Tick busFreeAt() const { return busFreeAt_; }

    /** Total bytes moved over the data bus so far. */
    Bytes busBytes() const { return busBytes_; }

    /** Activity counters (acts, reads, writes, rowHits, ...),
     *  materialized from the internal fast counters. */
    StatGroup stats() const;

    /** Dynamic energy of the commands issued so far (pJ). */
    PicoJoule dynamicEnergy() const;

    /** Standby energy for a run of @p total_ticks (pJ). */
    PicoJoule standbyEnergy(Tick total_ticks) const;

  private:
    /**
     * Panic unless @p stripes stripes of @p bytes at @p addr +
     * i x @p stride all lie in the addressable capacity.
     */
    void checkRange(Addr addr, Bytes bytes, std::uint64_t stripes = 1,
                    Bytes stride = 0) const;

    /**
     * Map burst number @p burst, which covers bytes [burst, burst + 1)
     * x kBurstBytes, to (bank, row) under the Ro:Ba:Co scheme.
     */
    void mapBurst(std::uint64_t burst, std::size_t &bank,
                  std::uint64_t &row) const;

    /**
     * Issue any all-bank refreshes due at or before @p now: every
     * tREFI, all banks close their rows and stall for tRFC.
     */
    void applyRefreshUpTo(Tick now);

    /** Open @p row in @p bank if needed; returns column-ready tick. */
    Tick prepareRow(Tick earliest, std::size_t bank, std::uint64_t row);

    /**
     * Put the next burst on the bus and @p bank at @p start; returns
     * its finish tick.
     */
    Tick startBurst(std::size_t bank, Tick start);

    /** Schedule one burst to @p row of @p bank; returns its finish. */
    Tick burstStep(Tick earliest, std::size_t bank, std::uint64_t row);

    /**
     * Schedule the @p count bursts from @p burst on, all in one row
     * window, for a stripe whose finish so far is @p done; returns the
     * stripe's finish after them.
     */
    Tick window(Tick earliest, Tick done, std::uint64_t burst,
                std::uint64_t count);

    /**
     * window() for channels == 1 in straight-line code: the @p count
     * bursts from @p burst, all in one row window, for a stripe whose
     * finish so far is @p done, as one step and one closed-form run.
     * The bursts may also be a visit's: consecutive stripes at
     * done == earliest, the first sending @p own of them. When a
     * refresh can fall due inside the run, only the first stripe's
     * @p own bursts go: the first steps and window() takes the rest.
     * Sets @p count to the bursts scheduled; returns the latest finish.
     */
    Tick oneChannelWindow(Tick earliest, Tick done, std::uint64_t burst,
                          std::uint64_t &count, std::uint64_t own);

    /**
     * How many bursts of a row run starting now start before a
     * refresh falls due; the caller has checked that one does.
     */
    std::uint64_t runBeforeRefresh() const;

    /** Finish tick of burst @p j of a row run starting now. */
    Tick
    runFinish(std::uint64_t j) const
    {
        return busFreeAt_ + kTCAS + busSpan(burstPhase_, j) +
               kBurstDur[(burstPhase_ + j) & 3];
    }

    /**
     * Bus ticks of @p count bursts starting at burst phase @p phase;
     * the bursts at phase 3 are the short ones.
     */
    Tick
    busSpan(unsigned phase, std::uint64_t count) const
    {
        return count * burstBus_[0] -
               ((phase + count) >> 2) * (burstBus_[0] - burstBus_[3]);
    }

    DramConfig config_;
    std::vector<BankState> banks_;
    Tick busFreeAt_ = 0;
    Bytes busBytes_ = 0;
    /** Position in the 4-burst duration pattern (see kTBurst). */
    unsigned burstPhase_ = 0;

    /** @name Address map and burst timing */
    /** @{ */
    static constexpr unsigned kBurstShift = std::countr_zero(kBurstBytes);
    static constexpr unsigned kBankShift = std::countr_zero(kNumBanks);
    static constexpr std::uint64_t kBankMask = kNumBanks - 1;
    /** Bank occupancy of a burst at each phase (4/4/4/3: the average
     *  3.75 ticks gives 17.06 GB/s on 64 B). */
    static constexpr Tick kBurstDur[4] = {kTBurst, kTBurst, kTBurst,
                                          kTBurst - 1};
    unsigned windowShift_ = 0; ///< log2(bursts per row x channels)
    std::uint64_t channelMask_ = 0;
    /** Data-bus occupancy of a burst at each phase, fixed by the
     *  channel count. */
    Tick burstBus_[4] = {};
    /**
     * Bursts of a row window that take the per-burst step before the
     * rest run in closed form: one per channel, or the whole window
     * when C bursts of bus time can fall short of a burst's bank time.
     */
    std::uint64_t stepBursts_ = 0;
    /** @} */

    /** @name Fast activity counters (hot path: no map lookups) */
    /** @{ */
    std::uint64_t nActivates_ = 0;
    std::uint64_t nPrecharges_ = 0;
    std::uint64_t nReads_ = 0;
    std::uint64_t nWrites_ = 0;
    std::uint64_t nRowHits_ = 0;
    std::uint64_t nRowMisses_ = 0;
    std::uint64_t nNdpElements_ = 0;
    std::uint64_t nNdpRowGroups_ = 0;
    std::uint64_t nRefreshes_ = 0;
    /** @} */

    /** Next scheduled all-bank refresh. */
    Tick nextRefresh_ = 0;
};

} // namespace cq::dram

#endif // CQ_DRAM_DRAM_CONTROLLER_H
