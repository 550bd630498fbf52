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
 * Row runs. With C channels, an aligned window of rowBytes x C bytes
 * maps to one (bank, row) per channel. The first burst a call sends
 * on each channel of a window, and the first after a refresh, goes
 * through the per-burst step (row hit or miss). Every later burst of
 * the window is a row hit that starts the moment the bus frees, as
 * long as C bursts of bus time cover one burst of bank time (C = 1
 * and C >= 4 with the 4/4/4/3 pattern; the constructor decides). Such
 * a run advances the start ticks, the bus, the bank-ready ticks, the
 * burst phase and the counters in one arithmetic step, and is split
 * only where its window ends or a tREFI refresh falls due. Energy
 * constants are whole pJ, so n x e equals n repeated additions and the
 * results stay bitwise equal to the per-burst model, which the tests
 * keep as an oracle (tests/dram_reference.h) and compare against on
 * random call sequences.
 *
 * The controller also implements the NDP engine's row protocol for
 * in-place weight update (Sec. IV-B3 of the paper): three ACTIVATEs
 * open the w/m/v rows, WRITE commands stream gradients over the bus,
 * the NDPO updates the row buffers locally, and three PRECHARGEs
 * close the rows -- w/m/v themselves never cross the bus.
 */

#ifndef CQ_DRAM_DRAM_CONTROLLER_H
#define CQ_DRAM_DRAM_CONTROLLER_H

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
     * Panics unless burstBytes, rowBytes, numBanks and channels are
     * powers of two and every energy constant is a whole number of pJ:
     * the address map and the row-run arithmetic rely on both.
     */
    explicit DramController(DramConfig config);

    const DramConfig &config() const { return config_; }

    /**
     * Stream @p bytes starting at @p addr through the channel, not
     * starting before @p earliest. @p is_write selects the direction.
     * Returns the completion tick of the last burst.
     */
    Tick transfer(Tick earliest, Addr addr, Bytes bytes, bool is_write);

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

    /** Dynamic energy accumulated so far (pJ). */
    PicoJoule dynamicEnergy() const { return dynamicEnergy_; }

    /** Standby energy for a run of @p total_ticks (pJ). */
    PicoJoule standbyEnergy(Tick total_ticks) const;

    /** Reset all state (row buffers, bus, stats). */
    void reset();

  private:
    /** Panic if [addr, addr+bytes) exceeds the addressable capacity. */
    void checkRange(Addr addr, Bytes bytes) const;

    /**
     * Map burst number @p burst, which covers bytes [burst, burst + 1)
     * x burstBytes, to (bank, row) under the Ro:Ba:Co scheme.
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

    /** Schedule one burst of a transfer; returns its finish tick. */
    Tick burstStep(Tick earliest, std::uint64_t burst);

    /**
     * Schedule @p count row-hit bursts from @p burst on, each starting
     * when the bus frees; returns the finish tick of the last.
     */
    Tick rowRun(std::uint64_t burst, std::uint64_t count);

    /** How many of @p count row-run bursts start before a refresh. */
    std::uint64_t runBeforeRefresh(std::uint64_t count) const;

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
    /** Position in the 4-burst duration pattern (see tBurst). */
    unsigned burstPhase_ = 0;
    PicoJoule dynamicEnergy_ = 0.0;

    /** @name Address map and burst timing, fixed by the config */
    /** @{ */
    unsigned burstShift_ = 0;  ///< log2(burstBytes)
    unsigned windowShift_ = 0; ///< log2(bursts per row x channels)
    unsigned bankShift_ = 0;   ///< log2(numBanks)
    std::uint64_t channelMask_ = 0;
    std::uint64_t bankMask_ = 0;
    /** Data-bus and bank occupancy of a burst at each phase. */
    Tick burstBus_[4] = {};
    Tick burstDur_[4] = {};
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
