/**
 * @file
 * Top-level Cambricon-Q timing simulator.
 *
 * Executes a Program (tile-granular instruction stream with explicit
 * dependences) on a model of the chip: two DMA engines
 * (load/store) sharing the DRAM controller, the PE array, the SFU and
 * the NDP engine, with the SQU constraining the throughput of Q*
 * instructions. Latencies of compute instructions come from the
 * analytical PE-array occupancy model; every memory burst goes through
 * the command-level DRAM model. The load/compute/store overlap that
 * double buffering provides falls out of the per-unit queues; each
 * unit executes one instruction at a time.
 */

#ifndef CQ_ARCH_ACCELERATOR_H
#define CQ_ARCH_ACCELERATOR_H

#include <array>
#include <string>
#include <vector>

#include "arch/config.h"
#include "arch/isa.h"
#include "arch/pe_array.h"
#include "arch/squ.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_controller.h"
#include "energy/energy_model.h"

namespace cq::arch {

/** Execution units of the chip. */
enum class Unit : std::uint8_t
{
    DmaLoad,
    DmaStore,
    Pe,
    Sfu,
    Ndp,
};
inline constexpr std::size_t kNumUnits = 5;

const char *unitName(Unit unit);

/** One executed instruction in the timeline trace. */
struct TraceEntry
{
    std::uint32_t instr = 0;
    Unit unit = Unit::DmaLoad;
    Phase phase = Phase::FW;
    Tick start = 0;
    Tick end = 0;
};

/** Result of simulating one Program. */
struct PerfReport
{
    std::string configName;
    /** Makespan of the program in cycles (== ns at 1 GHz). */
    Tick totalTicks = 0;
    /** Busy cycles attributed to each training phase (summed over
     *  units; overlapping work counts once per unit). */
    std::array<double, kNumPhases> phaseBusy{};
    /** Busy cycles per unit. */
    std::array<double, kNumUnits> unitBusy{};
    /** Activity counters (PE MACs, buffer bytes, DRAM commands...). */
    StatGroup activity;
    /** DRAM energy split. */
    PicoJoule dramDynamicPj = 0.0;
    PicoJoule dramStandbyPj = 0.0;
    /** Full energy breakdown (Fig. 12(d) categories). */
    energy::EnergyBreakdown energy;
    /** Per-instruction timeline (filled when requested). */
    std::vector<TraceEntry> trace;

    /** Wall-clock per minibatch in milliseconds (1 GHz clock). */
    double timeMs() const;
    /** Total energy in millijoules. */
    double energyMj() const;
    /** Fraction of phase busy time attributed to @p phase. */
    double phaseFraction(Phase phase) const;
};

/** The simulator. */
class Accelerator
{
  public:
    explicit Accelerator(CambriconQConfig config);

    const CambriconQConfig &config() const { return config_; }

    /**
     * Simulate @p program from a cold start and report. When
     * @p collect_trace is set, the report carries the full
     * per-instruction timeline (one TraceEntry per instruction).
     */
    PerfReport run(const Program &program, bool collect_trace = false);

  private:
    CambriconQConfig config_;
};

} // namespace cq::arch

#endif // CQ_ARCH_ACCELERATOR_H
