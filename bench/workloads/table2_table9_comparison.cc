/**
 * @file
 * Tables II and IX: the hardware-support matrix is qualitative, so
 * this workload records the quantitative half -- the peak-efficiency
 * figure of merit (paper: 2.24 TOPS/W @ INT8, 45 nm) recomputed from
 * the modeled peak throughput and the Table VII power.
 */

#include "bench_util.h"
#include "energy/energy_model.h"
#include "harness/workload.h"
#include "workloads/all.h"

namespace cq::bench::workloads {

namespace {

WorkloadResult
run(const WorkloadContext &)
{
    const auto cfg = arch::CambriconQConfig::edge();
    const auto hw = energy::HwCharacteristics::cambriconQ();
    const double peakTopsInt8 =
        2.0 * cfg.peakMacsPerCycleInt8() / 1e3; // at 1 GHz
    const double eff = peakTopsInt8 / (hw.corePowerMw() / 1000.0);

    WorkloadResult out;
    out.set("peak_tops_int8", peakTopsInt8, "TOPS");
    out.set("peak_tops_int4", 4.0 * peakTopsInt8, "TOPS");
    out.set("core_power_mw", hw.corePowerMw(), "mW");
    out.set("peak_tops_per_w_int8", eff, "TOPS/W");
    // Table II support matrix, counted: capabilities implemented here
    // (low bit-width PEs, SQU statistics, QBC reformatting, NDP
    // in-place update) out of the four the paper compares.
    out.set("table2_capabilities_implemented", 4.0);
    out.notes = "paper Table IX: 2 TOPS INT8 / 8 TOPS INT4, "
                "2.24 TOPS/W";
    return out;
}

} // namespace

void
registerTable2Table9Comparison()
{
    Registry::instance().add(
        {"table2_table9_comparison", "energy",
         "peak throughput and TOPS/W figure of merit vs Table IX",
         "Cambricon-Q, ISCA'21, Table II + Table IX", run});
}

} // namespace cq::bench::workloads
