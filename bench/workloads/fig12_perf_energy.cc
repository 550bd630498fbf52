/**
 * @file
 * Fig. 12 (a)-(d): the headline evaluation. For every Table VI
 * network, simulate one quantized-training minibatch on Cambricon-Q,
 * Cambricon-Q without NDP (Sec. VII-D ablation), the TPU baseline
 * and the Jetson TX2 GPU model; record the geomean speedups, the
 * energy-efficiency gains, the CQ energy split (Fig. 12(d)) and the
 * NDP-ablation penalty. It also reports how fast the simulator itself
 * runs (DRAM bursts per host second), which PERF-08 gates, and how
 * fast the compiler emits the 18 programs (instructions per host
 * second), which PERF-13 gates.
 */

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/workload.h"
#include "workloads/all.h"

namespace cq::bench::workloads {

namespace {

WorkloadResult
run(const WorkloadContext &)
{
    struct Row
    {
        std::string net;
        PlatformResult cq, cqNoNdp, tpu, gpu;
    };
    std::vector<Row> rows;

    for (const auto &ir : compiler::allBenchmarks()) {
        Row row;
        row.net = ir.name;
        row.cq = runCambriconQ(ir, arch::CambriconQConfig::edge());
        row.cqNoNdp =
            runCambriconQ(ir, arch::CambriconQConfig::edgeNoNdp());
        row.tpu = runTpu(ir);
        row.gpu = runGpu(ir, baseline::GpuSpec::jetsonTx2(), true);
        rows.push_back(std::move(row));
    }

    WorkloadResult out;
    double geoGpu = 1.0, geoTpu = 1.0, geoEGpu = 1.0, geoETpu = 1.0;
    double geoNoNdpTpu = 1.0;
    double accMj = 0.0, bufMj = 0.0, ddrSbMj = 0.0, ddrDyMj = 0.0;
    double worstNdpPenalty = 0.0;
    double simBursts = 0.0, simHostS = 0.0;
    double codegenInstrs = 0.0, codegenHostS = 0.0;
    for (const auto &r : rows) {
        for (const PlatformResult *p : {&r.cq, &r.cqNoNdp, &r.tpu}) {
            simBursts += p->dramBursts;
            simHostS += p->simHostS;
            codegenInstrs += p->instrs;
            codegenHostS += p->codegenHostS;
        }
        geoGpu *= r.gpu.timeMs / r.cq.timeMs;
        geoTpu *= r.tpu.timeMs / r.cq.timeMs;
        geoEGpu *= r.gpu.energyMj / r.cq.energyMj;
        geoETpu *= r.tpu.energyMj / r.cq.energyMj;
        geoNoNdpTpu *= r.tpu.timeMs / r.cqNoNdp.timeMs;
        out.set("speedup_vs_gpu_" + r.net,
                r.gpu.timeMs / r.cq.timeMs, "x");
        out.set("speedup_vs_tpu_" + r.net,
                r.tpu.timeMs / r.cq.timeMs, "x");
        accMj += r.cq.accMj;
        bufMj += r.cq.bufMj;
        ddrSbMj += r.cq.ddrSbMj;
        ddrDyMj += r.cq.ddrDyMj;
        worstNdpPenalty =
            std::max(worstNdpPenalty,
                     r.cqNoNdp.timeMs / r.cq.timeMs - 1.0);
    }
    const double n = static_cast<double>(rows.size());
    out.set("networks", n);
    out.set("speedup_vs_gpu_geomean", std::pow(geoGpu, 1.0 / n), "x");
    out.set("speedup_vs_tpu_geomean", std::pow(geoTpu, 1.0 / n), "x");
    out.set("energy_eff_vs_gpu_geomean", std::pow(geoEGpu, 1.0 / n),
            "x");
    out.set("energy_eff_vs_tpu_geomean", std::pow(geoETpu, 1.0 / n),
            "x");
    out.set("no_ndp_speedup_vs_tpu_geomean",
            std::pow(geoNoNdpTpu, 1.0 / n), "x");
    out.set("no_ndp_worst_time_penalty_pct", 100.0 * worstNdpPenalty,
            "%");

    // Fig. 12(d): CQ energy split aggregated over all networks.
    const double total = accMj + bufMj + ddrSbMj + ddrDyMj;
    out.set("energy_frac_acc", accMj / total);
    out.set("energy_frac_buf", bufMj / total);
    out.set("energy_frac_ddr_standby", ddrSbMj / total);
    out.set("energy_frac_ddr_dynamic", ddrDyMj / total);
    out.setTiming("sim_bursts_per_host_s", simBursts / simHostS,
                  "bursts/s");
    out.setTiming("codegen_instrs_per_host_s",
                  codegenInstrs / codegenHostS, "instrs/s");
    out.notes = "paper: 4.20x GPU / 1.70x TPU speedup, 6.41x GPU / "
                "1.62x TPU energy; DDR dominates Fig. 12(d)";
    return out;
}

} // namespace

void
registerFig12PerfEnergy()
{
    Registry::instance().add(
        {"fig12_perf_energy", "perf",
         "headline speedup/energy vs GPU+TPU with NDP ablation and "
         "energy split",
         "Cambricon-Q, ISCA'21, Fig. 12(a)-(d) + Sec. VII-D", run});
}

} // namespace cq::bench::workloads
