/**
 * @file
 * Shared helpers for the benchmark workloads: running one workload IR
 * on each platform model (Cambricon-Q configs, TPU, GPU) and
 * condensing the per-platform report.
 */

#ifndef CQ_BENCH_BENCH_UTIL_H
#define CQ_BENCH_BENCH_UTIL_H

// <array> was previously picked up transitively through the arch
// headers; PlatformResult::phaseFrac needs it directly.
#include <array>
#include <chrono>
#include <cstddef>
#include <string>

#include "arch/accelerator.h"
#include "baseline/gpu_model.h"
#include "baseline/tpu_sim.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"

namespace cq::bench {

/** Condensed result of one platform on one workload. */
struct PlatformResult
{
    std::string platform;
    double timeMs = 0.0;
    double energyMj = 0.0;
    /** Phase fractions in Fig. 12(b) order FW/NG/WG/WU/S/Q. */
    std::array<double, arch::kNumPhases> phaseFrac{};
    /** Energy split (Fig. 12(d)): ACC / BUF / DDR-SB / DDR-DY. */
    double accMj = 0.0, bufMj = 0.0, ddrSbMj = 0.0, ddrDyMj = 0.0;
    /** DRAM read + write bursts the simulation moved. */
    double dramBursts = 0.0;
    /** Host seconds spent in Accelerator::run (0 for the GPU model). */
    double simHostS = 0.0;
    /** Host seconds spent compiling the program, and its size (0 for
     *  the GPU model). */
    double codegenHostS = 0.0;
    double instrs = 0.0;
};

inline PlatformResult
fromPerfReport(const arch::PerfReport &r)
{
    PlatformResult out;
    out.platform = r.configName;
    out.timeMs = r.timeMs();
    out.energyMj = r.energyMj();
    for (std::size_t p = 0; p < arch::kNumPhases; ++p)
        out.phaseFrac[p] =
            r.phaseFraction(static_cast<arch::Phase>(p));
    out.accMj = (r.energy.accPj + r.energy.chipStaticPj) * 1e-9;
    out.bufMj = r.energy.bufPj * 1e-9;
    out.ddrSbMj = r.energy.ddrStandbyPj * 1e-9;
    out.ddrDyMj = r.energy.ddrDynamicPj * 1e-9;
    out.dramBursts =
        r.activity.get("dram.reads") + r.activity.get("dram.writes");
    return out;
}

/** Simulate a compiled program, timing the simulation on the host. */
inline PlatformResult
simulate(const arch::CambriconQConfig &cfg, const arch::Program &prog)
{
    arch::Accelerator acc(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const arch::PerfReport report = acc.run(prog);
    const std::chrono::duration<double> host =
        std::chrono::steady_clock::now() - t0;
    PlatformResult out = fromPerfReport(report);
    out.simHostS = host.count();
    return out;
}

/** Compile a program with @p compile and simulate it, timing both. */
template <typename Compile>
PlatformResult
compileAndSimulate(const arch::CambriconQConfig &cfg, Compile compile)
{
    const auto t0 = std::chrono::steady_clock::now();
    const arch::Program prog = compile();
    const std::chrono::duration<double> host =
        std::chrono::steady_clock::now() - t0;
    PlatformResult out = simulate(cfg, prog);
    out.codegenHostS = host.count();
    out.instrs = static_cast<double>(prog.size());
    return out;
}

/** Run on a Cambricon-Q-family configuration. */
inline PlatformResult
runCambriconQ(const compiler::WorkloadIR &ir,
              const arch::CambriconQConfig &cfg,
              const compiler::CodegenOptions &opts = {})
{
    return compileAndSimulate(
        cfg, [&] { return compiler::generateProgram(ir, cfg, opts); });
}

/** Run on the TPU baseline. */
inline PlatformResult
runTpu(const compiler::WorkloadIR &ir,
       const compiler::CodegenOptions &opts = {})
{
    return compileAndSimulate(baseline::tpuConfig(), [&] {
        return baseline::compileTpu(ir, opts);
    });
}

/** Run on a GPU model. */
inline PlatformResult
runGpu(const compiler::WorkloadIR &ir, const baseline::GpuSpec &gpu,
       bool quantized)
{
    const auto r = baseline::simulateGpu(ir, gpu, quantized);
    PlatformResult out;
    out.platform = gpu.name + (quantized ? " (quant)" : " (FP32)");
    out.timeMs = r.timeMs;
    out.energyMj = r.energyMj;
    for (std::size_t p = 0; p < arch::kNumPhases; ++p)
        out.phaseFrac[p] =
            r.phaseFraction(static_cast<arch::Phase>(p));
    return out;
}

} // namespace cq::bench

#endif // CQ_BENCH_BENCH_UTIL_H
