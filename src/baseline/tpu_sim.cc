/**
 * @file
 * Implementation of the TPU baseline.
 */

#include "baseline/tpu_sim.h"

namespace cq::baseline {

arch::CambriconQConfig
tpuConfig()
{
    arch::CambriconQConfig cfg;
    cfg.name = "TPU";
    // 32x32 8-bit PEs @ 1 GHz -> 2 Tops INT8, matching Cambricon-Q's
    // INT8 peak; same buffers and memory bandwidth (Sec. V-B).
    cfg.peRows = 32;
    cfg.peCols = 32;
    cfg.peBits = 8;
    cfg.systolicDataflow = true;
    cfg.ndpEnabled = false;
    return cfg;
}

arch::Program
compileTpu(const compiler::WorkloadIR &ir,
           const compiler::CodegenOptions &base)
{
    compiler::CodegenOptions opts = base;
    opts.target = compiler::CodegenOptions::Target::Tpu;
    return compiler::generateProgram(ir, tpuConfig(), opts);
}

} // namespace cq::baseline
