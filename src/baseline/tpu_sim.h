/**
 * @file
 * TPU baseline (paper Sec. V-B): a SCALE-Sim-style 32x32 INT8
 * weight-stationary systolic array extended with the features needed
 * for quantized training -- backward pass, statistic units and
 * quantization units organized as the naive Fig. 4(c) design, which
 * pays two extra memory passes per quantized tensor and performs the
 * FP32 weight update on the core.
 *
 * The baseline reuses the Cambricon-Q executor: a systolic PE-array
 * configuration plus the TPU code-generation target (separate
 * Stat/Quant passes, no NDP). Buffer sizes and memory bandwidth are
 * aligned with Cambricon-Q per the paper's fair-comparison setup.
 */

#ifndef CQ_BASELINE_TPU_SIM_H
#define CQ_BASELINE_TPU_SIM_H

#include "arch/accelerator.h"
#include "arch/config.h"
#include "compiler/codegen.h"
#include "compiler/workload_ir.h"

namespace cq::baseline {

/** The aligned TPU configuration (32x32 INT8 @ 1 GHz, 17.06 GB/s). */
arch::CambriconQConfig tpuConfig();

/** Compile one training minibatch of @p ir for the TPU baseline. */
arch::Program compileTpu(const compiler::WorkloadIR &ir,
                         const compiler::CodegenOptions &base =
                             compiler::CodegenOptions{});

} // namespace cq::baseline

#endif // CQ_BASELINE_TPU_SIM_H
