/**
 * @file
 * Cambricon-Q hardware configuration presets.
 */

#ifndef CQ_ARCH_CONFIG_H
#define CQ_ARCH_CONFIG_H

#include <cstddef>
#include <string>

#include "common/types.h"
#include "dram/dram_config.h"

namespace cq::arch {

/**
 * Configuration of a Cambricon-Q chip. Defaults are the paper's
 * edge configuration (Sec. V-B): one 64x64 4-bit PE array at 1 GHz
 * (8 Tops INT4 / 2 Tops INT8), 256 KB NBin / 512 KB SB / 256 KB
 * NBout, 17.06 GB/s memory. Cambricon-Q-T/V scale the array count and
 * bandwidth (Sec. VII-A).
 */
struct CambriconQConfig
{
    std::string name = "Cambricon-Q";

    /** @name PE array */
    /** @{ */
    /** Accumulators (output lanes). */
    std::size_t peRows = 64;
    /** PEs per accumulator (reduction lanes). */
    std::size_t peCols = 64;
    /** Basic operator width; operands are multiples of this. */
    int peBits = 4;
    /**
     * Weight-stationary systolic dataflow (SCALE-Sim style) instead of
     * the broadcast/adder-tree dataflow; used by the TPU baseline.
     */
    bool systolicDataflow = false;
    /** @} */

    /** @name Scale-out organization (Sec. VII-A) */
    /** @{ */
    /** Arrays sharing NBin broadcasts (columns of the mesh). */
    unsigned meshCols = 1;
    /** Array rows for batch parallelism. */
    unsigned meshRows = 1;
    unsigned numArrays() const { return meshCols * meshRows; }
    /** @} */

    /** @name On-chip buffers */
    /** @{ */
    Bytes nbinBytes = 256 * 1024;
    Bytes sbBytes = 512 * 1024;
    Bytes nboutBytes = 256 * 1024;
    /** @} */

    /** @name SQU */
    /** @{ */
    /** Statistic-unit streaming width (bytes/cycle). */
    unsigned squStatBytesPerCycle = 32;
    /** Quant-unit width (bytes/cycle); E2BQM ways multiply the work. */
    unsigned squQuantBytesPerCycle = 64;
    /** @} */

    /** @name SFU */
    /** @{ */
    /** Scalar-function throughput, elements/cycle. */
    unsigned sfuElemsPerCycle = 64;
    /** @} */

    /** @name NDP engine */
    /** @{ */
    bool ndpEnabled = true;
    /** @} */

    /**
     * Chip static (leakage + clock-tree) power in mW, charged for the
     * whole runtime. Roughly a third of the Table VII module powers
     * at 45 nm (core 891 mW + NDP 139 mW -> ~340 mW static).
     */
    double staticPowerMw = 340.0;

    /** Memory system. */
    dram::DramConfig dram = dram::DramConfig::lpddr4_2133();

    /** Peak INT8 MACs per cycle across all arrays. */
    double peakMacsPerCycleInt8() const;

    /** @name Presets */
    /** @{ */
    /** The edge-class configuration evaluated against TX2/TPU. */
    static CambriconQConfig edge();
    /** Cambricon-Q without the NDP engine (Sec. VII-D ablation). */
    static CambriconQConfig edgeNoNdp();
    /** Cambricon-Q-T: 8 arrays, 68.24 GB/s (vs GTX 1080Ti). */
    static CambriconQConfig throughputT();
    /** Cambricon-Q-V: 8x8 mesh, 272.96 GB/s (vs V100). */
    static CambriconQConfig throughputV();
    /** @} */
};

} // namespace cq::arch

#endif // CQ_ARCH_CONFIG_H
