/**
 * @file
 * DRAM device/controller configuration.
 *
 * The default configuration models an LPDDR4-2133 x64 interface:
 * 2133 MT/s * 8 B = 17.06 GB/s peak, the bandwidth the paper attaches
 * to both Cambricon-Q and the TPU baseline. Timing parameters are
 * expressed in controller ticks; the whole simulation runs in the
 * 1 GHz accelerator clock domain, so one tick = 1 ns.
 */

#ifndef CQ_DRAM_DRAM_CONFIG_H
#define CQ_DRAM_DRAM_CONFIG_H

#include <cstddef>

#include "common/types.h"

namespace cq::dram {

/** Timing and organization parameters. */
struct DramConfig
{
    /** @name Organization */
    /** @{ */
    std::size_t numBanks = 8;
    /** Bytes per row (row buffer size per bank). */
    Bytes rowBytes = 2048;
    /** Bytes transferred per column burst (BL16 on x64 -> 64 B is
     *  split into one bus burst here). */
    Bytes burstBytes = 64;
    /**
     * Addressable bytes per channel. Transfers beyond
     * capacityBytes * channels are a caller bug (an unmapped row) and
     * panic instead of silently wrapping the row index. The default
     * covers the compiler's region-partitioned address space (16
     * regions x 4 GiB, top nibble selects the region -- see
     * src/compiler/codegen.cc), not a physical device capacity.
     */
    Bytes capacityBytes = 16ull << 32;
    /** @} */

    /** @name Timings (ticks @ 1 GHz, i.e. ns) */
    /** @{ */
    Tick tRCD = 14;  ///< ACTIVATE -> column command
    Tick tRP = 14;   ///< PRECHARGE -> ACTIVATE
    Tick tCAS = 14;  ///< column command -> first data
    Tick tRAS = 33;  ///< ACTIVATE -> PRECHARGE
    /**
     * Data-bus occupancy of one 64 B burst. 64 B at 17.06 GB/s is
     * 3.75 ns; we model it as alternating 4/4/4/3 tick bursts (every
     * 4th burst one tick shorter) to keep integer ticks while hitting
     * the exact average.
     */
    Tick tBurst = 4;
    /** Command-bus serialization between row commands. */
    Tick tCmd = 1;
    /** Average refresh interval (all-bank refresh). */
    Tick tREFI = 3900;
    /** Refresh cycle time: banks blocked for this long. */
    Tick tRFC = 280;
    /** @} */

    /** @name Energy (pJ) and power (mW) */
    /** @{ */
    /** One ACTIVATE+PRECHARGE pair (row open/close). */
    PicoJoule eActPre = 12000.0;
    /** One 64 B read burst (I/O + array column access). */
    PicoJoule eReadBurst = 8000.0;
    /** One 64 B write burst. */
    PicoJoule eWriteBurst = 8500.0;
    /**
     * One NDPO in-place element update: internal row-buffer accesses
     * for w/m/v plus the FP32 optimizer datapath (Sec. IV-B3). No bus
     * I/O energy -- that is the point of the NDP engine.
     */
    PicoJoule eNdpPerElement = 25.0;
    /** One all-bank REFRESH command. */
    PicoJoule eRefresh = 50000.0;
    /** Background/standby power of the device (mW). */
    double standbyPowerMw = 75.0;
    /** @} */

    /** Peak bandwidth of the 4/4/4/3 burst pattern, bytes/tick. */
    double
    peakBytesPerTick() const
    {
        return static_cast<double>(burstBytes) /
               (static_cast<double>(tBurst) - 0.25);
    }

    /** Default accelerator-class memory system (17.06 GB/s). */
    static DramConfig lpddr4_2133();

    /**
     * Scaled configuration: @p factor times the bandwidth via wider /
     * additional channels (used by Cambricon-Q-T at 4x = 68.24 GB/s
     * and Cambricon-Q-V at 16x = 272.96 GB/s). Modeled as @p factor
     * independent interleaved channels.
     */
    static DramConfig scaled(unsigned factor);

    /** Channel count for bandwidth-scaled configurations. */
    unsigned channels = 1;
};

} // namespace cq::dram

#endif // CQ_DRAM_DRAM_CONFIG_H
