/**
 * @file
 * DRAM device/controller configuration.
 *
 * The memory is LPDDR4-2133 on a x64 interface: 2133 MT/s * 8 B =
 * 17.06 GB/s peak, the bandwidth the paper attaches to both
 * Cambricon-Q and the TPU baseline. The device (organization, timings,
 * energy) is a set of constants; a configuration only chooses how many
 * such channels run side by side, and the refresh interval. Timing
 * parameters are expressed in controller ticks; the whole simulation
 * runs in the 1 GHz accelerator clock domain, so one tick = 1 ns.
 */

#ifndef CQ_DRAM_DRAM_CONFIG_H
#define CQ_DRAM_DRAM_CONFIG_H

#include <cstddef>

#include "common/types.h"

namespace cq::dram {

/** @name Organization */
/** @{ */
inline constexpr std::size_t kNumBanks = 8;
/** Bytes per row (row buffer size per bank). */
inline constexpr Bytes kRowBytes = 2048;
/** Bytes transferred per column burst (BL16 on x64 -> 64 B is split
 *  into one bus burst here). */
inline constexpr Bytes kBurstBytes = 64;
/**
 * Addressable bytes per channel. Transfers beyond
 * kCapacityBytes * channels are a caller bug (an unmapped row) and
 * panic instead of silently wrapping the row index. It covers the
 * compiler's region-partitioned address space (16 regions x 4 GiB,
 * top nibble selects the region -- see src/compiler/codegen.cc), not
 * a physical device capacity.
 */
inline constexpr Bytes kCapacityBytes = 16ull << 32;
/** @} */

/** @name Timings (ticks @ 1 GHz, i.e. ns) */
/** @{ */
inline constexpr Tick kTRCD = 14; ///< ACTIVATE -> column command
inline constexpr Tick kTRP = 14;  ///< PRECHARGE -> ACTIVATE
inline constexpr Tick kTCAS = 14; ///< column command -> first data
inline constexpr Tick kTRAS = 33; ///< ACTIVATE -> PRECHARGE
/**
 * Data-bus occupancy of one 64 B burst. 64 B at 17.06 GB/s is
 * 3.75 ns; we model it as alternating 4/4/4/3 tick bursts (every
 * 4th burst one tick shorter) to keep integer ticks while hitting
 * the exact average.
 */
inline constexpr Tick kTBurst = 4;
/** Command-bus serialization between row commands. */
inline constexpr Tick kTCmd = 1;
/** Refresh cycle time: banks blocked for this long. */
inline constexpr Tick kTRFC = 280;
/** @} */

/** Peak bandwidth of the 4/4/4/3 burst pattern, bytes/tick. */
inline constexpr double kPeakBytesPerTick =
    static_cast<double>(kBurstBytes) /
    (static_cast<double>(kTBurst) - 0.25);

/** @name Energy (pJ) and power (mW) */
/** @{ */
/** One ACTIVATE+PRECHARGE pair (row open/close). */
inline constexpr PicoJoule kEActPre = 12000.0;
/** One 64 B read burst (I/O + array column access). */
inline constexpr PicoJoule kEReadBurst = 8000.0;
/** One 64 B write burst. */
inline constexpr PicoJoule kEWriteBurst = 8500.0;
/**
 * One NDPO in-place element update: internal row-buffer accesses
 * for w/m/v plus the FP32 optimizer datapath (Sec. IV-B3). No bus
 * I/O energy -- that is the point of the NDP engine.
 */
inline constexpr PicoJoule kENdpPerElement = 25.0;
/** One all-bank REFRESH command. */
inline constexpr PicoJoule kERefresh = 50000.0;
/** Background/standby power of the device (mW). */
inline constexpr double kStandbyPowerMw = 75.0;
/** @} */

/** The settings of a memory system built from the device above. */
struct DramConfig
{
    /**
     * Average refresh interval (all-bank refresh). No preset changes
     * it; tests shorten it to put refreshes inside row runs, and set
     * it past the end of a run to take refresh out.
     */
    Tick tREFI = 3900;

    /** Channel count for bandwidth-scaled configurations. */
    unsigned channels = 1;

    /** Default accelerator-class memory system (17.06 GB/s). */
    static DramConfig lpddr4_2133();

    /**
     * Scaled configuration: @p factor times the bandwidth via wider /
     * additional channels (used by Cambricon-Q-T at 4x = 68.24 GB/s
     * and Cambricon-Q-V at 16x = 272.96 GB/s). Modeled as @p factor
     * independent interleaved channels.
     */
    static DramConfig scaled(unsigned factor);
};

} // namespace cq::dram

#endif // CQ_DRAM_DRAM_CONFIG_H
