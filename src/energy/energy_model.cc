/**
 * @file
 * Implementation of the energy/area model.
 */

#include "energy/energy_model.h"

#include <cmath>

#include "common/logging.h"

namespace cq::energy {

namespace op {

PicoJoule
dramAccess(int bits)
{
    // Mid-points of Table I's ranges, scaled linearly with width.
    switch (bits) {
      case 32: return 975.0;  // 0.65~1.3 nJ
      case 16: return 490.0;  // 0.33~0.65 nJ
      case 8:  return 245.0;  // 0.16~0.33 nJ
      case 4:  return 122.5;
      default:
        return 975.0 * static_cast<double>(bits) / 32.0;
    }
}

PicoJoule
intAdd(int bits)
{
    switch (bits) {
      case 4:  return kInt4Add;
      case 8:  return kInt8Add;
      case 12: return (kInt8Add + kInt16Add) / 2.0;
      case 16: return kInt16Add;
      // The INT12 MAC's accumulate (DESIGN.md §4.3).
      case 24: return (kInt16Add + kInt32Add) / 2.0;
      case 32: return kInt32Add;
      default: panic("intAdd: unsupported width %d", bits);
    }
}

PicoJoule
intMul(int bits)
{
    switch (bits) {
      case 4:  return kInt4Mul;
      case 8:  return kInt8Mul;
      case 12: return (kInt8Mul + kInt16Mul) / 2.0;
      case 16: return kInt16Mul;
      case 32: return kInt32Mul;
      default: panic("intMul: unsupported width %d", bits);
    }
}

} // namespace op

double
HwCharacteristics::coreAreaMm2() const
{
    double a = 0.0;
    for (const auto &m : coreModules)
        a += m.areaMm2;
    return a;
}

double
HwCharacteristics::corePowerMw() const
{
    double p = 0.0;
    for (const auto &m : coreModules)
        p += m.powerMw;
    return p;
}

double
HwCharacteristics::ndpAreaMm2() const
{
    double a = 0.0;
    for (const auto &m : ndpModules)
        a += m.areaMm2;
    return a;
}

double
HwCharacteristics::ndpPowerMw() const
{
    double p = 0.0;
    for (const auto &m : ndpModules)
        p += m.powerMw;
    return p;
}

HwCharacteristics
HwCharacteristics::cambriconQ()
{
    // Paper Table VII (45 nm).
    HwCharacteristics hw;
    hw.coreModules = {
        {"SQU", 0.42, 122.67},  {"QBC", 0.09, 1.69},
        {"FU", 2.11, 483.88},   {"NBin", 1.31, 6.28},
        {"SB", 1.52, 9.65},     {"NBout", 0.72, 4.43},
        {"Decode", 0.11, 50.04},{"IB", 0.36, 25.28},
        {"MC", 0.23, 83.00},    {"PHY", 1.83, 104.45},
    };
    hw.ndpModules = {
        {"SQU", 0.42, 122.67},
        {"NDPO", 0.07, 16.27},
    };
    return hw;
}

PicoJoule
sramAccessPjPerByte(std::size_t capacity_bytes)
{
    CQ_ASSERT(capacity_bytes > 0);
    // 45 nm SRAM read energy, CACTI-class fit: ~0.35 pJ/B at 4 KB
    // rising to ~1.5 pJ/B at 512 KB, log-linear in capacity.
    const double kb = static_cast<double>(capacity_bytes) / 1024.0;
    const double log_kb = std::log2(std::max(kb, 1.0));
    const double pj = 0.35 + 0.165 * std::max(0.0, log_kb - 2.0);
    return pj;
}

EnergyBreakdown
buildBreakdown(const StatGroup &activity, PicoJoule dram_dynamic_pj,
               PicoJoule dram_standby_pj)
{
    EnergyBreakdown out;

    // PE array: one MAC = one mul + one accumulate-add at the operand
    // width (the adder tree runs at wider width; folded into the add
    // cost by using the next width up).
    for (int bits : {4, 8, 12, 16}) {
        const std::string key =
            "pe.macs.int" + std::to_string(bits);
        const double macs = activity.get(key);
        if (macs > 0.0) {
            out.accPj += macs * (op::intMul(bits) +
                                 op::intAdd(std::min(bits * 2, 32)));
        }
    }
    // Dequantizers on accumulator outputs (FP32 mul-class op each).
    out.accPj += activity.get("pe.dequants") * op::kFp32Mul;
    // SFU scalar ops (FP32-class).
    out.accPj += activity.get("sfu.ops") *
                 (op::kFp32Add + op::kFp32Mul) * 0.5;
    // SQU: statistic compare + quant multiply per element per way.
    out.accPj += activity.get("squ.elements") *
                 (op::kInt16Add + op::kFp32Mul * 0.5);
    // NDPO: FP32 optimizer datapath (2 mul + 2 add + sqrt-class).
    out.accPj += activity.get("ndpo.elements") *
                 (2.0 * op::kFp32Mul + 2.0 * op::kFp32Add + 4.0);
    // QBC re-quantization: dequant + requant per word of the line.
    out.accPj += activity.get("qbc.requants") * 32.0 *
                 (op::kInt16Add + op::kInt16Mul);

    // Buffers: per-byte access energy by capacity, counters of the
    // form buf.<name>.readBytes / writeBytes / capacity.
    for (const auto &kv : activity.all()) {
        const std::string &key = kv.first;
        const auto pos = key.rfind(".capacity");
        if (pos == std::string::npos ||
            key.compare(0, 4, "buf.") != 0) {
            continue;
        }
        const std::string base = key.substr(0, pos);
        const std::size_t cap = static_cast<std::size_t>(kv.second);
        if (cap == 0)
            continue;
        const PicoJoule per_byte = sramAccessPjPerByte(cap);
        out.bufPj += per_byte * (activity.get(base + ".readBytes") +
                                 activity.get(base + ".writeBytes"));
    }

    out.ddrDynamicPj = dram_dynamic_pj;
    out.ddrStandbyPj = dram_standby_pj;
    return out;
}

} // namespace cq::energy
