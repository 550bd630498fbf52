/**
 * @file
 * Fixed-point number formats used by the quantization library and the
 * accelerator datapath model.
 *
 * Cambricon-Q's PE array operates on 4/8/12/16-bit signed fixed-point
 * operands (multiples of the 4-bit basic operator; Sec. VII-C of the
 * paper). A quantized value q represents the real value
 *     x ~= (q + offset) * scale
 * with symmetric formats using offset == 0. The *shiftable* format of
 * Zhong et al. adds one selector bit per element choosing between a
 * fine scale and a wide scale (scale * 2^shift); see ShiftableFormat.
 */

#ifndef CQ_QUANT_QFORMAT_H
#define CQ_QUANT_QFORMAT_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "tensor/tensor.h"

namespace cq::quant {

/** Signed symmetric fixed-point format. */
struct IntFormat
{
    /** Operand width in bits; one of 4, 8, 12, 16. */
    int bits = 8;
    /** Real value per LSB. */
    double scale = 1.0;

    /** Largest representable level, 2^(bits-1) - 1. */
    std::int32_t qmax() const { return (1 << (bits - 1)) - 1; }
    /** Smallest representable level, -(2^(bits-1) - 1) (symmetric). */
    std::int32_t qmin() const { return -qmax(); }

    /** Bytes occupied per element when packed (bits / 8, min 0.5). */
    double bytesPerElement() const { return bits / 8.0; }

    std::string toString() const;

    bool operator==(const IntFormat &other) const = default;
};

/**
 * Derive the format covering |x| <= maxAbs with the given bit width
 * (dynamic quantization: the scale is statistic-driven, never clipped).
 * A zero maxAbs yields a scale of 1 (all levels map to zero anyway).
 */
IntFormat formatForMaxAbs(double max_abs, int bits);

/**
 * Quantize one value: round(x / scale) to nearest-even, saturating to
 * the level range. std::rint rounds in the current mode, which the
 * repository never changes from the default round-to-nearest. A NaN
 * has no level and yields INT32_MIN, which an int16 level store
 * truncates to 0.
 */
inline std::int32_t
quantizeValue(double x, const IntFormat &fmt)
{
    const double level = std::rint(x / fmt.scale);
    if (std::isnan(level))
        return std::numeric_limits<std::int32_t>::min();
    const double clamped =
        std::clamp(level, static_cast<double>(fmt.qmin()),
                   static_cast<double>(fmt.qmax()));
    return static_cast<std::int32_t>(clamped);
}

/** Dequantize one level. */
inline double
dequantizeValue(std::int32_t q, const IntFormat &fmt)
{
    return static_cast<double>(q) * fmt.scale;
}

/**
 * Round-trip a tensor through the format ("fake quantization"): the
 * returned tensor holds dequantize(quantize(x)). This is what the
 * quantized-training loop injects to model quantization error.
 */
Tensor fakeQuantizeTensor(const Tensor &x, const IntFormat &fmt);

/**
 * Shiftable fixed-point format (Zhong et al. 2020 / BiScaled-FxP):
 * each element carries one extra bit choosing the fine scale (for the
 * dense center of the distribution) or the wide scale (for the long
 * tail), where wide = fine * 2^shift.
 */
struct ShiftableFormat
{
    int bits = 8;
    double fineScale = 1.0;
    /** Wide scale = fineScale * 2^shift. */
    int shift = 2;

    IntFormat fine() const { return {bits, fineScale}; }
    IntFormat wide() const
    {
        return {bits, fineScale * static_cast<double>(1 << shift)};
    }

    std::string toString() const;
};

/**
 * Build a shiftable format whose *wide* range covers maxAbs and whose
 * fine range covers maxAbs / 2^shift.
 */
ShiftableFormat shiftableForMaxAbs(double max_abs, int bits, int shift);

/**
 * Minifloat format (sign + exponent + mantissa bits), the data type of
 * Wang et al. 2018's FP8 training (1-5-2) and of reduced-precision
 * accumulations (FP16 = 1-5-10, FP24 = 1-8-15). Values are scaled by
 * 2^expBias like IEEE; subnormals are supported; no infinities/NaNs
 * (saturating arithmetic, as accelerator datapaths implement it).
 */
struct FloatFormat
{
    int expBits = 5;
    int mantBits = 2;
    /** Exponent bias (IEEE-style: 2^(expBits-1) - 1 by default). */
    int bias = 15;

    /** Largest finite magnitude. */
    double maxValue() const;
    /** Smallest positive normal magnitude. */
    double minNormal() const;

    /** FP8 1-5-2 (Wang et al. 2018). */
    static FloatFormat fp8();
    /** FP16 1-5-10 (weight update of Wang et al.). */
    static FloatFormat fp16();
    /** FP24 1-8-15 (weight update of Yang et al. 2020). */
    static FloatFormat fp24();

    std::string toString() const;
};

/** Round @p x to the nearest representable value (saturating). */
double roundToFloatFormat(double x, const FloatFormat &fmt);

/** Round-trip a tensor through the minifloat format. */
Tensor fakeQuantizeFloat(const Tensor &x, const FloatFormat &fmt);

/**
 * Round-trip with a power-of-two loss-scale chosen from the max-abs
 * statistic so the largest magnitude lands near the top of the
 * format's range (the per-tensor scaling FP8 training requires).
 */
Tensor fakeQuantizeFloatScaled(const Tensor &x, const FloatFormat &fmt,
                               double max_abs);

/**
 * Fake-quantize with per-element scale selection: each value uses the
 * scale (fine or wide) that minimizes its own rounding error, with
 * values beyond the fine range forced to the wide scale.
 */
Tensor fakeQuantizeShiftable(const Tensor &x, const ShiftableFormat &fmt);

} // namespace cq::quant

#endif // CQ_QUANT_QFORMAT_H
