/**
 * @file
 * Implementation of fixed-point formats.
 */

#include "quant/qformat.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace cq::quant {

std::string
IntFormat::toString() const
{
    std::ostringstream os;
    os << "INT" << bits << "(scale=" << scale << ")";
    return os.str();
}

IntFormat
formatForMaxAbs(double max_abs, int bits)
{
    CQ_ASSERT_MSG(bits == 4 || bits == 8 || bits == 12 || bits == 16,
                  "unsupported bit width %d", bits);
    IntFormat fmt;
    fmt.bits = bits;
    const double qmax = static_cast<double>(fmt.qmax());
    fmt.scale = max_abs > 0.0 ? max_abs / qmax : 1.0;
    return fmt;
}

Tensor
fakeQuantizeTensor(const Tensor &x, const IntFormat &fmt)
{
    Tensor out(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i)
        out[i] = static_cast<float>(
            dequantizeValue(quantizeValue(x[i], fmt), fmt));
    return out;
}

std::string
ShiftableFormat::toString() const
{
    std::ostringstream os;
    os << "SINT" << bits << "(fine=" << fineScale << ", shift=" << shift
       << ")";
    return os.str();
}

ShiftableFormat
shiftableForMaxAbs(double max_abs, int bits, int shift)
{
    CQ_ASSERT(shift > 0);
    ShiftableFormat fmt;
    fmt.bits = bits;
    fmt.shift = shift;
    const IntFormat wide = formatForMaxAbs(max_abs, bits);
    fmt.fineScale = wide.scale / static_cast<double>(1 << shift);
    return fmt;
}

double
FloatFormat::maxValue() const
{
    // Max exponent (all-ones reserved patterns are not used; the
    // datapath saturates), full mantissa.
    const int emax = (1 << expBits) - 1 - bias;
    const double mant =
        2.0 - std::pow(2.0, -mantBits);
    return mant * std::pow(2.0, emax);
}

double
FloatFormat::minNormal() const
{
    return std::pow(2.0, 1 - bias);
}

FloatFormat
FloatFormat::fp8()
{
    return FloatFormat{5, 2, 15};
}

FloatFormat
FloatFormat::fp16()
{
    return FloatFormat{5, 10, 15};
}

FloatFormat
FloatFormat::fp24()
{
    return FloatFormat{8, 15, 127};
}

std::string
FloatFormat::toString() const
{
    std::ostringstream os;
    os << "FP" << (1 + expBits + mantBits) << "(e" << expBits << "m"
       << mantBits << ")";
    return os.str();
}

double
roundToFloatFormat(double x, const FloatFormat &fmt)
{
    if (std::isnan(x))
        return x; // NaN propagates; only finite overflow saturates
    if (x == 0.0 || !std::isfinite(x))
        return std::isfinite(x) ? 0.0
                                : std::copysign(fmt.maxValue(), x);
    const double mag = std::fabs(x);
    const double max_val = fmt.maxValue();
    if (mag >= max_val)
        return std::copysign(max_val, x); // saturate
    int exp;
    std::frexp(mag, &exp); // mag = f * 2^exp, f in [0.5, 1)
    --exp;                 // now mag in [2^exp, 2^(exp+1))
    const int emin = 1 - fmt.bias;
    // Subnormal range: quantum fixed at the minimum exponent.
    const int q_exp = std::max(exp, emin) - fmt.mantBits;
    const double quantum = std::ldexp(1.0, q_exp);
    const double rounded = std::rint(mag / quantum) * quantum;
    return std::copysign(rounded, x);
}

Tensor
fakeQuantizeFloat(const Tensor &x, const FloatFormat &fmt)
{
    Tensor out(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i)
        out[i] = static_cast<float>(roundToFloatFormat(x[i], fmt));
    return out;
}

Tensor
fakeQuantizeFloatScaled(const Tensor &x, const FloatFormat &fmt,
                        double max_abs)
{
    // Choose the power-of-two loss scale mapping max|x| just under
    // the format's max value (the statistic-driven exponent offset of
    // FP8 training).
    double scale = 1.0;
    if (max_abs > 0.0) {
        const int shift = static_cast<int>(std::floor(
            std::log2(fmt.maxValue() / max_abs)));
        scale = std::ldexp(1.0, shift);
    }
    Tensor out(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i) {
        out[i] = static_cast<float>(
            roundToFloatFormat(x[i] * scale, fmt) / scale);
    }
    return out;
}

Tensor
fakeQuantizeShiftable(const Tensor &x, const ShiftableFormat &fmt)
{
    const IntFormat fine = fmt.fine();
    const IntFormat wide = fmt.wide();
    const double fine_range =
        static_cast<double>(fine.qmax()) * fine.scale;
    Tensor out(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i) {
        const double v = x[i];
        double best;
        if (std::fabs(v) > fine_range) {
            best = dequantizeValue(quantizeValue(v, wide), wide);
        } else {
            const double f = dequantizeValue(quantizeValue(v, fine), fine);
            const double w = dequantizeValue(quantizeValue(v, wide), wide);
            best = std::fabs(f - v) <= std::fabs(w - v) ? f : w;
        }
        out[i] = static_cast<float>(best);
    }
    return out;
}

} // namespace cq::quant
