/**
 * @file
 * Implementation of the PE-array model.
 */

#include "arch/pe_array.h"

#include <algorithm>

#include "common/logging.h"

namespace cq::arch {

namespace {

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

PeArray::PeArray(const CambriconQConfig &config)
    : rows_(config.peRows),
      cols_(config.peCols),
      baseBits_(config.peBits),
      meshRows_(config.meshRows),
      meshCols_(config.meshCols),
      systolic_(config.systolicDataflow)
{
    CQ_ASSERT(rows_ > 0 && cols_ > 0 && baseBits_ > 0);
}

Tick
PeArray::mmCycles(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                  int bits_a, int bits_b) const
{
    CQ_ASSERT(m > 0 && n > 0 && k > 0);
    CQ_ASSERT(bits_a % baseBits_ == 0 && bits_b % baseBits_ == 0);
    // Mesh split: the compiler distributes a GEMM over the array mesh
    // Tangram-style, splitting m (batch parallelism, rows sharing
    // NBin) and n (weight parallelism, columns with private SBs) in
    // whichever combination keeps the arrays busiest. Each array then
    // sees the worst slice.
    const unsigned arrays = meshRows_ * meshCols_;
    std::uint64_t m_local = m, n_local = n;
    if (arrays > 1) {
        std::uint64_t best = ~std::uint64_t(0);
        for (unsigned sm = 1; sm <= arrays; ++sm) {
            if (arrays % sm)
                continue;
            const unsigned sn = arrays / sm;
            const std::uint64_t ml = ceilDiv(m, sm);
            const std::uint64_t nl = ceilDiv(n, sn);
            const std::uint64_t cyc =
                ceilDiv(k, cols_) * ceilDiv(nl, rows_) * ml;
            if (cyc < best) {
                best = cyc;
                m_local = ml;
                n_local = nl;
            }
        }
    }

    const std::uint64_t passes =
        static_cast<std::uint64_t>(bits_a / baseBits_) *
        static_cast<std::uint64_t>(bits_b / baseBits_);
    if (systolic_) {
        // SCALE-Sim weight-stationary formula: each (k x n) weight
        // tile is pinned on the R x C array (R = reduction rows,
        // C = output columns); m input rows stream through with
        // (R + C - 1) fill/drain per tile.
        const std::uint64_t tiles =
            ceilDiv(k, cols_) * ceilDiv(n_local, rows_);
        const std::uint64_t per_tile =
            m_local * passes + cols_ + rows_ - 1;
        return static_cast<Tick>(tiles * per_tile) + kPeFill;
    }
    // Per output row: ceil(k/M) reduction steps; the N accumulators
    // cover ceil(n/N) output groups.
    const std::uint64_t steps = ceilDiv(k, cols_) *
                                ceilDiv(n_local, rows_) * m_local *
                                passes;
    return static_cast<Tick>(steps) + kPeFill;
}

double
PeArray::utilization(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                     int bits_a, int bits_b) const
{
    const double ideal =
        static_cast<double>(macs(m, n, k)) *
        static_cast<double>((bits_a / baseBits_) *
                            (bits_b / baseBits_)) /
        (static_cast<double>(rows_ * cols_) *
         static_cast<double>(meshRows_) *
         static_cast<double>(meshCols_));
    return ideal /
           static_cast<double>(mmCycles(m, n, k, bits_a, bits_b));
}

Tick
PeArray::vectorCycles(std::uint64_t elems) const
{
    // Vector ops use one PE row worth of lanes.
    return ceilDiv(elems, rows_) + kPeFill / 2;
}

std::int64_t
PeArray::bitSerialMultiply(std::int32_t a, int bits_a, std::int32_t b,
                           int bits_b)
{
    CQ_ASSERT(bits_a % 4 == 0 && bits_b % 4 == 0);
    CQ_ASSERT(bits_a <= 32 && bits_b <= 32);
    // Sign-magnitude decomposition: the PEs multiply 4-bit unsigned
    // nibbles; signs are applied at the shift-adder.
    const bool neg = (a < 0) != (b < 0);
    std::uint64_t ua = static_cast<std::uint64_t>(a < 0 ? -(std::int64_t)a
                                                        : a);
    std::uint64_t ub = static_cast<std::uint64_t>(b < 0 ? -(std::int64_t)b
                                                        : b);
    CQ_ASSERT(ua < (1ull << bits_a) && ub < (1ull << bits_b));

    std::int64_t acc = 0;
    const int na = bits_a / 4, nb = bits_b / 4;
    for (int i = 0; i < na; ++i) {
        const std::uint64_t nib_a = (ua >> (4 * i)) & 0xF;
        for (int j = 0; j < nb; ++j) {
            const std::uint64_t nib_b = (ub >> (4 * j)) & 0xF;
            // 4b x 4b -> 8b product, shifted into place by the
            // shift-adder.
            const std::uint64_t prod = nib_a * nib_b;
            acc += static_cast<std::int64_t>(prod) << (4 * (i + j));
        }
    }
    return neg ? -acc : acc;
}

std::int64_t
PeArray::dotProduct(const std::vector<std::int32_t> &a, int bits_a,
                    const std::vector<std::int32_t> &b, int bits_b)
{
    CQ_ASSERT(a.size() == b.size());
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += bitSerialMultiply(a[i], bits_a, b[i], bits_b);
    // The hardware accumulator is 38 bits wide; flag saturation as a
    // model bug (the compiler must size tiles so this cannot happen).
    CQ_ASSERT_MSG(acc < (1ll << 37) && acc > -(1ll << 37),
                  "38-bit accumulator overflow: %lld",
                  static_cast<long long>(acc));
    return acc;
}

float
PeArray::dequantize(std::int64_t acc, double scale_a, double scale_b)
{
    return static_cast<float>(static_cast<double>(acc) * scale_a *
                              scale_b);
}

} // namespace cq::arch
