/**
 * @file
 * Capped exponential backoff shared by every retry loop.
 */

#ifndef CQ_COMMON_BACKOFF_H
#define CQ_COMMON_BACKOFF_H

#include <cstdint>

namespace cq {

/**
 * The wait before retry @p k (0-based): min(cap, base * 2^k). It
 * saturates at @p cap for every k instead of overflowing, so it never
 * exceeds the cap and never decreases as k grows.
 */
constexpr std::uint64_t
cappedBackoff(std::uint64_t base, std::uint64_t cap, unsigned k)
{
    if (base == 0)
        return 0;
    // base << k exceeds cap (or overflows) exactly when base > cap >> k.
    if (k >= 64 || base > (cap >> k))
        return cap;
    return base << k;
}

} // namespace cq

#endif // CQ_COMMON_BACKOFF_H
