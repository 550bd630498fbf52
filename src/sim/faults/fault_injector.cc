/**
 * @file
 * Implementation of the deterministic fault injector.
 */

#include "sim/faults/fault_injector.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace cq::sim {

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::MasterWeights: return "masterWeights";
      case FaultSite::Gradients:     return "gradients";
      case FaultSite::Accumulators:  return "accumulators";
    }
    return "?";
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), rng_(config.seed)
{
    CQ_ASSERT_MSG(config_.bitFlipsPerMbit >= 0.0,
                  "negative fault rate %f", config_.bitFlipsPerMbit);
    CQ_ASSERT_MSG(config_.burstLength >= 1,
                  "burstLength must be >= 1, got %u",
                  config_.burstLength);
}

bool
FaultInjector::targets(FaultSite site) const
{
    switch (site) {
      case FaultSite::MasterWeights: return config_.targetMasterWeights;
      case FaultSite::Gradients:     return config_.targetGradients;
      case FaultSite::Accumulators:  return config_.targetAccumulators;
    }
    return false;
}

namespace {

/**
 * Poisson sample with mean @p lambda from @p rng. Knuth's product of
 * uniforms for small means; for large means a rounded Gaussian keeps
 * the draw cheap (the tails do not matter for fault counts).
 */
std::size_t
poisson(Rng &rng, double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda > 64.0) {
        const double x = rng.gaussian(lambda, std::sqrt(lambda));
        return x <= 0.0 ? 0 : static_cast<std::size_t>(x + 0.5);
    }
    const double limit = std::exp(-lambda);
    std::size_t k = 0;
    double p = 1.0;
    do {
        ++k;
        p *= rng.uniform();
    } while (p > limit);
    return k - 1;
}

} // namespace

std::size_t
FaultInjector::corrupt(float *data, std::size_t n, FaultSite site)
{
    if (n == 0)
        return 0;
    const std::size_t total_bits = n * 32;
    const double lambda =
        config_.bitFlipsPerMbit * static_cast<double>(total_bits) / 1e6;
    const std::size_t events = poisson(rng_, lambda);

    std::size_t flipped = 0;
    for (std::size_t e = 0; e < events; ++e) {
        // The buffer is one contiguous bit string; a burst flips
        // consecutive bits and may straddle element boundaries, as a
        // multi-column DRAM fault would.
        const std::size_t start = rng_.below(total_bits);
        for (unsigned b = 0; b < config_.burstLength; ++b) {
            const std::size_t bit = start + b;
            if (bit >= total_bits)
                break;
            std::uint32_t word;
            std::memcpy(&word, &data[bit / 32], sizeof(word));
            word ^= 1u << (bit % 32);
            std::memcpy(&data[bit / 32], &word, sizeof(word));
            ++flipped;
        }
    }
    if (events > 0) {
        stats_.add("faults.events", static_cast<double>(events));
        stats_.add("faults.bitsFlipped", static_cast<double>(flipped));
        stats_.add(std::string("faults.site.") + faultSiteName(site),
                   static_cast<double>(events));
    }
    return flipped;
}

std::size_t
FaultInjector::corrupt(Tensor &t, FaultSite site)
{
    return corrupt(t.data(), t.numel(), site);
}

std::size_t
FaultInjector::corruptCoded(float *data, std::size_t n,
                            std::uint8_t *check, std::size_t num_words,
                            FaultSite site)
{
    if (n == 0 || num_words == 0)
        return 0;
    CQ_ASSERT_MSG(num_words == (n + 1) / 2,
                  "coded image mismatch: %zu floats need %zu words, "
                  "got %zu",
                  n, (n + 1) / 2, num_words);
    // 72 coded bits per word: bits 0..63 are the two float payloads,
    // bits 64..71 the SEC-DED check byte.
    const std::size_t bits_per_word = 72;
    const std::size_t total_bits = num_words * bits_per_word;
    const double lambda =
        config_.bitFlipsPerMbit * static_cast<double>(total_bits) / 1e6;
    const std::size_t events = poisson(rng_, lambda);

    std::size_t flipped = 0;
    std::size_t check_flipped = 0;
    for (std::size_t e = 0; e < events; ++e) {
        const std::size_t start = rng_.below(total_bits);
        for (unsigned b = 0; b < config_.burstLength; ++b) {
            const std::size_t bit = start + b;
            if (bit >= total_bits)
                break;
            const std::size_t word = bit / bits_per_word;
            const std::size_t off = bit % bits_per_word;
            if (off < 64) {
                const std::size_t idx = 2 * word + off / 32;
                if (idx >= n)
                    continue; // padding half of an odd tail word
                std::uint32_t v;
                std::memcpy(&v, &data[idx], sizeof(v));
                v ^= 1u << (off % 32);
                std::memcpy(&data[idx], &v, sizeof(v));
            } else {
                check[word] ^=
                    static_cast<std::uint8_t>(1u << (off - 64));
                ++check_flipped;
            }
            ++flipped;
        }
    }
    if (events > 0) {
        stats_.add("faults.events", static_cast<double>(events));
        stats_.add("faults.bitsFlipped", static_cast<double>(flipped));
        stats_.add("faults.checkBitsFlipped",
                   static_cast<double>(check_flipped));
        stats_.add(std::string("faults.site.") + faultSiteName(site),
                   static_cast<double>(events));
    }
    return flipped;
}

std::size_t
FaultInjector::maybeCorruptCoded(float *data, std::size_t n,
                                 std::uint8_t *check,
                                 std::size_t num_words, FaultSite site)
{
    if (!targets(site))
        return 0;
    return corruptCoded(data, n, check, num_words, site);
}

std::size_t
FaultInjector::maybeCorrupt(float *data, std::size_t n, FaultSite site)
{
    if (!targets(site))
        return 0;
    return corrupt(data, n, site);
}

} // namespace cq::sim
