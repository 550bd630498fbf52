/**
 * @file
 * Near-Data-Processing engine (paper Sec. IV-B3, Fig. 10).
 *
 * The NDP engine sits beside the memory controller. Its NDPO datapath
 * evaluates the unified optimizer formula (Formula 1) on (w, m, v)
 * triples held in DRAM row buffers while the gradient g arrives over
 * the DDR bus via WGSTORE. CROSET loads the constant registers
 * (c1..c5, s1, s2).
 *
 * The functional model below operates on in-memory weight/state
 * arrays (the simulated DRAM contents) using the exact same
 * NdpoConstants::apply() datapath as the software optimizer, so tests
 * can require bit-identical results. The timing behaviour (3xACT /
 * WRITE stream / 3xPRE per row group) lives in
 * DramController::ndpUpdate. SEC-DED protection of the DRAM-resident
 * masters is modeled by the trainer (nn::EccPolicy), which
 * decode-corrects them on read and re-encodes them after the update.
 */

#ifndef CQ_ARCH_NDP_ENGINE_H
#define CQ_ARCH_NDP_ENGINE_H

#include <vector>

#include "common/types.h"
#include "nn/optimizer.h"

namespace cq::arch {

/** Functional model of the NDP engine's optimizer datapath. */
class NdpEngine
{
  public:
    NdpEngine() = default;

    /** CROSET: program the constant registers. */
    void configure(const nn::NdpoConstants &constants);

    /**
     * WGSTORE: stream @p gradients against the (weights, m, v) rows,
     * updating all three in place. Sizes must match.
     */
    void weightGradientStore(std::vector<float> &weights,
                             std::vector<float> &m,
                             std::vector<float> &v,
                             const std::vector<float> &gradients);

    /** Elements processed since construction (activity counter). */
    std::uint64_t elementsProcessed() const { return elements_; }

  private:
    nn::NdpoConstants constants_;
    bool configured_ = false;
    std::uint64_t elements_ = 0;
};

} // namespace cq::arch

#endif // CQ_ARCH_NDP_ENGINE_H
