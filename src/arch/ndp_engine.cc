/**
 * @file
 * Implementation of the NDP engine functional model.
 */

#include "arch/ndp_engine.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cq::arch {

void
NdpEngine::configure(const nn::NdpoConstants &constants)
{
    constants_ = constants;
    configured_ = true;
}

void
NdpEngine::weightGradientStore(std::vector<float> &weights,
                               std::vector<float> &m,
                               std::vector<float> &v,
                               const std::vector<float> &gradients)
{
    CQ_ASSERT_MSG(configured_,
                  "WGSTORE before CROSET configured the NDPO");
    CQ_TRACE_SCOPE("ndp.rmw");
    static obs::Counter &updates =
        obs::MetricRegistry::instance().counter("ndp.updates");
    static obs::Counter &elements =
        obs::MetricRegistry::instance().counter("ndp.elements");
    updates.inc();
    elements.add(static_cast<double>(gradients.size()));
    CQ_ASSERT_MSG(weights.size() == gradients.size() &&
                      m.size() == weights.size() &&
                      v.size() == weights.size(),
                  "w/m/v/g row sizes differ: w=%zu m=%zu v=%zu g=%zu",
                  weights.size(), m.size(), v.size(), gradients.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        constants_.apply(weights[i], m[i], v[i], gradients[i]);
    elements_ += weights.size();
}

} // namespace cq::arch
