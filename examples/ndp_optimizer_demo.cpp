/**
 * @file
 * NDP engine demo: configure the NDPO for each optimizer of the
 * paper's Table IV, run in-place weight updates against simulated
 * DRAM rows, verify bit-exactness against the software optimizer,
 * and show the DDR-bus traffic / latency advantage over an explicit
 * (non-NDP) update. Exits 1 if any optimizer's NDP update is not
 * bit-exact.
 */

#include <cstdio>
#include <vector>

#include "arch/ndp_engine.h"
#include "common/rng.h"
#include "dram/dram_controller.h"
#include "nn/optimizer.h"

using namespace cq;

int
main()
{
    const std::size_t weights = 1 << 20; // 1M-weight layer

    std::printf("NDP engine demo: %zu weights per layer\n\n", weights);
    std::printf("  %-8s | functional check | bus bytes (NDP vs "
                "explicit) | update time\n",
                "optim");

    bool allExact = true;
    for (auto kind :
         {nn::OptimizerKind::SGD, nn::OptimizerKind::AdaGrad,
          nn::OptimizerKind::RMSProp, nn::OptimizerKind::Adam}) {
        nn::OptimizerConfig ocfg;
        ocfg.kind = kind;
        ocfg.lr = 0.01;

        // ---- functional: NDPO vs software optimizer ----
        Rng rng(1);
        nn::Param param("w", {4096});
        param.value.fillGaussian(rng, 0.0f, 0.5f);
        for (std::size_t i = 0; i < param.grad.numel(); ++i)
            param.grad[i] = static_cast<float>(rng.gaussian(0.0, 0.1));

        std::vector<float> w(param.value.vec());
        std::vector<float> m(w.size(), 0.0f), v(w.size(), 0.0f);
        std::vector<float> g(param.grad.vec());

        nn::Optimizer sw(ocfg);
        sw.attach({&param});
        sw.step();

        arch::NdpEngine ndp;
        ndp.configure(nn::NdpoConstants::forStep(ocfg, 1)); // CROSET
        ndp.weightGradientStore(w, m, v, g);                // WGSTORE

        bool exact = true;
        for (std::size_t i = 0; i < w.size(); ++i)
            exact = exact && w[i] == param.value[i];
        allExact = allExact && exact;

        // ---- timing/traffic: NDP vs explicit update ----
        dram::DramController ndp_mem(dram::DramConfig::lpddr4_2133());
        const Tick t_ndp = ndp_mem.ndpUpdate(0, 0, weights, 4);

        dram::DramController exp_mem(dram::DramConfig::lpddr4_2133());
        const unsigned state =
            kind == nn::OptimizerKind::SGD
                ? 0
                : (kind == nn::OptimizerKind::Adam ? 2 : 1);
        Tick t = 0;
        t = exp_mem.transfer(t, 0x00000000, weights * 4, false); // dW
        t = exp_mem.transfer(t, 0x10000000, weights * 4, false); // w
        for (unsigned s = 0; s < state; ++s)
            t = exp_mem.transfer(t, 0x20000000 + s * 0x10000000,
                                 weights * 4, false);
        t = exp_mem.transfer(t, 0x10000000, weights * 4, true);
        for (unsigned s = 0; s < state; ++s)
            t = exp_mem.transfer(t, 0x20000000 + s * 0x10000000,
                                 weights * 4, true);

        std::printf("  %-8s | %-16s | %6.1f MB vs %6.1f MB       | "
                    "%5.2f ms vs %5.2f ms\n",
                    nn::optimizerKindName(kind),
                    exact ? "bit-exact" : "MISMATCH",
                    ndp_mem.busBytes() / 1e6, exp_mem.busBytes() / 1e6,
                    t_ndp / 1e6, t / 1e6);
    }
    return allExact ? 0 : 1;
}
