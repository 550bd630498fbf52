/**
 * @file
 * Microbenchmarks of the software kernels the repository is built
 * on, re-hosted from the former google-benchmark main onto the
 * harness's own repeat/clock machinery: streaming statistics, LDQ /
 * E2BQM quantization, GEMM with a thread-scaling sweep, a conv
 * layer's im2col/col2im/ReLU, the bit-serial PE datapath, the NDPO
 * update and the DRAM controller's transfer hot path.
 *
 * Every clock-derived metric is recorded with the timing flag (so
 * determinism checks skip it) and the thread sweeps record wall AND
 * process-CPU milliseconds side by side: on a 1-core CI box the wall
 * ratio is flat while the CPU ratio shows the true parallel work,
 * which keeps the reported "speedup" honest.
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "arch/ndp_engine.h"
#include "arch/pe_array.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "dram/dram_controller.h"
#include "harness/workload.h"
#include "nn/activation.h"
#include "nn/optimizer.h"
#include "obs/cpu_time.h"
#include "quant/block_quant.h"
#include "quant/e2bqm.h"
#include "quant/policy.h"
#include "quant/statistics.h"
#include "tensor/tensor_ops.h"
#include "workloads/all.h"

namespace cq::bench::workloads {

namespace {

Tensor
gradientTensor(std::size_t n)
{
    Rng rng(7);
    Tensor x({n});
    x.fillGaussian(rng, 0.0f, 0.01f);
    return x;
}

/** Run fn() `iters` times, return the wall/CPU interval. */
obs::TimeInterval
timeIt(int iters, const std::function<void()> &fn)
{
    const obs::TimeSample begin = obs::sampleClocks();
    for (int i = 0; i < iters; ++i)
        fn();
    return obs::elapsedSince(begin);
}

/** Record wall + process-CPU ms under <name>_wall_ms/_cpu_ms. */
void
recordInterval(WorkloadResult &out, const std::string &name,
               const obs::TimeInterval &t)
{
    out.setTiming(name + "_wall_ms", t.wallMs);
    out.setTiming(name + "_cpu_ms", t.processCpuMs);
}

// ---------------- quantization kernels ----------------

/**
 * fakeQuantizeHqt as the train-cnn-hqt trainer runs it on the neuron
 * gradients of one step: Zhang'20 adaptive precision (INT8/INT16,
 * rectilinear arbiter) over blocks of 256 at pool width 1. 194,176
 * elements are one batch-32 step's layer-output gradients. Records
 * the element rate of the fastest of 20 calls (a call takes 1-5 ms,
 * so quick mode keeps all 20).
 */
void
recordTrainerHqt(WorkloadResult &out)
{
    constexpr std::size_t elems = 194176;
    constexpr int iters = 20;
    const Tensor g = gradientTensor(elems);
    const quant::AlgorithmConfig algo =
        quant::AlgorithmConfig::zhang2020Hqt(256);
    ThreadPool::instance().setNumThreads(1);
    double best = 0.0;
    for (int i = 0; i < iters; ++i) {
        const double ms = timeIt(1, [&] {
            Tensor q = quant::fakeQuantizeHqt(g, algo.blockSize,
                                              algo.neuronGradients.e2bqm);
        }).wallMs;
        best = i == 0 ? ms : std::min(best, ms);
    }
    ThreadPool::instance().setNumThreads(0);
    out.setTiming("hqt_zhang_grad_melems_per_s",
                  static_cast<double>(elems) / (best * 1e-3) * 1e-6,
                  "Melem/s");
}

WorkloadResult
runQuant(const WorkloadContext &ctx)
{
    WorkloadResult out;
    const int iters = ctx.quick ? 4 : 16;

    {
        const Tensor x = gradientTensor(1 << 16);
        double sink = 0.0;
        const auto t = timeIt(iters, [&] {
            quant::MaxAbsStat stat;
            for (std::size_t i = 0; i < x.numel(); ++i)
                stat.observe(x[i]);
            sink += stat.value();
        });
        recordInterval(out, "maxabs_64k", t);
        out.set("maxabs_value", sink / iters);
    }
    {
        const Tensor x = gradientTensor(1 << 16);
        std::size_t sink = 0;
        const auto t = timeIt(iters, [&] {
            sink += quant::ldqQuantize(x, 1024, 8).storageBytes();
        });
        recordInterval(out, "ldq_quantize_64k_k1024", t);
        out.set("ldq_storage_bytes",
                static_cast<double>(sink / iters), "B");
    }
    {
        const Tensor x = gradientTensor(4096);
        const auto cfg = quant::E2bqmConfig::clippingLadder(8);
        int sink = 0;
        const auto t = timeIt(iters, [&] {
            sink += quant::e2bqmQuantize(x, cfg).selected;
        });
        recordInterval(out, "e2bqm_4way_4k", t);
        out.set("e2bqm_selected_sum", static_cast<double>(sink));
    }

    // HQT thread-scaling sweep over the shared pool.
    const std::vector<unsigned> widths =
        ctx.quick ? std::vector<unsigned>{1, 2}
                  : std::vector<unsigned>{1, 2, 4, 8};
    const Tensor x = gradientTensor(1 << 18);
    const auto cfg = quant::E2bqmConfig::clippingLadder(8);
    for (unsigned w : widths) {
        ThreadPool::instance().setNumThreads(w);
        const auto t = timeIt(iters, [&] {
            Tensor q = quant::fakeQuantizeHqt(x, 1024, cfg);
        });
        recordInterval(out, "hqt_threads" + std::to_string(w), t);
    }
    ThreadPool::instance().setNumThreads(0);
    recordTrainerHqt(out);
    out.notes = "HQT sweep: wall vs CPU ms per pool width over a "
                "256k-element fake-quantize; hqt_zhang_grad is one "
                "trainer step's neuron gradients at width 1 (PERF-10 "
                "gates it)";
    return out;
}

// ---------------- GEMM ----------------

/**
 * The three GEMMs of the conv3 layer of the train-cnn-hqt trainer
 * (cols 1152 x 144 with ReLU-like zeros, weights 144 x 16, output
 * gradient 1152 x 16) at pool width 1: forward matmul(cols, w), dW =
 * matmulTransA(cols, dy) and dX = matmulTransB(dy, w). Records each
 * variant's GFLOP/s over its fastest of @p iters calls, and the
 * slowest variant's as gemm_conv3_min_gflops.
 */
void
recordTrainerGemms(WorkloadResult &out, int iters)
{
    constexpr std::size_t rows = 1152, patch = 144, outCh = 16;
    Rng rng(3);
    Tensor cols({rows, patch}), w({patch, outCh}), dy({rows, outCh});
    for (std::size_t i = 0; i < cols.numel(); ++i)
        cols[i] = rng.below(2) == 0 ? 0.0f
                                    : static_cast<float>(rng.gaussian());
    w.fillGaussian(rng, 0.0f, 0.1f);
    dy.fillGaussian(rng, 0.0f, 0.01f);
    const double flops = 2.0 * rows * patch * outCh;
    ThreadPool::instance().setNumThreads(1);
    double slowest = 0.0;
    const std::pair<const char *, std::function<Tensor()>> variants[] = {
        {"matmul", [&] { return matmul(cols, w); }},
        {"transA", [&] { return matmulTransA(cols, dy); }},
        {"transB", [&] { return matmulTransB(dy, w); }}};
    for (const auto &[name, gemm] : variants) {
        double best = 0.0;
        for (int i = 0; i < iters; ++i) {
            const double ms = timeIt(1, [&] { gemm(); }).wallMs;
            best = i == 0 ? ms : std::min(best, ms);
        }
        const double gflops = flops / (best * 1e-3) * 1e-9;
        out.setTiming(std::string("gemm_conv3_") + name + "_gflops", gflops,
                      "GFLOP/s");
        slowest = slowest == 0.0 ? gflops : std::min(slowest, gflops);
    }
    ThreadPool::instance().setNumThreads(0);
    out.setTiming("gemm_conv3_min_gflops", slowest, "GFLOP/s");
}

/**
 * The non-GEMM kernels of the same conv3 layer at pool width 1:
 * im2col of its 32 x 16 x 6 x 6 input, col2im of its 1152 x 144
 * column gradient, and its ReLU layer's forward (on a half-negative
 * pre-activation) and backward, 18,432 elements each. Records each
 * kernel's fastest of @p iters calls in microseconds, and their sum
 * as conv3_nongemm_us.
 */
void
recordConvLayerKernels(WorkloadResult &out, int iters)
{
    const Conv2dGeometry geo{16, 16, 3, 3, 1, 1};
    const Shape shape{32, 16, 6, 6};
    Rng rng(4);
    Tensor x(shape), pre(shape), dy(shape);
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = rng.below(2) == 0 ? 0.0f
                                 : static_cast<float>(rng.uniform());
    pre.fillGaussian(rng, 0.0f, 1.0f);
    dy.fillGaussian(rng, 0.0f, 0.01f);
    Tensor dcols({1152, 144});
    dcols.fillGaussian(rng, 0.0f, 0.01f);
    nn::Activation relu("relu3", nn::ActKind::ReLU);
    ThreadPool::instance().setNumThreads(1);
    double total = 0.0;
    // relu_fwd runs before relu_bwd, which reads its cache.
    const std::pair<const char *, std::function<Tensor()>> kernels[] = {
        {"im2col", [&] { return im2col(x, geo); }},
        {"col2im", [&] { return col2im(dcols, shape, geo); }},
        {"relu_fwd", [&] { return relu.forward(pre); }},
        {"relu_bwd", [&] { return relu.backward(dy); }}};
    for (const auto &[name, kernel] : kernels) {
        double best = 0.0;
        for (int i = 0; i < iters; ++i) {
            const double ms = timeIt(1, [&] { kernel(); }).wallMs;
            best = i == 0 ? ms : std::min(best, ms);
        }
        out.setTiming(std::string("conv3_") + name + "_us", best * 1e3,
                      "us");
        total += best * 1e3;
    }
    ThreadPool::instance().setNumThreads(0);
    out.setTiming("conv3_nongemm_us", total, "us");
}

WorkloadResult
runGemm(const WorkloadContext &ctx)
{
    WorkloadResult out;
    const int iters = ctx.quick ? 2 : 8;

    for (std::size_t n : {std::size_t(64), std::size_t(128),
                          std::size_t(256)}) {
        if (ctx.quick && n == 256)
            continue;
        Rng rng(3);
        Tensor a({n, n}), b({n, n});
        a.fillGaussian(rng, 0.0f, 1.0f);
        b.fillGaussian(rng, 0.0f, 1.0f);
        float sink = 0.0f;
        const auto t = timeIt(iters, [&] {
            Tensor c = matmul(a, b);
            sink += c[0];
        });
        recordInterval(out, "gemm_n" + std::to_string(n), t);
    }

    // Thread-scaling sweep: wall AND CPU ms at each pool width. The
    // wall ratio is the delivered speedup; the CPU ratio exposes
    // oversubscription (CPU ms growing while wall ms stalls).
    const std::size_t n = ctx.quick ? 256 : 512;
    const std::vector<unsigned> widths =
        ctx.quick ? std::vector<unsigned>{1, 2}
                  : std::vector<unsigned>{1, 2, 4, 8};
    Rng rng(3);
    Tensor a({n, n}), b({n, n});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    double wall1 = 0.0;
    for (unsigned w : widths) {
        ThreadPool::instance().setNumThreads(w);
        float sink = 0.0f;
        const auto t = timeIt(ctx.quick ? 2 : 3, [&] {
            Tensor c = matmul(a, b);
            sink += c[0];
        });
        const std::string tag =
            "gemm_scaling_threads" + std::to_string(w);
        recordInterval(out, tag, t);
        if (w == 1)
            wall1 = t.wallMs;
        else
            out.setTiming(tag + "_speedup", wall1 / t.wallMs, "x");
    }
    ThreadPool::instance().setNumThreads(0);
    out.set("gemm_scaling_n", static_cast<double>(n));
    recordTrainerGemms(out, ctx.quick ? 5 : 20);
    recordConvLayerKernels(out, 50);
    out.notes = "matmul over the shared pool; speedup is wall-clock "
                "vs the 1-thread width; gemm_conv3 rows are the "
                "trainer's three GEMMs at width 1 (PERF-09 gates the "
                "slowest), conv3_*_us its im2col, col2im and ReLU "
                "forward/backward (PERF-11 gates the ReLU forward)";
    return out;
}

// ---------------- architecture-model hot paths ----------------

/**
 * Host ns per stripe of one DRAM transfer() call that moves 128
 * stripes of 126 B on one channel, at a 256 B and at a 2,400 B stride,
 * the fastest of 1000 calls each at pool width 1. At 256 B (one of
 * sim-cnn's most common SLOAD shapes) eight stripes share each row
 * window; at 2,400 B each stripe has a window of its own. Each stride
 * has its own controller, whose calls start when the one before
 * finished, 128 strides further on, and the two strides take turns
 * call by call, so a slow stretch of the host reaches both. A single
 * call is timed on the monotonic clock alone: the CPU-time clocks of
 * timeIt() would cost more than the call.
 */
std::pair<double, double>
stripeSetNs()
{
    constexpr std::uint64_t stripes = 128;
    constexpr Bytes strides[2] = {256, 2400};
    ThreadPool::instance().setNumThreads(1);
    std::vector<dram::DramController> ctrls(
        2, dram::DramController(dram::DramConfig::lpddr4_2133()));
    Tick t[2] = {0, 0};
    Addr addr[2] = {0, 0};
    double best[2] = {0.0, 0.0};
    for (int i = 0; i < 1000; ++i) {
        for (int s = 0; s < 2; ++s) {
            const auto t0 = std::chrono::steady_clock::now();
            t[s] = ctrls[s].transfer(t[s], addr[s], 126, false, stripes,
                                     strides[s]);
            const double ns = std::chrono::duration<double, std::nano>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
            best[s] = i == 0 ? ns : std::min(best[s], ns);
            addr[s] += stripes * strides[s];
        }
    }
    ThreadPool::instance().setNumThreads(0);
    return {best[0] / stripes, best[1] / stripes};
}

WorkloadResult
runArch(const WorkloadContext &ctx)
{
    WorkloadResult out;
    const int iters = ctx.quick ? 8 : 64;

    {
        Rng rng(5);
        std::vector<std::int32_t> a(4096), b(4096);
        for (std::size_t i = 0; i < a.size(); ++i) {
            a[i] = static_cast<std::int32_t>(rng.below(255)) - 127;
            b[i] = static_cast<std::int32_t>(rng.below(255)) - 127;
        }
        std::int64_t sink = 0;
        const auto t = timeIt(iters, [&] {
            sink += arch::PeArray::dotProduct(a, 8, b, 8);
        });
        recordInterval(out, "bitserial_dot_4k", t);
        out.set("bitserial_dot_value",
                static_cast<double>(sink / iters));
    }
    {
        nn::OptimizerConfig cfg;
        cfg.kind = nn::OptimizerKind::Adam;
        arch::NdpEngine ndp;
        ndp.configure(nn::NdpoConstants::fromConfig(cfg));
        std::vector<float> w(1 << 16, 0.5f), m(1 << 16, 0.0f),
            v(1 << 16, 0.0f), g(1 << 16, 0.01f);
        const auto t = timeIt(iters, [&] {
            ndp.weightGradientStore(w, m, v, g);
        });
        recordInterval(out, "ndpo_update_64k", t);
        out.set("ndpo_final_w0", static_cast<double>(w[0]));
    }
    {
        dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
        Tick t0 = 0;
        Addr addr = 0;
        const auto t = timeIt(iters * 8, [&] {
            t0 = ctrl.transfer(t0, addr, 1 << 16, false);
            addr += 1 << 16;
        });
        recordInterval(out, "dram_transfer_64k", t);
        out.set("dram_final_tick", static_cast<double>(t0));
    }
    {
        dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
        Tick t0 = 0;
        const auto t = timeIt(iters * 8, [&] {
            t0 = ctrl.ndpUpdate(t0, 0, 1 << 14, 4);
        });
        recordInterval(out, "dram_ndp_update_16k", t);
        out.set("dram_ndp_final_tick", static_cast<double>(t0));
    }
    // The same call at two strides on the same host and clock: their
    // ratio cancels the host's speed, which the ns figures carry.
    const auto [set_ns, wide_ns] = stripeSetNs();
    out.setTiming("dram_stripe_set_ns", set_ns, "ns");
    out.setTiming("dram_stripe_wide_ns", wide_ns, "ns");
    out.setTiming("dram_stripe_set_ratio", set_ns / wide_ns, "x");
    out.notes = "bit-serial PE dot product, NDPO update and DRAM "
                "controller hot paths; dram_stripe_*_ns are host ns per "
                "stripe of one 128-stripe transfer, and PERF-12 gates "
                "dram_stripe_set_ratio, the 256 B stride's over the "
                "2,400 B stride's";
    return out;
}

} // namespace

void
registerKernels()
{
    Registry::instance().add(
        {"kernels_quant", "kernels",
         "statistic/LDQ/E2BQM/HQT kernel timings with a pool-width "
         "sweep",
         "repository kernels (supplementary)", runQuant});
    Registry::instance().add(
        {"kernels_gemm", "kernels",
         "GEMM timings and the thread-scaling wall-vs-CPU sweep, "
         "and conv-layer kernels",
         "repository kernels (supplementary)", runGemm});
    Registry::instance().add(
        {"kernels_arch", "kernels",
         "bit-serial PE, NDPO update and DRAM controller hot paths",
         "repository kernels (supplementary)", runArch});
}

} // namespace cq::bench::workloads
