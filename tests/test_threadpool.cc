/**
 * @file
 * Tests of the deterministic thread pool: the parallelFor contract
 * (coverage, disjointness, grain, nesting, exceptions) and the
 * bitwise 1-vs-N-thread determinism guarantee of every parallelized
 * kernel (GEMM variants, elementwise ops, im2col/col2im, E2BQM/HQT,
 * the functional quantized GEMM, and the attention layers built on
 * the GEMMs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/quantized_gemm.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "nn/attention.h"
#include "quant/e2bqm.h"
#include "tensor/tensor_ops.h"

namespace cq {
namespace {

/** Run @p make under 1 thread and under @p threads, expect bitwise
 *  identical tensors (Tensor::operator== is exact float equality). */
template <typename Fn>
void
expectBitwiseEqualAcrossThreads(Fn make, unsigned threads = 8)
{
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(1);
    const Tensor serial = make();
    pool.setNumThreads(threads);
    const Tensor parallel = make();
    pool.setNumThreads(0); // back to the CQ_THREADS / hardware default
    EXPECT_TRUE(serial == parallel);
}

// ------------------------------------------------------------- pool API

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(0, hits.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeNeverCalls)
{
    bool called = false;
    parallelFor(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
    parallelFor(7, 3, 1, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, GrainKeepsSmallRangesSerial)
{
    // A range below 2 * grain must run as one inline chunk.
    int calls = 0;
    parallelFor(0, 100, 64, [&](std::size_t lo, std::size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 100u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ChunksAreContiguousAndOrdered)
{
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::mutex m;
    parallelFor(0, 10000, 1, [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(m);
        chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    std::size_t expect = 0;
    for (const auto &[lo, hi] : chunks) {
        EXPECT_EQ(lo, expect);
        EXPECT_LT(lo, hi);
        expect = hi;
    }
    EXPECT_EQ(expect, 10000u);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    std::atomic<int> total{0};
    parallelFor(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            // The nested region must execute (inline) exactly once
            // per outer index without deadlocking.
            parallelFor(0, 4, 1, [&](std::size_t nlo, std::size_t nhi) {
                total.fetch_add(static_cast<int>(nhi - nlo));
            });
        }
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, CallerWidthCapLimitsChunkFanOut)
{
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(8);
    const auto countChunks = [] {
        std::atomic<int> chunks{0};
        parallelFor(0, 10000, 1,
                    [&](std::size_t, std::size_t) { ++chunks; });
        return chunks.load();
    };
    EXPECT_GT(countChunks(), 2); // uncapped: full fan-out
    {
        CallerWidthCapScope cap(2);
        EXPECT_EQ(ThreadPool::callerWidthCap(), 2u);
        EXPECT_LE(countChunks(), 2);
    }
    // RAII restore: the cap is gone once the scope closes.
    EXPECT_EQ(ThreadPool::callerWidthCap(), 0u);
    EXPECT_GT(countChunks(), 2);
    pool.setNumThreads(0);
}

TEST(ThreadPool, CallerWidthCapOfOneRunsInlineOnCaller)
{
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(8);
    CallerWidthCapScope cap(1);
    const std::thread::id self = std::this_thread::get_id();
    std::atomic<int> offThread{0};
    parallelFor(0, 10000, 1, [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() != self)
            ++offThread;
    });
    // Degraded jobs must not touch the shared workers at all.
    EXPECT_EQ(offThread.load(), 0);
    pool.setNumThreads(0);
}

TEST(ThreadPool, CallerWidthCapScopesNestAndRestore)
{
    CallerWidthCapScope outer(4);
    EXPECT_EQ(ThreadPool::callerWidthCap(), 4u);
    {
        CallerWidthCapScope inner(2);
        EXPECT_EQ(ThreadPool::callerWidthCap(), 2u);
    }
    EXPECT_EQ(ThreadPool::callerWidthCap(), 4u);
}

TEST(Determinism, CappedWidthBitwiseMatchesUncapped)
{
    // The degradation story rests on this: shrinking a job's thread
    // grant must not change its numbers.
    Rng rng(99);
    Tensor a({64, 96});
    Tensor b({96, 64});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(8);
    const Tensor full = matmul(a, b);
    Tensor capped;
    {
        CallerWidthCapScope cap(2);
        capped = matmul(a, b);
    }
    Tensor inline1;
    {
        CallerWidthCapScope cap(1);
        inline1 = matmul(a, b);
    }
    pool.setNumThreads(0);
    EXPECT_TRUE(full == capped);
    EXPECT_TRUE(full == inline1);
}

TEST(ThreadPool, PropagatesExceptions)
{
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(4);
    EXPECT_THROW(
        parallelFor(0, 1000, 1,
                    [&](std::size_t lo, std::size_t) {
                        if (lo == 0)
                            throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error);
    pool.setNumThreads(0);
}

TEST(ThreadPool, PropagatesWorkerLaneExceptions)
{
    // Throw only from a chunk that a worker (not the caller, which
    // owns chunk 0) executes: the error must still cross threads.
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(4);
    EXPECT_THROW(
        parallelFor(0, 1000, 1,
                    [&](std::size_t lo, std::size_t) {
                        if (lo != 0)
                            throw std::runtime_error("worker lane");
                    }),
        std::runtime_error);
    pool.setNumThreads(0);
}

TEST(ThreadPool, LowestChunkExceptionWinsDeterministically)
{
    // Every chunk throws a distinct message; the caller must always
    // observe the lowest-indexed chunk's exception regardless of
    // worker scheduling. Repeat to give racier orderings a chance.
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(4);
    for (int rep = 0; rep < 50; ++rep) {
        std::string caught;
        try {
            parallelFor(0, 1000, 1,
                        [&](std::size_t lo, std::size_t) {
                            throw std::runtime_error(
                                "chunk@" + std::to_string(lo));
                        });
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "chunk@0");
    }
    pool.setNumThreads(0);
}

TEST(ThreadPool, UsableAfterException)
{
    // A throw must not poison the pool: the next job still covers the
    // whole range exactly once and reports no stale error.
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(4);
    EXPECT_THROW(parallelFor(0, 1000, 1,
                             [&](std::size_t, std::size_t) {
                                 throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(1000);
    EXPECT_NO_THROW(
        parallelFor(0, hits.size(), 1,
                    [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i)
                            hits[i].fetch_add(1);
                    }));
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    pool.setNumThreads(0);
}

TEST(ThreadPool, SetNumThreadsRoundTrips)
{
    auto &pool = ThreadPool::instance();
    pool.setNumThreads(3);
    EXPECT_EQ(pool.numThreads(), 3u);
    pool.setNumThreads(0);
    EXPECT_GE(pool.numThreads(), 1u);
}

// ------------------------------------------- kernel determinism (1 vs N)

TEST(Determinism, MatmulBitwiseIdentical)
{
    Rng rng(21);
    Tensor a({65, 47}), b({47, 53});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    expectBitwiseEqualAcrossThreads([&] { return matmul(a, b); });
}

TEST(Determinism, MatmulTransABitwiseIdentical)
{
    Rng rng(22);
    Tensor a({37, 61}), b({37, 29});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    expectBitwiseEqualAcrossThreads([&] { return matmulTransA(a, b); });
}

TEST(Determinism, MatmulTransBBitwiseIdentical)
{
    Rng rng(23);
    Tensor a({41, 33}), b({59, 33});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    expectBitwiseEqualAcrossThreads([&] { return matmulTransB(a, b); });
}

TEST(Determinism, ElementwiseBitwiseIdentical)
{
    Rng rng(24);
    Tensor a({40000}), b({40000});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    expectBitwiseEqualAcrossThreads([&] { return add(a, b); });
    expectBitwiseEqualAcrossThreads([&] { return mul(a, b); });
    expectBitwiseEqualAcrossThreads([&] { return scale(a, 0.37f); });
    expectBitwiseEqualAcrossThreads([&] {
        Tensor acc = a;
        accumulate(acc, b, 1.5f);
        return acc;
    });
}

TEST(Determinism, Im2colCol2imBitwiseIdentical)
{
    Rng rng(25);
    Conv2dGeometry g;
    g.inChannels = 3;
    g.outChannels = 4;
    g.kernelH = g.kernelW = 3;
    g.stride = 1;
    g.pad = 1;
    Tensor x({2, 3, 17, 19});
    x.fillGaussian(rng, 0.0f, 1.0f);
    expectBitwiseEqualAcrossThreads([&] { return im2col(x, g); });

    const Tensor cols = im2col(x, g);
    expectBitwiseEqualAcrossThreads(
        [&] { return col2im(cols, x.shape(), g); });
}

TEST(Determinism, HqtBitwiseIdentical)
{
    Rng rng(26);
    Tensor x({6000});
    x.fillGaussian(rng, 0.0f, 0.05f);
    for (int i = 0; i < 24; ++i)
        x[i * 250] = static_cast<float>(rng.gaussian(0.0, 1.5));
    const auto cfg = quant::E2bqmConfig::clippingLadder(8);
    expectBitwiseEqualAcrossThreads(
        [&] { return quant::fakeQuantizeHqt(x, 512, cfg); });
    expectBitwiseEqualAcrossThreads(
        [&] { return quant::fakeQuantizeE2bqm(x, cfg); });
}

TEST(Determinism, QuantizedMatmulBitwiseIdentical)
{
    Rng rng(27);
    Tensor a({24, 96}), b({96, 18});
    a.fillGaussian(rng, 0.0f, 0.5f);
    b.fillGaussian(rng, 0.0f, 0.5f);
    arch::QuantizedGemmOptions opt;
    expectBitwiseEqualAcrossThreads(
        [&] { return arch::quantizedMatmul(a, b, opt); });
}

/** Output, input gradient and every parameter gradient of one
 *  forward + backward pass of @p layer, end to end in one tensor. */
Tensor
forwardBackward(nn::Layer &layer, const Tensor &x, const Tensor &dy)
{
    layer.zeroGrads();
    std::vector<float> all = layer.forward(x).vec();
    const Tensor dx = layer.backward(dy);
    all.insert(all.end(), dx.vec().begin(), dx.vec().end());
    for (const nn::Param *p : layer.params())
        all.insert(all.end(), p->grad.vec().begin(), p->grad.vec().end());
    const std::size_t n = all.size();
    return Tensor({n}, std::move(all));
}

TEST(Determinism, AttentionBitwiseIdentical)
{
    // 2 sequences of 16 tokens, width 64, 4 heads: every projection
    // GEMM (32 x 64 x 64) splits into several chunks on the pool.
    const std::size_t batch = 2, seq = 16, dim = 64, heads = 4;
    Rng rng(28);
    Tensor x({batch * seq, dim}), dy({batch * seq, dim});
    x.fillGaussian(rng, 0.0f, 0.5f);
    dy.fillGaussian(rng, 0.0f, 1.0f);
    nn::MultiHeadSelfAttention attn("attn", batch, seq, dim, heads, rng);
    expectBitwiseEqualAcrossThreads(
        [&] { return forwardBackward(attn, x, dy); });
    nn::TransformerBlock block("blk", batch, seq, dim, heads, 2 * dim,
                               rng);
    expectBitwiseEqualAcrossThreads(
        [&] { return forwardBackward(block, x, dy); });
}

} // namespace
} // namespace cq
