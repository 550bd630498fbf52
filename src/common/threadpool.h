/**
 * @file
 * Deterministic fork-join thread pool.
 *
 * The software model's hot kernels (GEMM, im2col/col2im, the E2BQM
 * candidate sweep) are data-parallel over output rows or blocks. This
 * pool runs such loops on N threads with a *static* partition: the
 * index range is split into at most N contiguous chunks, chunk i always
 * runs as one sequential unit, and no work stealing ever moves indices
 * between chunks. Because every parallelized loop writes disjoint
 * outputs and keeps each output element's accumulation order inside a
 * single chunk, results are bitwise identical for 1 vs N threads.
 *
 * The thread count comes from the CQ_THREADS environment variable
 * (default: std::thread::hardware_concurrency()); CQ_THREADS=1 restores
 * fully serial execution. Tests and benches can override it at runtime
 * with setNumThreads().
 */

#ifndef CQ_COMMON_THREADPOOL_H
#define CQ_COMMON_THREADPOOL_H

#include <cstddef>
#include <functional>

namespace cq {

/**
 * Shared fork-join pool. One global instance serves the whole process;
 * parallelFor() calls are serialized, and nested calls (from inside a
 * running chunk) degrade to inline serial execution, so composed
 * kernels (e.g. HQT blocks each running an E2BQM sweep) stay correct
 * and deterministic.
 */
class ThreadPool
{
  public:
    /** A loop body invoked once per chunk with [lo, hi). */
    using RangeFn = std::function<void(std::size_t, std::size_t)>;

    /** The process-wide pool (created on first use). */
    static ThreadPool &instance();

    /** Configured thread count, including the calling thread (>= 1). */
    unsigned numThreads() const { return numThreads_; }

    /**
     * Reconfigure the pool to @p n threads (0 means the CQ_THREADS /
     * hardware default). Joins and respawns workers; must not be
     * called from inside a parallelFor body.
     */
    void setNumThreads(unsigned n);

    /**
     * Make the pool usable in a child process after fork(). Worker
     * threads do not survive fork — the child inherits only the
     * forking thread, plus mutexes/condvars cloned in whatever state
     * they were in — so the inherited State is unusable and is
     * deliberately abandoned (joining dead std::threads would
     * terminate, destroying a possibly-locked mutex is UB), kept
     * reachable so leak checkers do not flag it. A fresh State is
     * allocated and workers respawned at the previous thread count.
     * Call immediately after fork() in the child, before any kernel
     * runs; the fork itself must happen outside a parallel region.
     * runIsolated() (common/isolated_trial.h) is the one caller.
     */
    void reinitAfterFork();

    /**
     * Run @p fn over [begin, end) split into at most numThreads()
     * contiguous chunks of at least @p grain indices each. Blocks
     * until every chunk finished; rethrows the first exception a
     * chunk raised. The chunk boundaries and the chunk-to-thread
     * assignment are static functions of (begin, end, grain,
     * effective width) — never of runtime timing.
     */
    void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                     const RangeFn &fn);

    /**
     * @name Per-caller width cap (graceful degradation)
     *
     * A caller can bound its own share of the pool: it sets a
     * thread-local cap and every parallelFor issued from that thread
     * then fans out over at most that many chunks (cap 1 runs inline,
     * without touching the shared workers at all — an overloaded pool
     * stops being a contention point). Because chunk boundaries are a
     * static function of the effective width and every kernel is
     * bitwise identical at any width (the 1-vs-N determinism
     * contract), capping a caller changes *when* its work finishes,
     * never *what* it computes.
     */
    /** @{ */
    /** Cap parallelFor fan-out for the calling thread; 0 removes the
     *  cap. Only affects calls made from this thread. */
    static void setCallerWidthCap(unsigned cap);
    /** The calling thread's cap (0 = uncapped). */
    static unsigned callerWidthCap();
    /** @} */

    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

  private:
    ThreadPool();

    void spawnWorkers(unsigned n);
    void joinWorkers();

    struct State;
    State *state_;
    unsigned numThreads_ = 1;
};

/**
 * Convenience wrapper: ThreadPool::instance().parallelFor(...). All
 * kernel code calls this; with one thread (or a small range) it is a
 * plain inline loop.
 */
void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const ThreadPool::RangeFn &fn);

/** RAII guard for ThreadPool::setCallerWidthCap: caps the calling
 *  thread's parallelFor fan-out for the scope's lifetime, restoring
 *  the previous cap on exit. */
class CallerWidthCapScope
{
  public:
    explicit CallerWidthCapScope(unsigned cap)
        : previous_(ThreadPool::callerWidthCap())
    {
        ThreadPool::setCallerWidthCap(cap);
    }
    ~CallerWidthCapScope()
    {
        ThreadPool::setCallerWidthCap(previous_);
    }
    CallerWidthCapScope(const CallerWidthCapScope &) = delete;
    CallerWidthCapScope &operator=(const CallerWidthCapScope &) = delete;

  private:
    unsigned previous_;
};

} // namespace cq

#endif // CQ_COMMON_THREADPOOL_H
