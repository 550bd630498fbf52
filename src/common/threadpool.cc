/**
 * @file
 * Implementation of the deterministic fork-join thread pool.
 */

#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"

namespace cq {

namespace {

/**
 * Set while the current thread executes a chunk (worker or caller).
 * Nested parallelFor calls run inline: the outer static partition
 * already owns all the threads, and inlining keeps each outer chunk a
 * single sequential unit, preserving determinism.
 */
thread_local bool tlsInParallelRegion = false;

/** Per-caller fan-out cap (0 = none); see setCallerWidthCap(). */
thread_local unsigned tlsCallerWidthCap = 0;

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("CQ_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n >= 1)
            return static_cast<unsigned>(std::min(n, 256l));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

/** Workers, synchronization and the currently published job. */
struct ThreadPool::State
{
    std::mutex mutex;
    std::condition_variable wake;
    std::condition_variable done;
    std::vector<std::thread> workers;
    bool stop = false;

    /** Bumped once per job; workers run the job whose id they see. */
    std::uint64_t generation = 0;
    /** Workers that have not finished the current generation. */
    unsigned pending = 0;
    /** Workers that reached their wait loop (spawn handshake). */
    unsigned started = 0;

    /** @name Current job (valid while pending > 0) */
    /** @{ */
    const RangeFn *fn = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunkSize = 0;
    std::size_t chunkCount = 0;
    /** Exception out of the lowest-indexed throwing chunk. */
    std::exception_ptr error;
    /** Chunk index that error came from (chunkCount = none yet). */
    std::size_t errorChunk = 0;
    /** @} */

    /** Serializes concurrent top-level parallelFor callers. */
    std::mutex submitMutex;

    void runChunk(std::size_t chunk)
    {
        if (chunk >= chunkCount)
            return;
        const std::size_t lo = begin + chunk * chunkSize;
        const std::size_t hi = std::min(end, lo + chunkSize);
        try {
            CQ_TRACE_SCOPE("pool.chunk");
            (*fn)(lo, hi);
        } catch (...) {
            // Keep the exception of the lowest-indexed throwing chunk,
            // not whichever chunk reached the mutex first: the caller
            // then observes the same exception no matter how the OS
            // schedules the workers.
            std::lock_guard<std::mutex> lock(mutex);
            if (!error || chunk < errorChunk) {
                error = std::current_exception();
                errorChunk = chunk;
            }
        }
    }

    void workerLoop(std::size_t workerIndex)
    {
        tlsInParallelRegion = true;
        std::unique_lock<std::mutex> lock(mutex);
        // The generation counter survives worker respawns
        // (setNumThreads); only jobs published after this point are
        // ours to run. spawnWorkers blocks until every worker has
        // registered here, so no job can slip past a starting worker.
        std::uint64_t seen = generation;
        ++started;
        done.notify_all();
        for (;;) {
            wake.wait(lock, [&] { return stop || generation != seen; });
            if (stop)
                return;
            seen = generation;
            lock.unlock();
            // Worker w always owns chunk w + 1; the caller owns chunk 0.
            runChunk(workerIndex + 1);
            lock.lock();
            if (--pending == 0)
                done.notify_one();
        }
    }
};

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool()
    : state_(new State)
{
    spawnWorkers(defaultThreadCount());
}

ThreadPool::~ThreadPool()
{
    joinWorkers();
    delete state_;
}

void
ThreadPool::spawnWorkers(unsigned n)
{
    numThreads_ = std::max(1u, n);
    state_->stop = false;
    state_->started = 0;
    state_->workers.reserve(numThreads_ - 1);
    for (unsigned i = 0; i + 1 < numThreads_; ++i)
        state_->workers.emplace_back(
            [this, i] { state_->workerLoop(i); });
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->done.wait(lock, [this] {
        return state_->started == numThreads_ - 1;
    });
}

void
ThreadPool::joinWorkers()
{
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->stop = true;
    }
    state_->wake.notify_all();
    for (auto &t : state_->workers)
        t.join();
    state_->workers.clear();
}

void
ThreadPool::setNumThreads(unsigned n)
{
    CQ_ASSERT_MSG(!tlsInParallelRegion,
                  "setNumThreads called from inside a parallel region");
    const unsigned target = n > 0 ? n : defaultThreadCount();
    if (target == numThreads_)
        return;
    joinWorkers();
    spawnWorkers(target);
}

void
ThreadPool::reinitAfterFork()
{
    // The old State's mutexes may have been cloned mid-lock and its
    // workers vector holds joinable std::threads whose OS threads no
    // longer exist; both make destruction UB/terminate. Abandon it,
    // but keep it reachable from a static that is never destroyed, or
    // LeakSanitizer's exit-time check reports it in every child that
    // exits normally. (A function-local container does not do: it is
    // destroyed before that check runs.)
    static auto *abandoned = new std::vector<State *>;
    abandoned->push_back(state_);
    state_ = new State;
    tlsInParallelRegion = false;
    spawnWorkers(numThreads_);
}

void
ThreadPool::setCallerWidthCap(unsigned cap)
{
    tlsCallerWidthCap = cap;
}

unsigned
ThreadPool::callerWidthCap()
{
    return tlsCallerWidthCap;
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        std::size_t grain, const RangeFn &fn)
{
    if (begin >= end)
        return;
    const std::size_t range = end - begin;
    const std::size_t minChunk = std::max<std::size_t>(grain, 1);
    const std::size_t maxChunks = range / minChunk;
    // A capped caller fans out over at most its cap; cap 1 joins the
    // serial fast path below and never touches the shared workers.
    const unsigned width =
        tlsCallerWidthCap > 0
            ? std::min(numThreads_, tlsCallerWidthCap)
            : numThreads_;
    // Serial fast path: one thread, a small range, or a nested call
    // from inside a running chunk.
    if (width == 1 || maxChunks <= 1 || tlsInParallelRegion) {
        fn(begin, end);
        return;
    }
    const std::size_t chunks =
        std::min<std::size_t>(width, maxChunks);

    std::lock_guard<std::mutex> submit(state_->submitMutex);
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->fn = &fn;
        state_->begin = begin;
        state_->end = end;
        state_->chunkSize = (range + chunks - 1) / chunks;
        state_->chunkCount = chunks;
        state_->error = nullptr;
        state_->errorChunk = chunks;
        state_->pending = numThreads_ - 1;
        ++state_->generation;
    }
    state_->wake.notify_all();

    tlsInParallelRegion = true;
    state_->runChunk(0);
    tlsInParallelRegion = false;

    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->done.wait(lock, [this] { return state_->pending == 0; });
    if (state_->error) {
        // Clear before rethrow so a stale pointer can never leak into
        // the next job if a future edit reorders the reset above.
        std::exception_ptr err;
        std::swap(err, state_->error);
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            const ThreadPool::RangeFn &fn)
{
    ThreadPool::instance().parallelFor(begin, end, grain, fn);
}

} // namespace cq
