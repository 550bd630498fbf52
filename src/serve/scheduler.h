/**
 * @file
 * Multi-tenant job scheduler: the server core behind `cqsim --serve`.
 *
 * A Scheduler owns a bounded JobQueue and a pool of worker threads
 * that execute jobs via runJobAttempt(). Its contract, tested by
 * tests/test_serve.cc and hammered by tools/cq_servetest:
 *
 *  - **Admission control.** submit() returns a typed verdict
 *    (Admitted / AdmittedAfterShed / RejectedQueueFull /
 *    RejectedShutdown / RejectedInvalid) plus a backpressure signal
 *    and pacing hint. Accepted jobs are never lost: each ends in
 *    exactly one terminal JobReport.
 *  - **Deadlines.** A job's deadline is armed at admission and
 *    enforced cooperatively through its CancelToken — checked at step
 *    boundaries, so an expired training job stops checkpoint-clean
 *    and is reported TimedOut (whether it expired queued or running).
 *  - **Retry.** Transient failures (injected faults, divergence,
 *    checkpoint I/O, worker crashes) retry up to the spec's budget
 *    with capped exponential backoff and deterministic seeded jitter;
 *    budget-exhausted and permanent failures land in the dead-letter
 *    list.
 *  - **Graceful degradation.** Under overload the ladder is: shed the
 *    lowest-priority *queued* job to admit higher-priority work,
 *    shrink the per-job thread grant (ThreadPool caller width cap —
 *    results stay bitwise identical by the pool's 1-vs-N determinism
 *    contract) once queue occupancy passes the shrink watermark, and
 *    only then reject. requestDrain() (the SIGTERM path) lets running
 *    jobs stop at their next checkpoint-clean boundary, cancels
 *    queued jobs, and rejects new submissions.
 *  - **Worker crashes.** A WorkerCrashError out of the runner kills
 *    the executing worker; the scheduler books the failure, respawns
 *    a replacement thread, and the job retries under its budget.
 *
 * Thread safety: all public methods are safe from any thread. One
 * mutex guards the queue and bookkeeping; job execution runs outside
 * the lock.
 */

#ifndef CQ_SERVE_SCHEDULER_H
#define CQ_SERVE_SCHEDULER_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/stats.h"
#include "serve/job.h"
#include "serve/job_queue.h"

namespace cq::serve {

/** Scheduler tuning. */
struct SchedulerConfig
{
    /** Concurrent job slots (worker threads). */
    unsigned workers = 2;
    JobQueueConfig queue;

    /** Per-job ThreadPool width grant under normal load (0 = the
     *  pool's full width). */
    unsigned threadsPerJob = 0;
    /** Queue occupancy at which dispatches degrade to a 1-thread
     *  grant (inline execution, no shared-pool fan-out). */
    double shrinkWatermark = 0.75;

    /** Retry backoff before retry k (1-based):
     *  min(cap, base * 2^(k-1)) * (1 + jitterFrac * u) * scale, with
     *  u in [0,1) a deterministic hash of (jitterSeed, job id, k);
     *  the capped part is common/backoff.h's cappedBackoff(). */
    std::uint32_t backoffBaseMs = 10;
    std::uint32_t backoffCapMs = 2000;
    double backoffJitterFrac = 0.5;
    std::uint64_t jitterSeed = 0x5eedcafe;
    /** Scales the final backoff (tests compress real time with e.g.
     *  0.01; 0 = retry immediately). */
    double backoffScale = 1.0;

    /** When non-empty (and tracing is on), each job's spans are
     *  exported to `<dir>/trace-job-<id>.json` at its terminal
     *  report — the per-job Perfetto view of a multi-tenant run. */
    std::string perJobTraceDir;
};

/** Aggregate counters, snapshotted under the scheduler lock. */
struct SchedulerStats
{
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejectedFull = 0;
    std::uint64_t rejectedShutdown = 0;
    std::uint64_t rejectedInvalid = 0;

    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t shed = 0;

    std::uint64_t retries = 0;
    std::uint64_t workerCrashes = 0;
    /** Dispatches that ran under a shrunk thread grant. */
    std::uint64_t degraded = 0;

    /** Accepted jobs with a terminal report so far. */
    std::uint64_t terminal() const
    {
        return completed + failed + cancelled + timedOut + shed;
    }
};

class Scheduler
{
  public:
    explicit Scheduler(SchedulerConfig config);
    /** Drains (cancelling whatever is still queued or running) and
     *  joins every worker. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    const SchedulerConfig &config() const { return config_; }

    /**
     * Admission control. On an accepting verdict the job now belongs
     * to the scheduler and will end in exactly one terminal report;
     * on a rejecting verdict nothing was enqueued and the outcome
     * carries the reason plus the current backpressure/pacing hint.
     */
    SubmitOutcome submit(JobSpec spec);

    /**
     * Explicitly cancel an owned, non-terminal job: a queued job is
     * terminalized immediately, a running one stops at its next
     * cancellation point (both report Cancelled). Returns false when
     * the id is unknown or already terminal.
     */
    bool cancel(const std::string &id);

    /**
     * Graceful shutdown (the SIGTERM path): stop admitting, cancel
     * queued jobs, and ask running jobs to stop at their next
     * checkpoint-clean boundary. Idempotent; does not block — follow
     * with waitIdle() to observe the drain finish.
     */
    void requestDrain();

    bool draining() const;

    /**
     * Block until every accepted job is terminal (forever when
     * @p timeoutMs is 0). Returns false on timeout.
     */
    bool waitIdle(std::uint32_t timeoutMs = 0);

    /** Current congestion signal (what submit() would report). */
    Backpressure backpressure() const;

    /** Terminal reports, in completion order. */
    std::vector<JobReport> reports() const;

    /** The dead-letter list: reports whose state is Failed. */
    std::vector<JobReport> deadLetters() const;

    SchedulerStats stats() const;

    /** serve.* counters as a StatGroup (bench/CI export). */
    StatGroup statGroup() const;

    /** @name Live observability snapshots (obs_server providers) */
    /** @{ */
    std::size_t queueDepth() const;
    std::size_t runningCount() const;
    /** The /jobs table: per-tenant rollup plus one row per known job
     *  (queued, running, and terminal), as a JSON object. */
    std::string jobsJson() const;
    /** @} */

  private:
    struct RunningJob
    {
        std::string id;
        std::shared_ptr<CancelToken> token;
        /** Snapshot for the live /jobs table. */
        std::string tenant;
        JobKind kind = JobKind::Train;
        Priority priority = Priority::Normal;
        std::uint32_t attempts = 0;
        std::uint32_t retries = 0;
    };

    void workerLoop();
    void spawnWorkerLocked();
    /** Terminalize @p job (lock held). */
    void finishLocked(QueuedJob &&job, JobState state,
                      FailureKind failure, const AttemptOutcome &out,
                      std::string detail);
    /** Route one finished attempt: complete, retry, or dead-letter
     *  (lock held). True when the job reached a terminal report. */
    bool settleAttemptLocked(QueuedJob &&job, const AttemptOutcome &out);
    /** Export the job's spans to perJobTraceDir (no lock held). */
    void writeJobTrace(const std::string &id) const;
    std::uint64_t backoffNsFor(const std::string &id,
                               std::uint32_t retry) const;

    SchedulerConfig config_;
    mutable std::mutex mutex_;
    /** Workers: new work / stop / drain. */
    std::condition_variable wake_;
    /** Waiters in waitIdle(). */
    mutable std::condition_variable idle_;

    JobQueue queue_;
    std::vector<std::thread> workers_;
    std::vector<RunningJob> running_;
    /** Every id ever accepted (duplicate-submit guard). */
    std::unordered_set<std::string> ids_;
    std::vector<JobReport> reports_;
    SchedulerStats stats_;
    std::uint64_t nextSeq_ = 1;
    bool draining_ = false;
    bool stop_ = false;
};

} // namespace cq::serve

#endif // CQ_SERVE_SCHEDULER_H
