/**
 * @file
 * Scheduler implementation: worker loop, retry/backoff, drain,
 * degradation, and worker-crash respawn.
 */

#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>

#include "common/backoff.h"
#include "common/fileutil.h"
#include "common/threadpool.h"
#include "obs/context.h"
#include "obs/jsonw.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/job_runner.h"

namespace cq::serve {

namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::chrono::steady_clock::time_point
tpFromNs(std::uint64_t ns)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns));
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Scheduler::Scheduler(SchedulerConfig config)
    : config_(config), queue_(config.queue)
{
    if (config_.workers == 0)
        config_.workers = 1;
    std::lock_guard<std::mutex> lock(mutex_);
    for (unsigned i = 0; i < config_.workers; ++i)
        spawnWorkerLocked();
}

Scheduler::~Scheduler()
{
    requestDrain();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    // Crashed workers respawn replacements by appending to workers_
    // (never once stop_ is set), so re-scan until nothing is left to
    // join rather than iterating once.
    for (;;) {
        std::thread victim;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (auto &w : workers_) {
                if (w.joinable()) {
                    victim = std::move(w);
                    break;
                }
            }
        }
        if (!victim.joinable())
            break;
        victim.join();
    }
}

void
Scheduler::spawnWorkerLocked()
{
    workers_.emplace_back(&Scheduler::workerLoop, this);
}

std::uint64_t
Scheduler::backoffNsFor(const std::string &id,
                        std::uint32_t retry) const
{
    const double baseMs = static_cast<double>(cappedBackoff(
        config_.backoffBaseMs, config_.backoffCapMs, retry - 1));
    const std::uint64_t h = splitmix64(
        fnv1a(id) ^ (config_.jitterSeed + 0x9e3779b97f4a7c15ull *
                                              (retry + 1ull)));
    const double u =
        static_cast<double>(h >> 11) / 9007199254740992.0; // [0,1)
    const double ms = baseMs * (1.0 + config_.backoffJitterFrac * u) *
                      config_.backoffScale;
    return static_cast<std::uint64_t>(ms * 1e6);
}

SubmitOutcome
Scheduler::submit(JobSpec spec)
{
    auto &reg = obs::MetricRegistry::instance();
    std::unique_lock<std::mutex> lock(mutex_);
    ++stats_.submitted;
    reg.counter("serve.submitted").inc();

    SubmitOutcome out;
    out.backpressure = queue_.backpressure();
    out.retryAfterMs = queue_.retryAfterMs();

    if (draining_ || stop_) {
        out.verdict = AdmissionVerdict::RejectedShutdown;
        out.reason = "server is draining";
        ++stats_.rejectedShutdown;
        reg.counter("serve.rejected").inc();
        return out;
    }
    std::string invalid = validateJobSpec(spec);
    if (invalid.empty() && ids_.count(spec.id) > 0)
        invalid = "duplicate job id";
    if (!invalid.empty()) {
        out.verdict = AdmissionVerdict::RejectedInvalid;
        out.reason = std::move(invalid);
        ++stats_.rejectedInvalid;
        reg.counter("serve.rejected").inc();
        return out;
    }

    QueuedJob job;
    job.spec = std::move(spec);
    job.seq = nextSeq_++;
    job.enqueuedNs = nowNs();
    job.token = std::make_shared<CancelToken>();
    if (job.spec.deadlineMs > 0)
        job.token->setDeadlineInMs(job.spec.deadlineMs);
    const std::string id = job.spec.id;

    QueuedJob victim;
    out = queue_.admit(std::move(job), &victim);
    if (!admissionAccepted(out.verdict)) {
        ++stats_.rejectedFull;
        reg.counter("serve.rejected").inc();
        return out;
    }
    ids_.insert(id);
    ++stats_.accepted;
    reg.counter("serve.accepted").inc();
    if (out.verdict == AdmissionVerdict::AdmittedAfterShed) {
        victim.token->cancel(CancelReason::Shed);
        AttemptOutcome none;
        finishLocked(std::move(victim), JobState::Shed,
                     FailureKind::None, none,
                     "evicted by a higher-priority arrival under "
                     "overload");
    }
    lock.unlock();
    wake_.notify_one();
    return out;
}

bool
Scheduler::cancel(const std::string &id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto &r : running_) {
        if (r.id != id)
            continue;
        r.token->cancel(CancelReason::User);
        return true;
    }
    QueuedJob job;
    if (!queue_.remove(id, &job))
        return false;
    job.token->cancel(CancelReason::User);
    AttemptOutcome none;
    finishLocked(std::move(job), JobState::Cancelled,
                 FailureKind::None, none,
                 "cancelled while queued (user request)");
    lock.unlock();
    idle_.notify_all();
    return true;
}

void
Scheduler::requestDrain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (draining_)
        return;
    draining_ = true;
    obs::MetricRegistry::instance().counter("serve.drains").inc();
    for (QueuedJob &job : queue_.drainAll()) {
        job.token->cancel(CancelReason::Shutdown);
        AttemptOutcome none;
        finishLocked(std::move(job), JobState::Cancelled,
                     FailureKind::None, none,
                     "cancelled while queued (server draining)");
    }
    for (auto &r : running_)
        r.token->cancel(CancelReason::Shutdown);
    lock.unlock();
    wake_.notify_all();
    idle_.notify_all();
}

bool
Scheduler::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

bool
Scheduler::waitIdle(std::uint32_t timeoutMs)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto pred = [this] {
        return stats_.terminal() == stats_.accepted;
    };
    if (timeoutMs == 0) {
        idle_.wait(lock, pred);
        return true;
    }
    return idle_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                          pred);
}

Backpressure
Scheduler::backpressure() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.backpressure();
}

std::vector<JobReport>
Scheduler::reports() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
}

std::vector<JobReport>
Scheduler::deadLetters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JobReport> out;
    for (const auto &r : reports_)
        if (r.state == JobState::Failed)
            out.push_back(r);
    return out;
}

SchedulerStats
Scheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

StatGroup
Scheduler::statGroup() const
{
    const SchedulerStats s = stats();
    StatGroup g;
    g.counter("serve.submitted") = static_cast<double>(s.submitted);
    g.counter("serve.accepted") = static_cast<double>(s.accepted);
    g.counter("serve.rejected_full") =
        static_cast<double>(s.rejectedFull);
    g.counter("serve.rejected_shutdown") =
        static_cast<double>(s.rejectedShutdown);
    g.counter("serve.rejected_invalid") =
        static_cast<double>(s.rejectedInvalid);
    g.counter("serve.completed") = static_cast<double>(s.completed);
    g.counter("serve.failed") = static_cast<double>(s.failed);
    g.counter("serve.cancelled") = static_cast<double>(s.cancelled);
    g.counter("serve.timed_out") = static_cast<double>(s.timedOut);
    g.counter("serve.shed") = static_cast<double>(s.shed);
    g.counter("serve.retries") = static_cast<double>(s.retries);
    g.counter("serve.worker_crashes") =
        static_cast<double>(s.workerCrashes);
    g.counter("serve.degraded") = static_cast<double>(s.degraded);
    return g;
}

std::size_t
Scheduler::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

std::size_t
Scheduler::runningCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return running_.size();
}

std::string
Scheduler::jobsJson() const
{
    struct TenantCounts {
        std::uint64_t queued = 0;
        std::uint64_t running = 0;
        std::uint64_t terminal = 0;
    };
    std::map<std::string, TenantCounts> tenants;
    std::string rows;
    bool firstRow = true;
    const auto row = [&](const std::string &id,
                         const std::string &tenant, JobKind kind,
                         Priority priority, const char *state,
                         std::uint32_t attempts, std::uint32_t retries,
                         const std::string &detail) {
        if (!firstRow)
            rows += ',';
        firstRow = false;
        rows += "{\"id\":";
        obs::appendJsonString(rows, id);
        rows += ",\"tenant\":";
        obs::appendJsonString(rows, tenant);
        rows += ",\"kind\":\"";
        rows += jobKindName(kind);
        rows += "\",\"priority\":\"";
        rows += priorityName(priority);
        rows += "\",\"state\":\"";
        rows += state;
        rows += "\",\"attempts\":";
        rows += std::to_string(attempts);
        rows += ",\"retries\":";
        rows += std::to_string(retries);
        if (!detail.empty()) {
            rows += ",\"detail\":";
            obs::appendJsonString(rows, detail);
        }
        rows += '}';
    };

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const QueuedJob &j : queue_.jobs()) {
            ++tenants[j.spec.tenant].queued;
            row(j.spec.id, j.spec.tenant, j.spec.kind,
                j.spec.priority, "Queued", j.attempts, j.retries, "");
        }
        for (const RunningJob &r : running_) {
            ++tenants[r.tenant].running;
            row(r.id, r.tenant, r.kind, r.priority, "Running",
                r.attempts, r.retries, "");
        }
        for (const JobReport &r : reports_) {
            ++tenants[r.tenant].terminal;
            row(r.id, r.tenant, r.kind, r.priority,
                jobStateName(r.state), r.attempts, r.retries,
                r.detail);
        }
    }

    std::string out = "{\"tenants\":{";
    bool firstTenant = true;
    for (const auto &kv : tenants) {
        if (!firstTenant)
            out += ',';
        firstTenant = false;
        obs::appendJsonString(out, kv.first);
        out += ":{\"queued\":";
        out += std::to_string(kv.second.queued);
        out += ",\"running\":";
        out += std::to_string(kv.second.running);
        out += ",\"terminal\":";
        out += std::to_string(kv.second.terminal);
        out += '}';
    }
    out += "},\"jobs\":[";
    out += rows;
    out += "]}";
    return out;
}

void
Scheduler::finishLocked(QueuedJob &&job, JobState state,
                        FailureKind failure, const AttemptOutcome &out,
                        std::string detail)
{
    auto &reg = obs::MetricRegistry::instance();
    JobReport report;
    report.id = job.spec.id;
    report.tenant = job.spec.tenant;
    report.kind = job.spec.kind;
    report.priority = job.spec.priority;
    report.state = state;
    report.failure = failure;
    report.detail = std::move(detail);
    report.attempts = job.attempts;
    report.retries = job.retries;
    report.resultCrc = out.resultCrc;
    report.finalLoss = out.finalLoss;
    report.stepsRun = out.stepsRun;
    report.queueMs = static_cast<double>(job.queuedNsTotal) / 1e6;
    report.runMs = static_cast<double>(job.runNsTotal) / 1e6;
    report.grantedThreads = job.grantedThreads;
    reports_.push_back(std::move(report));

    switch (state) {
    case JobState::Completed:
        ++stats_.completed;
        reg.counter("serve.completed").inc();
        break;
    case JobState::Failed:
        ++stats_.failed;
        reg.counter("serve.failed").inc();
        break;
    case JobState::Cancelled:
        ++stats_.cancelled;
        reg.counter("serve.cancelled").inc();
        break;
    case JobState::TimedOut:
        ++stats_.timedOut;
        reg.counter("serve.timed_out").inc();
        break;
    case JobState::Shed:
        ++stats_.shed;
        reg.counter("serve.shed").inc();
        break;
    case JobState::Pending:
        break;
    }
    reg.histogram("serve.queue_us")
        .observe(static_cast<double>(job.queuedNsTotal) / 1e3);
}

bool
Scheduler::settleAttemptLocked(QueuedJob &&job,
                               const AttemptOutcome &out)
{
    if (out.ok) {
        finishLocked(std::move(job), JobState::Completed,
                     FailureKind::None, out, out.detail);
        return true;
    }
    if (out.cancelled) {
        JobState state = JobState::Cancelled;
        if (job.token->reason() == CancelReason::Deadline)
            state = JobState::TimedOut;
        finishLocked(std::move(job), state, FailureKind::None, out,
                     out.detail);
        return true;
    }
    const bool retryable = failureIsTransient(out.failure) &&
                           job.attempts <= job.spec.maxRetries &&
                           !draining_ && !stop_;
    if (!retryable) {
        finishLocked(std::move(job), JobState::Failed, out.failure,
                     out, out.detail);
        return true;
    }
    ++job.retries;
    ++stats_.retries;
    obs::MetricRegistry::instance().counter("serve.retries").inc();
    job.token->resetForRetry();
    const std::uint64_t now = nowNs();
    job.enqueuedNs = now;
    job.eligibleAtNs = now + backoffNsFor(job.spec.id, job.retries);
    queue_.requeue(std::move(job));
    wake_.notify_all();
    return false;
}

void
Scheduler::writeJobTrace(const std::string &id) const
{
    if (config_.perJobTraceDir.empty() || !obs::traceEnabled())
        return;
    ensureDir(config_.perJobTraceDir);
    // Ids are tenant-supplied; keep the filename on one path level.
    std::string safe = id;
    for (char &c : safe)
        if (c == '/' || c == '\\')
            c = '_';
    obs::TraceExportFilter filter;
    filter.jobId = id;
    obs::TraceSession::instance().writeChromeTrace(
        config_.perJobTraceDir + "/trace-job-" + safe + ".json",
        filter);
}

void
Scheduler::workerLoop()
{
    auto &reg = obs::MetricRegistry::instance();
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        QueuedJob job;
        for (;;) {
            if (stop_)
                return;
            if (queue_.pop(nowNs(), &job))
                break;
            const std::uint64_t next = queue_.nextEligibleNs(nowNs());
            if (next != 0)
                wake_.wait_until(lock, tpFromNs(next));
            else
                wake_.wait(lock);
        }

        const std::uint64_t start = nowNs();
        job.queuedNsTotal += start - job.enqueuedNs;

        // Deadline expired (or drain/cancel landed) while queued:
        // terminal without dispatching.
        if (job.token->cancelled()) {
            AttemptOutcome none;
            JobState state = JobState::Cancelled;
            const char *why = "cancelled while queued";
            if (job.token->reason() == CancelReason::Deadline) {
                state = JobState::TimedOut;
                why = "deadline expired while queued";
            }
            finishLocked(std::move(job), state, FailureKind::None,
                         none, why);
            idle_.notify_all();
            continue;
        }

        // Degrade the thread grant under overload (or while
        // draining, where latency no longer matters and contention
        // does). Width 1 runs the job inline without touching the
        // shared pool at all; results are unchanged by the pool's
        // 1-vs-N bitwise determinism contract.
        const bool degrade =
            draining_ ||
            queue_.occupancy() >= config_.shrinkWatermark;
        const unsigned grant = degrade ? 1 : config_.threadsPerJob;
        if (degrade) {
            ++stats_.degraded;
            reg.counter("serve.degraded").inc();
        }
        job.grantedThreads = grant;
        ++job.attempts;
        running_.push_back({job.spec.id, job.token, job.spec.tenant,
                            job.spec.kind, job.spec.priority,
                            job.attempts, job.retries});

        lock.unlock();
        AttemptOutcome out;
        bool crashed = false;
        std::string crashWhat;
        try {
            // Everything the attempt records — spans, telemetry,
            // pool chunks — carries the job's (id, tenant) labels.
            obs::ObsContextScope obsCtx(job.spec.id, job.spec.tenant);
            CallerWidthCapScope cap(grant);
            out = runJobAttempt(job.spec, job.token.get(),
                                job.attempts);
        } catch (const WorkerCrashError &e) {
            crashed = true;
            crashWhat = e.what();
        } catch (const std::exception &e) {
            out = AttemptOutcome{};
            out.failure = FailureKind::Transient;
            out.detail = e.what();
        }
        const std::uint64_t end = nowNs();
        lock.lock();

        job.runNsTotal += end - start;
        running_.erase(
            std::find_if(running_.begin(), running_.end(),
                         [&](const RunningJob &r) {
                             return r.id == job.spec.id;
                         }));

        const std::string jobId = job.spec.id;
        if (crashed) {
            ++stats_.workerCrashes;
            reg.counter("serve.worker_crashes").inc();
            out = AttemptOutcome{};
            out.failure = FailureKind::WorkerCrash;
            out.detail = crashWhat;
            const bool terminal =
                settleAttemptLocked(std::move(job), out);
            // The "crashed" worker exits; spawn its replacement so
            // capacity survives (never while the destructor joins).
            if (!stop_)
                spawnWorkerLocked();
            idle_.notify_all();
            if (terminal) {
                lock.unlock();
                writeJobTrace(jobId);
            }
            return;
        }
        const bool terminal = settleAttemptLocked(std::move(job), out);
        idle_.notify_all();
        if (terminal) {
            lock.unlock();
            writeJobTrace(jobId);
            lock.lock();
        }
    }
}

} // namespace cq::serve
