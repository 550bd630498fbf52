/**
 * @file
 * Isolated trials: run a body in a forked child under a deadline.
 *
 * The crash and failpoint harnesses (cq_crashtest, cq_faultsweep, the
 * CrashResume tests) run work that may genuinely die, by a planned
 * SIGKILL, an injected fault or a wedge, so each trial runs in a
 * child and the parent classifies how it ended. runIsolated() is
 * their one fork site. The child leaves through std::exit, so
 * LeakSanitizer still checks it; the parent SIGKILLs a child that
 * overruns its deadline. ThreadSanitizer cannot follow fork() in a
 * threaded process, so the suites that run under tsan keep their
 * trials in-process.
 */

#ifndef CQ_COMMON_ISOLATED_TRIAL_H
#define CQ_COMMON_ISOLATED_TRIAL_H

#include <cstdint>
#include <functional>
#include <string>

namespace cq {

/** The deadline of one isolated trial unless its caller sets one. */
inline constexpr std::uint64_t kTrialTimeoutMs = 120000;

/** How an isolated trial ended. */
struct TrialEnd
{
    enum class Kind
    {
        /** The body returned; code is its exit code. */
        Exited,
        /** A signal ended the child; code is the signal number. */
        Signaled,
        /** The child overran its deadline and was SIGKILLed. */
        Hung,
        /** fork() or waitpid() failed (the cause went to stderr). */
        NotRun,
    };
    Kind kind = Kind::NotRun;
    int code = 0;

    bool exitedWith(int c) const { return kind == Kind::Exited && code == c; }
    bool killedBy(int sig) const
    {
        return kind == Kind::Signaled && code == sig;
    }
};

/** "exit 3", "signal 9", "hung" or "not run". */
std::string describe(const TrialEnd &end);

/**
 * Run @p body in a forked child and reap it within @p timeoutMs.
 * Flushes stdio first, so the child cannot repeat the parent's
 * buffered output, and makes the thread pool usable in the child.
 * The child exits with body's return value; an exception escaping
 * body terminates it (Signaled, SIGABRT). Call from outside any
 * parallel region.
 */
TrialEnd runIsolated(const std::function<int()> &body,
                     std::uint64_t timeoutMs = kTrialTimeoutMs);

} // namespace cq

#endif // CQ_COMMON_ISOLATED_TRIAL_H
