/**
 * @file
 * Implementation of the isolated-trial runner.
 */

#include "common/isolated_trial.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common/threadpool.h"

namespace cq {

namespace {

/** The child's whole life. noexcept: an exception out of the body
 *  terminates the child instead of unwinding into the parent's
 *  frames, which the child shares a copy of. */
[[noreturn]] void
childMain(const std::function<int()> &body) noexcept
{
    ThreadPool::instance().reinitAfterFork();
    std::exit(body());
}

} // namespace

std::string
describe(const TrialEnd &end)
{
    switch (end.kind) {
      case TrialEnd::Kind::Exited:
        return "exit " + std::to_string(end.code);
      case TrialEnd::Kind::Signaled:
        return "signal " + std::to_string(end.code);
      case TrialEnd::Kind::Hung:
        return "hung";
      case TrialEnd::Kind::NotRun:
        return "not run";
    }
    return "?";
}

TrialEnd
runIsolated(const std::function<int()> &body, std::uint64_t timeoutMs)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("runIsolated: fork");
        return {};
    }
    if (pid == 0)
        childMain(body);

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) {
            if (WIFSIGNALED(status))
                return {TrialEnd::Kind::Signaled, WTERMSIG(status)};
            return {TrialEnd::Kind::Exited, WEXITSTATUS(status)};
        }
        if (r < 0 && errno != EINTR) {
            std::perror("runIsolated: waitpid");
            ::kill(pid, SIGKILL);
            return {};
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
            }
            return {TrialEnd::Kind::Hung, 0};
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

} // namespace cq
