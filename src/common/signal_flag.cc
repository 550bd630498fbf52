/**
 * @file
 * Implementation of the shutdown request flag.
 */

#include "common/signal_flag.h"

#include <atomic>
#include <csignal>
#include <unistd.h>

namespace cq {

namespace {

/** lock-free atomics: the handler may only touch async-signal-safe
 *  state, and these are guaranteed lock-free here. */
std::atomic<bool> gShutdownRequested{false};
std::atomic<int> gShutdownSignals{0};

extern "C" void
shutdownSignalHandler(int signo)
{
    gShutdownRequested.store(true, std::memory_order_relaxed);
    const int nth =
        gShutdownSignals.fetch_add(1, std::memory_order_relaxed) + 1;
    if (nth >= 2) {
        // Escalation: the drain started by the first signal is taking
        // too long (or wedged) and the operator insists. Everything
        // here is async-signal-safe: one write(), then _exit() — no
        // destructors, no flushing, no locks. Crash-consistent
        // checkpoint commits make this as safe as a SIGKILL.
        static const char msg[] =
            "cq: second shutdown signal - exiting immediately "
            "(drain abandoned)\n";
        // The return value is deliberately ignored: there is nothing
        // left to do about a failed stderr write on this path.
        const ssize_t ignored =
            ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
        (void)ignored;
        ::_exit(128 + signo);
    }
}

} // namespace

void
installShutdownSignalHandler()
{
    struct sigaction sa = {};
    sa.sa_handler = shutdownSignalHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: a blocking write in the checkpoint path should
    // see EINTR (the durable writers retry it) rather than delay the
    // shutdown indefinitely.
    sa.sa_flags = 0;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

bool
shutdownRequested()
{
    return gShutdownRequested.load(std::memory_order_relaxed);
}

void
requestShutdown()
{
    gShutdownRequested.store(true, std::memory_order_relaxed);
    int expected = 0;
    gShutdownSignals.compare_exchange_strong(
        expected, 1, std::memory_order_relaxed);
}

void
clearShutdownRequest()
{
    gShutdownRequested.store(false, std::memory_order_relaxed);
    gShutdownSignals.store(0, std::memory_order_relaxed);
}

} // namespace cq
