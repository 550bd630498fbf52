/**
 * @file
 * Async-signal-safe shutdown request flag with escalation.
 *
 * Long training runs must survive operator interrupts the way they
 * survive faults: the first SIGTERM or SIGINT should produce a clean
 * drain (a final synchronous checkpoint, then exit), not a torn
 * process image. The handler installed here only sets a flag;
 * training loops poll it at step boundaries
 * (QuantTrainer::stopRequested()), where a consistent snapshot can be
 * taken.
 *
 * Escalation: a *second* SIGTERM/SIGINT while the first drain is
 * still in progress means the operator wants out *now*. The handler
 * then writes a one-line notice to stderr (async-signal-safe
 * write(2)) and calls _exit(128 + signo) immediately — a wedged drain
 * can always be cut short by pressing Ctrl-C again. SIGKILL is
 * deliberately not (and cannot be) handled; that path is covered by
 * crash-consistent checkpoint commits plus elastic resume.
 */

#ifndef CQ_COMMON_SIGNAL_FLAG_H
#define CQ_COMMON_SIGNAL_FLAG_H

namespace cq {

/**
 * Install SIGTERM/SIGINT handlers that set the shutdown flag. Safe to
 * call more than once. The second signal of either kind forces an
 * immediate _exit(128 + signo) with a one-line stderr notice.
 */
void installShutdownSignalHandler();

/** True once SIGTERM/SIGINT arrived (or requestShutdown() ran). */
bool shutdownRequested();

/** Set the flag programmatically (tests, embedding applications). */
void requestShutdown();

/** Clear the flag and the signal count (tests; a new run after a
 *  handled shutdown). */
void clearShutdownRequest();

} // namespace cq

#endif // CQ_COMMON_SIGNAL_FLAG_H
