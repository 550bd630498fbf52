/**
 * @file
 * Bridge from the accelerator's cycle-level instruction timeline
 * (PerfReport::trace) into the host trace session, so one Chrome
 * trace JSON shows host spans and architectural activity side by
 * side. Each functional unit gets its own named track ("arch.pe-array"
 * etc.) in a separate process group, keeping the two time bases from
 * interleaving confusingly.
 */

#ifndef CQ_ARCH_TRACE_EXPORT_H
#define CQ_ARCH_TRACE_EXPORT_H

#include "arch/accelerator.h"
#include "obs/trace.h"

namespace cq::arch {

/**
 * Convert every TraceEntry of @p report into an external span on
 * @p session. Cycle timestamps convert to microseconds (ticks are ns
 * at 1 GHz). Returns the number of spans exported (0 when the report
 * was collected without a trace).
 */
std::size_t exportPerfTraceToSession(const PerfReport &report,
                                     obs::TraceSession &session);

} // namespace cq::arch

#endif // CQ_ARCH_TRACE_EXPORT_H
