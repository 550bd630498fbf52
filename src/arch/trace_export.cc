/**
 * @file
 * Implementation of the PerfReport -> trace session bridge.
 */

#include "arch/trace_export.h"

#include <string>

namespace cq::arch {

std::size_t
exportPerfTraceToSession(const PerfReport &report,
                         obs::TraceSession &session)
{
    // Ticks are 1 GHz cycles, so tick -> us divides by 1000.
    const double ticksPerUs = 1000.0;
    std::size_t exported = 0;
    for (const TraceEntry &e : report.trace) {
        obs::ExternalSpan span;
        span.name = phaseName(e.phase);
        span.track = std::string("arch.") + unitName(e.unit);
        span.tsUs = static_cast<double>(e.start) / ticksPerUs;
        span.durUs = static_cast<double>(e.end - e.start) / ticksPerUs;
        span.args.emplace_back("instr", static_cast<double>(e.instr));
        session.addExternalSpan(std::move(span));
        ++exported;
    }
    return exported;
}

} // namespace cq::arch
