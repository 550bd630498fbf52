/**
 * @file
 * Scoped tracing: RAII spans recorded into per-thread buffers and
 * exported as Chrome trace-event JSON (loadable in Perfetto or
 * chrome://tracing).
 *
 * Design constraints (DESIGN.md §6):
 *
 *  - **Determinism.** Trace timestamps come from the monotonic clock
 *    and are *observational output only*: no simulated or trained
 *    state ever reads them back, so a traced run computes bitwise the
 *    same results as an untraced one.
 *  - **Cheap when off.** The fast path of a disabled span is one
 *    relaxed atomic load and a branch; tests bound it. Defining
 *    CQ_OBS_DISABLED at compile time removes the spans entirely.
 *  - **No locks on the hot path.** Each thread appends to its own
 *    buffer; buffers are registered once (mutex) and merged at flush.
 *    Flushing is only valid at a quiescent point (no spans open on
 *    other threads) — in practice after parallel work joined.
 *
 * This header must stay dependency-free inside the repo (cq_common
 * links cq_obs, so obs cannot use logging/stats link symbols).
 */

#ifndef CQ_OBS_TRACE_H
#define CQ_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace cq::obs {

/** Small sequential id for the calling thread (0 = first caller). */
std::uint32_t currentThreadId();

namespace detail {
/** Global on/off flag, mirrored here so enabled() inlines to a load. */
extern std::atomic<bool> gTraceEnabled;
/** Monotonic clock, nanoseconds. */
std::uint64_t monotonicNowNs();
} // namespace detail

/** Fast check used by every span constructor. */
inline bool
traceEnabled()
{
    return detail::gTraceEnabled.load(std::memory_order_relaxed);
}

/**
 * A span injected from outside the host-span machinery — e.g. one
 * arch::TraceEntry of the accelerator's instruction timeline. Renders
 * on its own named track (Perfetto thread) in a separate process
 * group, so architectural timelines and host spans never interleave
 * confusingly.
 */
struct ExternalSpan
{
    std::string name;
    /** Track (Perfetto thread) label, e.g. "arch.PE". */
    std::string track;
    /** Microseconds; external spans keep their own time base. */
    double tsUs = 0.0;
    double durUs = 0.0;
    /** Optional numeric args rendered in the event detail pane. */
    std::vector<std::pair<std::string, double>> args;
};

/**
 * Selects a slice of the recorded spans for export. Default-constructed
 * = everything. Used by the live `/trace?last_ms=N` endpoint.
 */
struct TraceExportFilter
{
    /** Keep only host spans ending at/after this monotonic time
     *  (0 = all). */
    std::uint64_t sinceNs = 0;

    bool active() const { return sinceNs != 0; }
};

/**
 * Process-wide trace recorder. Leaky singleton (never destroyed), so
 * spans in static destructors can never touch a dead session.
 */
class TraceSession
{
  public:
    static TraceSession &instance();

    /**
     * Turn recording on/off. The CQ_TRACE=0 environment kill-switch
     * wins: with it set, setEnabled(true) leaves tracing off.
     */
    void setEnabled(bool on);
    bool enabled() const { return traceEnabled(); }

    /** Record one completed host span (called by TraceScope). */
    void record(const char *name, std::uint64_t start_ns,
                std::uint64_t end_ns);

    /**
     * Per-thread span ring capacity. Defaults to 1M spans (or the
     * CQ_TRACE_CAP environment variable, latched at construction);
     * once a thread's buffer is full the oldest span is overwritten
     * and the `obs.trace_dropped` counter ticks, so a long run holds
     * steady memory instead of growing without bound.
     */
    std::size_t spanCap() const;
    /** Override the ring capacity (tests; takes effect immediately). */
    void setSpanCap(std::size_t cap);

    /** Add a span from an external timeline (arch trace bridge). */
    void addExternalSpan(ExternalSpan span);

    /**
     * Drop every recorded span (host and external). Only valid at a
     * quiescent point, like the flush routines.
     */
    void clear();

    /** Host spans recorded so far; name filter optional (exact). */
    std::size_t spanCount(const char *name_filter = nullptr) const;

    /**
     * Render everything recorded so far as a Chrome trace-event JSON
     * document ({"traceEvents": [...]}). Host spans land in pid 1
     * with one tid per recording thread; external spans in pid 2 with
     * one tid per track label.
     */
    std::string chromeTraceJson() const;

    /**
     * Filtered variant: only host spans matching `filter` (external
     * spans are omitted whenever the filter is active — they keep
     * their own time base).
     */
    std::string chromeTraceJson(const TraceExportFilter &filter) const;

    /** chromeTraceJson() to a file; false (with stderr note) on I/O
     *  failure. */
    bool writeChromeTrace(const std::string &path) const;

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

  private:
    TraceSession();
    struct Impl;
    Impl *impl_;
};

/**
 * RAII span. Captures the start time only when tracing is enabled at
 * construction; records at destruction (end time taken then). Name
 * must be a string literal or otherwise outlive the session flush.
 */
class TraceScope
{
  public:
    explicit TraceScope(const char *name)
    {
        if (traceEnabled()) {
            name_ = name;
            startNs_ = detail::monotonicNowNs();
        }
    }

    ~TraceScope()
    {
        if (name_ != nullptr) {
            TraceSession::instance().record(
                name_, startNs_, detail::monotonicNowNs());
        }
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    const char *name_ = nullptr;
    std::uint64_t startNs_ = 0;
};

} // namespace cq::obs

#define CQ_OBS_CONCAT2(a, b) a##b
#define CQ_OBS_CONCAT(a, b) CQ_OBS_CONCAT2(a, b)

#ifdef CQ_OBS_DISABLED
/** Compiled-out build: the span vanishes entirely. */
#define CQ_TRACE_SCOPE(name)                                            \
    do {                                                                \
    } while (0)
#else
/** One scoped span covering the rest of the enclosing block. */
#define CQ_TRACE_SCOPE(name)                                            \
    ::cq::obs::TraceScope CQ_OBS_CONCAT(cqTraceScope_, __LINE__)(name)
#endif

#endif // CQ_OBS_TRACE_H
