/**
 * @file
 * Implementation of the scoped tracer and the Chrome trace exporter.
 */

#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "common/fileutil.h"
#include "obs/jsonw.h"
#include "obs/metrics.h"

namespace cq::obs {

namespace detail {

std::atomic<bool> gTraceEnabled{false};

std::uint64_t
monotonicNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace detail

namespace {

std::atomic<std::uint32_t> gNextThreadId{0};

std::uint32_t
allocThreadId()
{
    return gNextThreadId.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

std::uint32_t
currentThreadId()
{
    thread_local std::uint32_t id = allocThreadId();
    return id;
}

/** One recorded host span. */
struct HostSpan
{
    const char *name;
    std::uint64_t startNs;
    std::uint64_t endNs;
};

/** Per-thread buffer, owned by the session. Appends until spanCap,
 *  then becomes a ring overwriting the oldest span. */
struct ThreadBuf
{
    /** Guards spans/next/wrapped: the owning thread appends while a
     *  live /trace scrape snapshots. Uncontended on the hot path. */
    std::mutex mu;
    std::uint32_t tid = 0;
    std::vector<HostSpan> spans;
    /** Next overwrite slot once the ring has filled. */
    std::size_t next = 0;
    bool wrapped = false;
};

struct TraceSession::Impl
{
    /** Registration of thread buffers + external spans. Never taken
     *  on the span hot path. */
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuf>> buffers;
    std::vector<ExternalSpan> external;
    /** Time origin: host timestamps are exported relative to this. */
    std::uint64_t epochNs = detail::monotonicNowNs();
    /** CQ_TRACE=0 kill-switch, latched at construction. */
    bool envKilled = false;
    /** Per-thread ring capacity (CQ_TRACE_CAP; relaxed: a stale read
     *  merely delays the cap by one span). */
    std::atomic<std::size_t> spanCap{1000000};

    ThreadBuf *registerThread()
    {
        auto buf = std::make_unique<ThreadBuf>();
        buf->tid = currentThreadId();
        ThreadBuf *raw = buf.get();
        std::lock_guard<std::mutex> lock(mutex);
        buffers.push_back(std::move(buf));
        return raw;
    }
};

TraceSession::TraceSession()
    : impl_(new Impl)
{
    if (const char *env = std::getenv("CQ_TRACE"))
        impl_->envKilled = std::strcmp(env, "0") == 0;
    if (const char *env = std::getenv("CQ_TRACE_CAP")) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0')
            impl_->spanCap.store(static_cast<std::size_t>(v),
                                 std::memory_order_relaxed);
    }
}

TraceSession &
TraceSession::instance()
{
    // Leaky: spans may fire during static destruction of other TUs.
    static TraceSession *session = new TraceSession;
    return *session;
}

void
TraceSession::setEnabled(bool on)
{
    if (on && impl_->envKilled)
        on = false;
    detail::gTraceEnabled.store(on, std::memory_order_relaxed);
}

std::size_t
TraceSession::spanCap() const
{
    return impl_->spanCap.load(std::memory_order_relaxed);
}

void
TraceSession::setSpanCap(std::size_t cap)
{
    impl_->spanCap.store(cap, std::memory_order_relaxed);
}

void
TraceSession::record(const char *name, std::uint64_t start_ns,
                     std::uint64_t end_ns)
{
    thread_local ThreadBuf *buf = nullptr;
    if (buf == nullptr)
        buf = impl_->registerThread();
    const HostSpan span{name, start_ns, end_ns};
    const std::size_t cap = impl_->spanCap.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(buf->mu);
    if (buf->spans.size() < cap) {
        buf->spans.push_back(span);
        return;
    }
    // Ring full: overwrite the oldest slot and count the loss. The
    // counter is the only MetricRegistry touch on this path (an
    // atomic add); tracing stays observation-only.
    static Counter &dropped =
        MetricRegistry::instance().counter("obs.trace_dropped");
    dropped.inc();
    if (buf->spans.empty())
        return; // cap 0: record nothing, count everything
    if (buf->next >= buf->spans.size())
        buf->next = 0;
    buf->spans[buf->next++] = span;
    buf->wrapped = true;
}

void
TraceSession::addExternalSpan(ExternalSpan span)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->external.push_back(std::move(span));
}

void
TraceSession::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    // Buffers stay allocated: other threads cache raw pointers.
    for (auto &buf : impl_->buffers) {
        std::lock_guard<std::mutex> bl(buf->mu);
        buf->spans.clear();
        buf->next = 0;
        buf->wrapped = false;
    }
    impl_->external.clear();
    impl_->epochNs = detail::monotonicNowNs();
}

std::size_t
TraceSession::spanCount(const char *name_filter) const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::size_t n = 0;
    for (const auto &buf : impl_->buffers) {
        std::lock_guard<std::mutex> bl(buf->mu);
        for (const HostSpan &s : buf->spans) {
            if (name_filter == nullptr ||
                std::strcmp(s.name, name_filter) == 0)
                ++n;
        }
    }
    return n;
}

std::string
TraceSession::chromeTraceJson() const
{
    return chromeTraceJson(TraceExportFilter{});
}

std::string
TraceSession::chromeTraceJson(const TraceExportFilter &filter) const
{
    // Snapshot under the locks, serialize unlocked: a live /trace
    // scrape must not stall recording threads for the (much longer)
    // JSON-rendering phase. The per-buffer copy is a POD memcpy.
    struct BufSnap
    {
        std::uint32_t tid;
        std::vector<HostSpan> spans;
    };
    std::vector<BufSnap> snaps;
    std::vector<ExternalSpan> external;
    std::uint64_t epochNs = 0;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        snaps.reserve(impl_->buffers.size());
        for (const auto &buf : impl_->buffers) {
            std::lock_guard<std::mutex> bl(buf->mu);
            snaps.push_back({buf->tid, buf->spans});
        }
        if (!filter.active())
            external = impl_->external;
        epochNs = impl_->epochNs;
    }

    std::string out;
    out.reserve(1 << 16);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto comma = [&] {
        if (!first)
            out += ',';
        first = false;
    };

    const auto keep = [&](const HostSpan &s) {
        return filter.sinceNs == 0 || s.endNs >= filter.sinceNs;
    };

    // Process/thread naming metadata so Perfetto shows labeled tracks.
    comma();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":0,\"args\":{\"name\":\"cambricon-q host\"}}";
    for (const BufSnap &buf : snaps) {
        comma();
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":";
        out += std::to_string(buf.tid);
        out += ",\"args\":{\"name\":\"host-thread-";
        out += std::to_string(buf.tid);
        out += "\"}}";
    }

    for (const BufSnap &buf : snaps) {
        for (const HostSpan &s : buf.spans) {
            if (!keep(s))
                continue;
            comma();
            out += "{\"name\":";
            appendJsonString(out, s.name);
            out += ",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":";
            out += std::to_string(buf.tid);
            out += ",\"ts\":";
            const double ts_us =
                (s.startNs >= epochNs
                     ? static_cast<double>(s.startNs - epochNs)
                     : 0.0) /
                1000.0;
            appendJsonFixed(out, ts_us, 3);
            out += ",\"dur\":";
            appendJsonFixed(
                out,
                static_cast<double>(s.endNs - s.startNs) / 1000.0, 3);
            out += '}';
        }
    }

    if (filter.active()) {
        // Filtered exports (live /trace slices) carry host spans
        // only: external timelines keep their own time base.
        out += "]}";
        return out;
    }

    // External spans: pid 2, one tid per distinct track label.
    std::map<std::string, int> trackTid;
    for (const ExternalSpan &s : external) {
        auto it = trackTid.find(s.track);
        if (it == trackTid.end()) {
            const int tid = static_cast<int>(trackTid.size());
            trackTid.emplace(s.track, tid);
            comma();
            out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,"
                   "\"tid\":";
            out += std::to_string(tid);
            out += ",\"args\":{\"name\":";
            appendJsonString(out, s.track);
            out += "}}";
        }
    }
    if (!external.empty()) {
        comma();
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"tid\":0,\"args\":{\"name\":\"cambricon-q sim\"}}";
    }
    for (const ExternalSpan &s : external) {
        comma();
        out += "{\"name\":";
        appendJsonString(out, s.name);
        out += ",\"cat\":\"arch\",\"ph\":\"X\",\"pid\":2,\"tid\":";
        out += std::to_string(trackTid[s.track]);
        out += ",\"ts\":";
        appendJsonFixed(out, s.tsUs, 3);
        out += ",\"dur\":";
        appendJsonFixed(out, s.durUs, 3);
        if (!s.args.empty()) {
            out += ",\"args\":{";
            for (std::size_t i = 0; i < s.args.size(); ++i) {
                if (i > 0)
                    out += ',';
                appendJsonString(out, s.args[i].first);
                out += ':';
                appendJsonNumber(out, s.args[i].second);
            }
            out += '}';
        }
        out += '}';
    }

    out += "]}";
    return out;
}

bool
TraceSession::writeChromeTrace(const std::string &path) const
{
    static Counter &errors =
        MetricRegistry::instance().counter("obs.write_errors");
    const std::string json = chromeTraceJson();
    std::FILE *f = io::fopenFp("obs.trace.open", path, "wb");
    if (f == nullptr) {
        errors.inc();
        std::fprintf(stderr, "[warn] trace: cannot open %s\n",
                     path.c_str());
        return false;
    }
    const std::size_t n =
        io::fwriteFp("obs.trace.write", json.data(), json.size(), f);
    // fclose flushes stdio's buffer; its error return is the *last*
    // chance to learn the bytes never landed (a short fwrite above
    // already told us for the buffered portion).
    const bool closed = io::fcloseFp("obs.trace.close", f) == 0;
    if (n != json.size() || !closed) {
        errors.inc();
        std::fprintf(stderr, "[warn] trace: write to %s failed\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace cq::obs
