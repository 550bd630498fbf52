#include "obs/obs_server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "obs/http_export.h"
#include "obs/jsonw.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cq::obs {

namespace {

/** /trace window when the request has no last_ms. */
constexpr std::uint64_t kTraceDefaultLastMs = 5000;

Counter &
requestsCounter()
{
    static Counter &c =
        MetricRegistry::instance().counter("obs.http.requests");
    return c;
}

Counter &
errorsCounter()
{
    static Counter &c =
        MetricRegistry::instance().counter("obs.http.errors");
    return c;
}

Counter &
droppedCounter()
{
    static Counter &c =
        MetricRegistry::instance().counter("obs.http.dropped");
    return c;
}

void
setConnTimeouts(int fd)
{
    timeval tv;
    tv.tv_sec = 2;
    tv.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

} // namespace

bool
ObsServer::start(ObsServerConfig config)
{
    if (running())
        return false;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        std::fprintf(stderr, "[warn] obs: socket() failed: %s\n",
                     std::strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        std::fprintf(stderr, "[warn] obs: cannot listen on port %d: %s\n",
                     config.port, std::strerror(errno));
        ::close(fd);
        return false;
    }
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) !=
        0) {
        ::close(fd);
        return false;
    }

    config_ = std::move(config);
    listenFd_ = fd;
    port_ = static_cast<int>(ntohs(bound.sin_port));
    startNs_ = detail::monotonicNowNs();
    stop_.store(false, std::memory_order_relaxed);
    degraded_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
ObsServer::stop()
{
    if (!running())
        return;
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    port_ = -1;
}

void
ObsServer::acceptLoop()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0)
            continue; // timeout (re-check stop flag) or EINTR
        const int conn = ::accept(listenFd_, nullptr, nullptr);
        if (conn < 0) {
            errorsCounter().inc();
            continue;
        }
        // The accept seam models the kernel socket layer going bad
        // underneath us; an injected failure latches the sticky
        // degraded-drop mode (a dead scrape surface, never a dead
        // trainer). Delay models an overloaded accept queue.
        if (const auto fpo = CQ_FAILPOINT("obs.http.accept")) {
            if (fpo.kind == fp::ActionKind::Delay) {
                ::usleep(static_cast<useconds_t>(fpo.delayMicros));
            } else {
                if (!degraded_.exchange(true,
                                        std::memory_order_relaxed)) {
                    std::fprintf(stderr,
                                 "[warn] obs: http accept failed "
                                 "(injected); entering degraded "
                                 "drop mode\n");
                }
                errorsCounter().inc();
            }
        }
        if (degraded_.load(std::memory_order_relaxed)) {
            droppedCounter().inc();
            dropped_.fetch_add(1, std::memory_order_relaxed);
            ::close(conn);
            continue;
        }
        handleConnection(conn);
        ::close(conn);
    }
}

void
ObsServer::handleConnection(int fd)
{
    setConnTimeouts(fd);
    std::string head;
    char buf[4096];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.size() < (64u << 10)) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        head.append(buf, static_cast<std::size_t>(n));
        // HTTP/1.0 GETs have no body; the request line is enough.
        if (head.find("\r\n") != std::string::npos)
            break;
    }
    if (head.empty()) {
        errorsCounter().inc();
        return;
    }

    int status = 500;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body = routeRequest(head, status, contentType);
    const std::string response = httpResponse(status, contentType, body);

    std::size_t sent = 0;
    while (sent < response.size()) {
        const std::size_t remaining = response.size() - sent;
        // The write seam sits where send(2) would fail (ENOSPC-class
        // socket buffer exhaustion, kernel teardown). Injected
        // failures latch degraded mode like the accept seam.
        if (const auto fpo =
                CQ_FAILPOINT_BYTES("obs.http.write", remaining)) {
            if (fpo.kind == fp::ActionKind::Delay) {
                ::usleep(static_cast<useconds_t>(fpo.delayMicros));
            } else {
                if (!degraded_.exchange(true,
                                        std::memory_order_relaxed)) {
                    std::fprintf(stderr,
                                 "[warn] obs: http write failed "
                                 "(injected); entering degraded "
                                 "drop mode\n");
                }
                errorsCounter().inc();
                droppedCounter().inc();
                dropped_.fetch_add(1, std::memory_order_relaxed);
                return;
            }
        }
        // MSG_NOSIGNAL: a scraper hanging up mid-response must surface
        // as EPIPE here, not SIGPIPE the whole process.
        const ssize_t n = ::send(fd, response.data() + sent, remaining,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            // Real per-connection failure (peer reset / timeout):
            // count it and move on, NOT sticky — one flaky scraper
            // must not blind later ones.
            errorsCounter().inc();
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
    requestsCounter().inc();
    requests_.fetch_add(1, std::memory_order_relaxed);
}

std::string
ObsServer::routeRequest(const std::string &rawHead, int &statusOut,
                        std::string &contentTypeOut)
{
    HttpRequest req;
    if (!parseHttpRequest(rawHead, req)) {
        statusOut = 400;
        contentTypeOut = "text/plain; charset=utf-8";
        return "bad request\n";
    }
    if (req.method != "GET") {
        statusOut = 405;
        contentTypeOut = "text/plain; charset=utf-8";
        return "method not allowed\n";
    }

    try {
        if (req.path == "/metrics") {
            statusOut = 200;
            contentTypeOut = "text/plain; version=0.0.4; charset=utf-8";
            return MetricRegistry::instance().promText();
        }
        if (req.path == "/metrics.json") {
            statusOut = 200;
            contentTypeOut = "application/json";
            return MetricRegistry::instance().jsonText();
        }
        if (req.path == "/healthz") {
            std::string body = "{\"status\":\"ok\",\"uptime_ms\":";
            const std::uint64_t up =
                (detail::monotonicNowNs() - startNs_) / 1000000u;
            body += std::to_string(up);
            body += ",\"degraded\":";
            body += degraded() ? "true" : "false";
            body += ",\"components\":{";
            bool first = true;
            for (const auto &comp : config_.health) {
                if (!first)
                    body += ',';
                first = false;
                appendJsonString(body, comp.first);
                body += ':';
                body += comp.second();
            }
            body += "}}";
            statusOut = 200;
            contentTypeOut = "application/json";
            return body;
        }
        if (req.path == "/trace") {
            const std::string lastMsStr = httpQueryParam(
                req, "last_ms", std::to_string(kTraceDefaultLastMs));
            char *end = nullptr;
            const unsigned long long lastMs =
                std::strtoull(lastMsStr.c_str(), &end, 10);
            if (end == lastMsStr.c_str() || *end != '\0') {
                statusOut = 400;
                contentTypeOut = "text/plain; charset=utf-8";
                return "bad last_ms\n";
            }
            TraceExportFilter filter;
            if (lastMs != 0) {
                const std::uint64_t now = detail::monotonicNowNs();
                const std::uint64_t window = lastMs * 1000000ull;
                filter.sinceNs = now > window ? now - window : 1;
            }
            statusOut = 200;
            contentTypeOut = "application/json";
            return TraceSession::instance().chromeTraceJson(filter);
        }
    } catch (const std::exception &e) {
        statusOut = 503;
        contentTypeOut = "text/plain; charset=utf-8";
        errorsCounter().inc();
        return std::string("provider error: ") + e.what() + "\n";
    }

    statusOut = 404;
    contentTypeOut = "text/plain; charset=utf-8";
    return "not found\n";
}

} // namespace cq::obs
