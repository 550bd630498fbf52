/**
 * @file
 * The live observability plane: a dependency-free blocking-accept
 * HTTP/1.0 server on one dedicated thread, serving the process's
 * metrics, health and recent trace spans while a run is in flight
 * (DESIGN.md §6).
 *
 * Endpoints:
 *
 *   GET /metrics        Prometheus text exposition
 *   GET /metrics.json   same snapshot as JSON
 *   GET /healthz        {"status","uptime_ms","degraded","components"}
 *   GET /trace?last_ms=N  recent host spans as Chrome trace JSON
 *                       (last 5000 ms when last_ms is absent)
 *
 * Failure policy — scraping must never abort or perturb the run:
 *
 *  - All reads are snapshots of thread-safe state (MetricRegistry,
 *    TraceSession, health callbacks returning owned copies); the
 *    server owns no training state.
 *  - Socket I/O runs through the failpoint seam (`obs.http.accept`,
 *    `obs.http.write`). An *injected* failure — modeling a broken
 *    kernel socket layer — latches a sticky degraded mode where
 *    connections are accepted and dropped (counted in
 *    `obs.http.dropped`), mirroring the telemetry sink's
 *    degraded-drop contract. A *real* per-connection error (peer
 *    reset, slow reader timeout) just drops that connection:
 *    one flaky scraper must not blind every later one.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cq::obs {

/**
 * Wiring the server to whatever the process is running. The health
 * callbacks are optional and must be thread-safe: they are invoked
 * from the server thread while the run proceeds, so they should
 * return owned snapshots (rendered JSON strings), never references
 * into mutating state.
 */
struct ObsServerConfig {
    /** Port to bind on 127.0.0.1; 0 = ephemeral (read back via
     *  port()). */
    int port = 0;
    /** Named /healthz components; each returns one JSON value. */
    std::vector<std::pair<std::string, std::function<std::string()>>>
        health;
};

class ObsServer {
  public:
    ObsServer() = default;
    ~ObsServer() { stop(); }
    ObsServer(const ObsServer &) = delete;
    ObsServer &operator=(const ObsServer &) = delete;

    /** Bind + listen + start the accept thread. False on bind/listen
     *  failure (port in use), with a stderr note. */
    bool start(ObsServerConfig config);

    /** Stop accepting, join the thread, close the socket. Idempotent. */
    void stop();

    bool running() const { return listenFd_ >= 0; }
    /** Actual bound port (ephemeral resolved), -1 when not running. */
    int port() const { return port_; }

    /** Sticky degraded-drop mode (see file header). */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }
    std::uint64_t requestsServed() const
    {
        return requests_.load(std::memory_order_relaxed);
    }
    std::uint64_t connectionsDropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop();
    void handleConnection(int fd);
    std::string routeRequest(const std::string &rawHead, int &statusOut,
                             std::string &contentTypeOut);

    ObsServerConfig config_;
    std::thread thread_;
    int listenFd_ = -1;
    int port_ = -1;
    std::uint64_t startNs_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<bool> degraded_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

} // namespace cq::obs
