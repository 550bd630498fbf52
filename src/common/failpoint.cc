/**
 * @file
 * Implementation of the failpoint registry.
 */

#include "common/failpoint.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include <unistd.h>

#include "common/logging.h"
#include "obs/metrics.h"

namespace cq::fp {

namespace {

/** splitmix64 — good avalanche for (seed, site, index) hashing. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

int
defaultErrnoFor(ActionKind kind)
{
    switch (kind) {
      case ActionKind::ShortWrite: return ENOSPC;
      case ActionKind::AllocFail:  return ENOMEM;
      default:                     return EIO;
    }
}

} // namespace

// ----------------------------------------------------------------- Site

struct Site::Impl
{
    mutable std::mutex mutex;
    SiteConfig config;
    bool armed = false;
    /** @name Trigger-window state, reset by every arm()/disarm so a
     *  re-arm starts a fresh window. */
    /** @{ */
    std::uint64_t winEvals = 0;
    std::uint64_t winFires = 0;
    std::uint64_t winBytes = 0;
    /** @} */
    /** @name Cumulative reporting counters — survive disarm (the
     *  sweep reads fires() after restoring clean I/O) and zero only
     *  via resetCounters() / Registry::reset(). */
    /** @{ */
    std::uint64_t evals = 0;
    std::uint64_t fires = 0;
    /** @} */
};

Site::Site(std::string name) : impl_(new Impl), name_(std::move(name))
{
}

void
Site::arm(const SiteConfig &config)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->config = config;
    impl_->armed = config.kind != ActionKind::Off;
    impl_->winEvals = 0;
    impl_->winFires = 0;
    impl_->winBytes = 0;
}

void
Site::resetCounters()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->winEvals = 0;
    impl_->winFires = 0;
    impl_->winBytes = 0;
    impl_->evals = 0;
    impl_->fires = 0;
}

bool
Site::armed() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->armed;
}

std::uint64_t
Site::evals() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->evals;
}

std::uint64_t
Site::fires() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->fires;
}

Outcome
Site::evaluate(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    Impl &s = *impl_;
    ++s.evals;
    const std::uint64_t index = s.winEvals++;
    if (!s.armed) {
        s.winBytes += bytes;
        return {};
    }
    const SiteConfig &c = s.config;
    if (c.limit != 0 && s.winFires >= c.limit) {
        s.winBytes += bytes;
        return {};
    }

    Outcome out;
    out.kind = c.kind;
    out.err = c.err != 0 ? c.err : defaultErrnoFor(c.kind);
    out.delayMicros = c.delayMicros;

    if (c.afterBytes != SiteConfig::kNoByteTrigger) {
        // Byte-offset trigger: fire the first call that crosses the
        // offset (splitting it so the accepted prefix lands exactly
        // there) and every call after it — a disk that filled up
        // stays full until the site is re-armed.
        const std::uint64_t lo = s.winBytes;
        s.winBytes += bytes;
        if (c.afterBytes >= lo + bytes && bytes > 0)
            return {};
        if (c.afterBytes >= lo && bytes == 0)
            return {};
        out.acceptBytes = c.afterBytes > lo ? c.afterBytes - lo : 0;
        if (out.kind == ActionKind::Fail && out.acceptBytes > 0)
            out.kind = ActionKind::ShortWrite;
        ++s.winFires;
        ++s.fires;
        return out;
    }

    s.winBytes += bytes;
    if (index < c.after)
        return {};
    if (c.every > 1 && (index - c.after) % c.every != 0)
        return {};
    if (c.prob < 1.0) {
        const std::uint64_t h =
            splitmix64(c.seed ^ fnv1a(name_) ^ index);
        const double u =
            static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
        if (u >= c.prob)
            return {};
    }
    if (out.kind == ActionKind::ShortWrite)
        out.acceptBytes = bytes / 2;
    ++s.winFires;
    ++s.fires;
    return out;
}

// ------------------------------------------------------------- Registry

struct Registry::Impl
{
    mutable std::mutex mutex;
    std::map<std::string, Site *> sites;
    std::set<std::string> hits;
    std::size_t armedCount = 0;
    bool trace = false;
    /** Lock-free fast-path gate mirroring (armedCount > 0 || trace). */
    std::atomic<bool> active{false};

    void
    refreshActiveLocked()
    {
        active.store(armedCount > 0 || trace,
                     std::memory_order_relaxed);
    }
};

const std::vector<std::string> &
Registry::declaredSites()
{
    // The canonical failpoint inventory. Adding a CQ_FAILPOINT / io
    // seam site means adding its name here; tools/cq_faultsweep
    // audits hit-but-undeclared sites and CI fails on them.
    static const std::vector<std::string> kDeclared = {
        // Checkpoint generation bodies (writeCheckpointEx).
        "ckpt.body.open",
        "ckpt.body.write",
        "ckpt.body.fsync",
        "ckpt.body.close",
        "ckpt.body.rename",
        "ckpt.body.dirfsync",
        // Generation-store manifest rewrites (writeTextFileDurable).
        "ckpt.manifest.open",
        "ckpt.manifest.write",
        "ckpt.manifest.fsync",
        "ckpt.manifest.close",
        "ckpt.manifest.rename",
        "ckpt.manifest.dirfsync",
        // Checkpoint read / verify path.
        "ckpt.read.open",
        "ckpt.read.read",
        "ckpt.read.alloc",
        // fileutil primitives.
        "fs.listdir",
        "fs.crc.open",
        "fs.crc.read",
        "fs.fsync_path",
        // Observability sinks (output-only: firing these may degrade
        // the outputs but must never perturb training).
        "obs.telemetry.open",
        "obs.telemetry.write",
        "obs.telemetry.flush",
        "obs.trace.open",
        "obs.trace.write",
        "obs.trace.close",
        "obs.metrics.open",
        "obs.metrics.write",
        "obs.metrics.close",
        // Live HTTP scrape surface (obs_server): injected failures
        // latch the server's sticky degraded-drop mode.
        "obs.http.accept",
        "obs.http.write",
        // Bench trajectory writer (typed error propagation).
        "bench.json.open",
        "bench.json.write",
        "bench.json.close",
    };
    return kDeclared;
}

bool
Registry::isDeclared(const std::string &name)
{
    const auto &d = declaredSites();
    return std::find(d.begin(), d.end(), name) != d.end();
}

Registry::Registry() : impl_(new Impl)
{
    for (const std::string &name : declaredSites())
        impl_->sites.emplace(name, new Site(name));
    if (const char *env = std::getenv("CQ_FAILPOINTS")) {
        std::string err;
        if (!configure(env, &err))
            warn("failpoint: bad CQ_FAILPOINTS: %s", err.c_str());
    }
}

Registry &
Registry::instance()
{
    static Registry *registry = new Registry; // leaky singleton
    return *registry;
}

Site &
Registry::site(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->sites.find(name);
    if (it == impl_->sites.end())
        it = impl_->sites.emplace(name, new Site(name)).first;
    return *it->second;
}

bool
Registry::active() const
{
    return impl_->active.load(std::memory_order_relaxed);
}

Outcome
Registry::evaluate(const std::string &name, std::uint64_t bytes)
{
    if (!active())
        return {};
    Site *s;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        auto it = impl_->sites.find(name);
        if (it == impl_->sites.end())
            it = impl_->sites.emplace(name, new Site(name)).first;
        s = it->second;
        if (impl_->trace)
            impl_->hits.insert(name);
    }
    Outcome out = s->evaluate(bytes);
    if (out) {
        static obs::Counter &fired =
            obs::MetricRegistry::instance().counter("failpoint.fired");
        fired.inc();
        obs::MetricRegistry::instance()
            .counter("failpoint.fired." + name)
            .inc();
        if (out.kind == ActionKind::Delay && out.delayMicros > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(out.delayMicros));
        }
    }
    return out;
}

bool
Registry::configureOne(const std::string &siteName,
                       const std::string &action, std::string *err)
{
    SiteConfig config;
    if (!parseAction(action, config, err))
        return false;
    Site &s = site(siteName);
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        if (s.armed())
            --impl_->armedCount;
        // (arm below re-counts)
    }
    s.arm(config);
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        if (config.kind != ActionKind::Off)
            ++impl_->armedCount;
        impl_->refreshActiveLocked();
    }
    return true;
}

bool
Registry::configure(const std::string &spec, std::string *err)
{
    // Parse the whole spec first so a malformed tail cannot leave a
    // half-applied configuration armed.
    std::vector<std::pair<std::string, std::string>> items;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
            if (err != nullptr)
                *err = "expected site=action in '" + item + "'";
            return false;
        }
        SiteConfig probe;
        const std::string action = item.substr(eq + 1);
        if (!parseAction(action, probe, err))
            return false;
        items.emplace_back(item.substr(0, eq), action);
    }
    for (const auto &kv : items) {
        if (!configureOne(kv.first, kv.second, err))
            return false;
    }
    return true;
}

void
Registry::disarmAll()
{
    std::vector<Site *> sites;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        for (auto &kv : impl_->sites)
            sites.push_back(kv.second);
        impl_->armedCount = 0;
        impl_->refreshActiveLocked();
    }
    for (Site *s : sites)
        s->arm(SiteConfig{});
}

void
Registry::reset()
{
    disarmAll();
    std::vector<Site *> sites;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->hits.clear();
        for (auto &kv : impl_->sites)
            sites.push_back(kv.second);
    }
    for (Site *s : sites)
        s->resetCounters();
}

void
Registry::setTrace(bool on)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->trace = on;
    impl_->refreshActiveLocked();
}

bool
Registry::trace() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->trace;
}

std::vector<std::string>
Registry::hitSites() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return {impl_->hits.begin(), impl_->hits.end()};
}

std::vector<std::string>
Registry::armedSites() const
{
    std::vector<std::pair<std::string, Site *>> sites;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        for (auto &kv : impl_->sites)
            sites.emplace_back(kv.first, kv.second);
    }
    std::vector<std::string> armed;
    for (auto &kv : sites) {
        if (kv.second->armed())
            armed.push_back(kv.first);
    }
    return armed;
}

std::vector<SiteStatus>
Registry::status() const
{
    std::vector<std::pair<std::string, Site *>> sites;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        for (auto &kv : impl_->sites)
            sites.emplace_back(kv.first, kv.second);
    }
    std::vector<SiteStatus> out;
    out.reserve(sites.size());
    for (auto &kv : sites) {
        SiteStatus st;
        st.name = kv.first;
        st.declared = isDeclared(kv.first);
        st.armed = kv.second->armed();
        st.evals = kv.second->evals();
        st.fires = kv.second->fires();
        out.push_back(std::move(st));
    }
    return out;
}

// --------------------------------------------------------- spec parsing

namespace {

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseErrnoValue(const std::string &s, int &out)
{
    if (s == "enospc") { out = ENOSPC; return true; }
    if (s == "eio")    { out = EIO;    return true; }
    if (s == "enoent") { out = ENOENT; return true; }
    if (s == "eacces") { out = EACCES; return true; }
    if (s == "enomem") { out = ENOMEM; return true; }
    std::uint64_t v = 0;
    if (!parseU64(s, v) || v == 0 || v > 4096)
        return false;
    out = static_cast<int>(v);
    return true;
}

} // namespace

bool
parseAction(const std::string &action, SiteConfig &out,
            std::string *err)
{
    const auto fail = [&](const std::string &why) {
        if (err != nullptr)
            *err = why + " in '" + action + "'";
        return false;
    };
    SiteConfig config;
    std::size_t pos = 0;
    bool first = true;
    while (pos <= action.size()) {
        std::size_t end = action.find(',', pos);
        if (end == std::string::npos)
            end = action.size();
        const std::string tok = action.substr(pos, end - pos);
        pos = end + 1;
        if (tok.empty()) {
            if (first)
                return fail("empty action");
            continue;
        }
        if (first) {
            first = false;
            if (tok == "off")
                config.kind = ActionKind::Off;
            else if (tok == "fail")
                config.kind = ActionKind::Fail;
            else if (tok == "enospc") {
                config.kind = ActionKind::Fail;
                config.err = ENOSPC;
            } else if (tok == "eio") {
                config.kind = ActionKind::Fail;
                config.err = EIO;
            } else if (tok == "short")
                config.kind = ActionKind::ShortWrite;
            else if (tok == "delay")
                config.kind = ActionKind::Delay;
            else if (tok == "alloc")
                config.kind = ActionKind::AllocFail;
            else
                return fail("unknown action kind '" + tok + "'");
            continue;
        }
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail("expected key=value, got '" + tok + "'");
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        std::uint64_t u = 0;
        if (key == "errno") {
            if (!parseErrnoValue(val, config.err))
                return fail("bad errno '" + val + "'");
        } else if (key == "us") {
            if (!parseU64(val, config.delayMicros))
                return fail("bad us '" + val + "'");
        } else if (key == "once") {
            if (val != "1")
                return fail("once takes only 1");
            config.limit = 1;
        } else if (key == "every") {
            if (!parseU64(val, u) || u == 0)
                return fail("bad every '" + val + "'");
            config.every = u;
        } else if (key == "after") {
            if (!parseU64(val, config.after))
                return fail("bad after '" + val + "'");
        } else if (key == "limit") {
            if (!parseU64(val, config.limit))
                return fail("bad limit '" + val + "'");
        } else if (key == "after_bytes") {
            if (!parseU64(val, config.afterBytes) ||
                config.afterBytes == SiteConfig::kNoByteTrigger) {
                return fail("bad after_bytes '" + val + "'");
            }
        } else if (key == "prob") {
            char *endp = nullptr;
            errno = 0;
            const double p = std::strtod(val.c_str(), &endp);
            if (errno != 0 || endp == nullptr || *endp != '\0' ||
                !(p >= 0.0 && p <= 1.0)) {
                return fail("bad prob '" + val + "'");
            }
            config.prob = p;
        } else if (key == "seed") {
            if (!parseU64(val, config.seed))
                return fail("bad seed '" + val + "'");
        } else {
            return fail("unknown key '" + key + "'");
        }
    }
    if (first)
        return fail("empty action");
    out = config;
    return true;
}

} // namespace cq::fp
