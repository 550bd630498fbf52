/**
 * @file
 * System-wide failpoint framework: named fault-injection points with
 * typed actions and deterministic triggers.
 *
 * Every environment failure mode the persistence and sink layers must
 * survive — disk full, I/O error, short write, allocation failure,
 * slow disk — is declared as a *failpoint*: a named site evaluated
 * where the real operation would fail. In production nothing is
 * configured and a site costs one relaxed atomic load; under test a
 * site is armed with an action ("fail with ENOSPC", "accept 100 bytes
 * then fail", "delay 2 ms") and a trigger window (one-shot, every
 * Nth, after the Kth evaluation, at a byte offset, or with a seeded
 * probability), making each declared failure path individually and
 * exhaustively fireable — exact enumeration, not statistical hoping,
 * in the spirit of the exact-emulation verification ethos.
 *
 * Determinism: a trigger is a pure function of the site's evaluation
 * index (and, for byte triggers, its cumulative byte count). All
 * seam sites live on single-threaded paths (the trainer loop, the
 * async checkpoint writer thread, tool mains), so a given scenario
 * fires the identical sequence of failures at any CQ_THREADS — the
 * property the fault-sweep's bitwise-identity checks lean on. The
 * probabilistic trigger hashes (seed, site, index) with splitmix64,
 * so even "random" firing replays exactly.
 *
 * Configuration sources, in order:
 *   - the CQ_FAILPOINTS environment variable, parsed on first use
 *   - `cqsim --failpoints SPEC` / tool flags calling configure()
 *   - tests/tools calling configureOne() directly
 *
 * Spec grammar (';'-separated items):
 *   site '=' kind (',' key '=' value)*
 *   kind := off | fail | enospc | eio | short | delay | alloc
 *   keys := errno=<int> | us=<micros> | once=1 | every=<n> |
 *           after=<n> | limit=<n> | after_bytes=<n> | prob=<p> |
 *           seed=<s>
 * e.g. CQ_FAILPOINTS="ckpt.body.write=enospc,after_bytes=512;
 *                     obs.telemetry.write=fail,once=1"
 *
 * The canonical site list lives in declaredSites(); the fault-sweep
 * tool (tools/cq_faultsweep) enumerates it, fires every entry inside
 * short train/bench runs, and treats a site that is hit or
 * configured but not declared as a build failure — so an undeclared
 * failure path cannot silently join the codebase.
 */

#ifndef CQ_COMMON_FAILPOINT_H
#define CQ_COMMON_FAILPOINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace cq::fp {

/** What an armed failpoint does when its trigger fires. */
enum class ActionKind : int
{
    /** Not armed / trigger exhausted: proceed with the real work. */
    Off = 0,
    /** Fail the operation with a configured errno (default EIO). */
    Fail,
    /** Accept a prefix of the bytes, then fail with errno (default
     *  ENOSPC) — models a disk filling up mid-write. */
    ShortWrite,
    /** Sleep, then proceed — models a slow/contended disk. */
    Delay,
    /** Report an allocation failure; callers surface a typed error
     *  instead of letting std::bad_alloc unwind arbitrary code. */
    AllocFail,
};

/** Result of evaluating a site: Off almost always. */
struct Outcome
{
    ActionKind kind = ActionKind::Off;
    /** errno the failed operation should surface (Fail/ShortWrite). */
    int err = 0;
    /** ShortWrite: bytes of this call to accept before failing. */
    std::uint64_t acceptBytes = 0;
    /** Delay: how long to sleep. */
    std::uint64_t delayMicros = 0;

    explicit operator bool() const { return kind != ActionKind::Off; }
};

/** Parsed per-site configuration (action + trigger window). */
struct SiteConfig
{
    ActionKind kind = ActionKind::Off;
    int err = 0;                   // 0 = the kind's default errno
    std::uint64_t delayMicros = 1000;

    /** @name Trigger window (evaluation-index based) */
    /** @{ */
    std::uint64_t after = 0;       // skip the first `after` evals
    std::uint64_t every = 1;       // then fire every Nth
    std::uint64_t limit = 0;       // max fires (0 = unlimited)
    /** @} */
    /** Byte-offset trigger for write-class sites: fire once the
     *  site's cumulative byte count crosses this offset, and on every
     *  write after it (a full disk stays full). kNoByteTrigger = use
     *  the evaluation-index trigger instead. */
    std::uint64_t afterBytes = kNoByteTrigger;
    /** Seeded probability gate in [0,1]; 1.0 = always. */
    double prob = 1.0;
    std::uint64_t seed = 0;

    static constexpr std::uint64_t kNoByteTrigger = ~0ull;
};

/**
 * One named failpoint. Sites are created by the registry (lookup or
 * declared-table init) and never destroyed; references stay valid for
 * the process lifetime.
 */
class Site
{
  public:
    explicit Site(std::string name);

    const std::string &name() const { return name_; }

    /**
     * The per-call check. @p bytes is the size of the guarded
     * operation (0 for non-write operations); it feeds the
     * byte-offset trigger.
     */
    Outcome evaluate(std::uint64_t bytes = 0);

    /** Arm with @p config (Off disarms). Resets the trigger window
     *  (index, fire limit, byte origin) so a re-arm starts fresh; the
     *  cumulative evals()/fires() reporting counters are
     *  untouched. */
    void arm(const SiteConfig &config);
    bool armed() const;

    /** Zero the cumulative reporting counters and the trigger window
     *  (Registry::reset() calls this on every site). */
    void resetCounters();

    std::uint64_t evals() const;
    std::uint64_t fires() const;

    Site(const Site &) = delete;
    Site &operator=(const Site &) = delete;

  private:
    struct Impl;
    Impl *impl_;
    std::string name_;
};

/** One row of the sweep-facing status listing. */
struct SiteStatus
{
    std::string name;
    bool declared = false;
    bool armed = false;
    std::uint64_t evals = 0;
    std::uint64_t fires = 0;
};

/**
 * Process-wide failpoint registry (leaky singleton, thread-safe).
 * Site lookup is by dotted name; unknown names are registered
 * dynamically (the sweep's coverage audit flags any that are not in
 * the declared table).
 */
class Registry
{
  public:
    static Registry &instance();

    /** Lookup-or-create. The reference is valid forever. */
    Site &site(const std::string &name);

    /** Evaluate @p name (creating the site on first use). */
    Outcome evaluate(const std::string &name, std::uint64_t bytes = 0);

    /**
     * Parse and apply a ';'-separated spec (see file header). On a
     * malformed item nothing is applied and @p err (when non-null)
     * receives a one-line diagnostic.
     */
    bool configure(const std::string &spec, std::string *err = nullptr);

    /** Arm a single site from an action string ("enospc,once=1"). */
    bool configureOne(const std::string &site, const std::string &action,
                      std::string *err = nullptr);

    /** Disarm every site; keeps counters and hit history. */
    void disarmAll();

    /** Disarm everything and zero counters / hit history (tests,
     *  sweep trials). */
    void reset();

    /** Record every evaluated site name (sweep coverage discovery).
     *  Tracing also activates the evaluation slow path, so eval
     *  counters tick even for unarmed sites. */
    void setTrace(bool on);
    bool trace() const;

    /** Names evaluated at least once since the last reset(). */
    std::vector<std::string> hitSites() const;

    /** Names currently armed. */
    std::vector<std::string> armedSites() const;

    /** Per-site status of every known site (declared + dynamic). */
    std::vector<SiteStatus> status() const;

    /**
     * The canonical, checked-in list of every failpoint the codebase
     * declares. The registry pre-creates these at construction so
     * enumeration never depends on a code path having run.
     */
    static const std::vector<std::string> &declaredSites();

    static bool isDeclared(const std::string &name);

    /** True when any site is armed or tracing is on — the fast-path
     *  gate evaluate() checks first. */
    bool active() const;

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

  private:
    Registry();
    struct Impl;
    Impl *impl_;
};

/** Parse an action string into a config. Exposed for tests. */
bool parseAction(const std::string &action, SiteConfig &out,
                 std::string *err = nullptr);

/** Shorthand used at seam call sites. */
inline Outcome
evaluate(const std::string &site, std::uint64_t bytes = 0)
{
    return Registry::instance().evaluate(site, bytes);
}

} // namespace cq::fp

/**
 * Failpoint check macro for code-level (non-I/O-seam) sites:
 *
 *   if (auto fpo = CQ_FAILPOINT("obs.http.accept")) { ...typed error... }
 */
#define CQ_FAILPOINT(site) (::cq::fp::evaluate((site)))
#define CQ_FAILPOINT_BYTES(site, bytes) (::cq::fp::evaluate((site), (bytes)))

#endif // CQ_COMMON_FAILPOINT_H
