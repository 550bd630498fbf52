/**
 * @file
 * Exhaustive failpoint sweep: fire every declared failpoint (and
 * sampled pairs) inside short train / bench runs and
 * assert the four robustness invariants:
 *
 *   1. no crash    - the child process exits normally (no signal)
 *   2. no hang     - the child finishes inside a hard deadline (the
 *                    parent kills and flags it otherwise; the legs
 *                    also carry a CancelToken deadline as a second
 *                    fence)
 *   3. typed path  - the failure surfaced through the scenario's
 *                    typed handling (training completed, the store
 *                    still verifies, the bench export failed with an
 *                    error, ...)
 *   4. no committed step lost - whenever any checkpoint generation
 *                    exists on disk after the storm, loadLatest()
 *                    classifies Ok
 *
 * plus the coverage audit: any site that was evaluated but is absent
 * from the declared table (common/failpoint.h declaredSites()) fails
 * the sweep, so an unregistered failure path cannot silently join
 * the codebase (--mode selftest proves the audit fires).
 *
 * Modes (--mode):
 *   sweep        one trial per declared site (default action
 *                "fail,once=1", override with --action)
 *   pairs        sampled two-site trials within a scenario family
 *   enospc       byte-offset scan: disk turns (and stays) full at
 *                every --enospc-stride'th byte of the checkpoint
 *                body / manifest write streams
 *   obs-identity instrumented run with every obs.* sink failpoint
 *                firing must train bitwise identically (mastersCrc)
 *                to a dark run
 *   selftest     an unregistered failure path must be caught
 *   list         print the declared site table
 *   all          sweep + pairs + enospc + obs-identity + selftest
 *
 * Every trial is an isolated trial (common/isolated_trial.h): a
 * genuinely dying child never takes the sweep down, and the parent
 * classifies how it ended. Exits 0
 * iff no trial crashed, hung, or violated an invariant AND at least
 * --min-covered sites actually fired.
 *
 * Without --dir the trials run in a fresh cq_faultsweep.XXXXXX tree
 * under $TMPDIR (default /tmp). A passing sweep removes it; a failing
 * one keeps it and prints its path.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/argparse.h"
#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/isolated_trial.h"
#include "common/rng.h"
#include "harness/export.h"
#include "nn/guard/ckpt_store.h"
#include "nn/guard/crash_harness.h"
#include "obs/http_export.h"
#include "obs/obs_server.h"

using namespace cq;

namespace {

constexpr const char *kProg = "cq_faultsweep";

/** Child exit codes (anything else, or a signal, is a fatal crash). */
enum ChildExit : int
{
    kHandled = 0,
    /** The scenario never reached the armed site (coverage gap, not
     *  a failure): e.g. a byte offset past the end of the stream. */
    kNotCovered = 40,
    /** A site was evaluated that is not in the declared table. */
    kUndeclaredSite = 42,
    /** A robustness invariant did not hold. */
    kInvariantViolation = 43,
};

/** One armed site for a trial. */
struct Arm
{
    std::string site;
    std::string action;
};

struct Options
{
    std::string mode = "all";
    std::string filter;
    std::string action = "fail,once=1";
    std::string dir;
    std::uint64_t pairs = 12;
    std::uint64_t enospcStride = 997;
    std::uint64_t timeoutMs = kTrialTimeoutMs;
    std::uint64_t seed = 1;
    std::uint64_t minCovered = 0;
    bool verbose = false;
};

struct Tally
{
    unsigned handled = 0;
    unsigned notCovered = 0;
    unsigned undeclared = 0;
    unsigned invariant = 0;
    unsigned crashed = 0;
    unsigned hung = 0;
    std::vector<std::string> coveredSites;

    bool
    clean() const
    {
        return undeclared == 0 && invariant == 0 && crashed == 0 &&
               hung == 0;
    }

    void
    cover(const std::string &site)
    {
        if (std::find(coveredSites.begin(), coveredSites.end(),
                      site) == coveredSites.end())
            coveredSites.push_back(site);
    }
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/**
 * Scenario family of a site. Sites of one family fire inside the same
 * short run, which is also the sampling domain for --mode pairs.
 */
std::string
familyOf(const std::string &site)
{
    if (startsWith(site, "obs."))
        return "obs";
    if (startsWith(site, "bench.json."))
        return "bench";
    // ckpt.* and fs.* all fire inside the checkpointed resume leg.
    return "ckpt";
}

// --------------------------------------------------------- scenarios
// Each runs in the trial's child: arm the sites, set trace mode, run
// the short leg, then check the family's invariants. Return a
// ChildExit (fired/coverage accounting happens in the caller).

void
armAll(const std::vector<Arm> &arms)
{
    for (const Arm &a : arms) {
        std::string err;
        if (!fp::Registry::instance().configureOne(a.site, a.action,
                                                   &err)) {
            std::fprintf(stderr, "%s: bad action '%s': %s\n", kProg,
                         a.action.c_str(), err.c_str());
            std::exit(2);
        }
    }
}

/** Invariant 4: if any generation file survives under @p dir, the
 *  store must still produce a verifying-Ok load. */
bool
storeStillLoads(const std::string &dir)
{
    fp::Registry::instance().disarmAll(); // verify with clean I/O
    std::vector<std::string> names;
    if (!listDirEx(dir, names))
        return true; // store never materialized
    bool anyGen = false;
    for (const std::string &n : names)
        anyGen = anyGen ||
                 nn::guard::CheckpointStore::parseGenerationFileName(
                     n) != 0;
    if (!anyGen)
        return true;
    nn::guard::CheckpointStoreConfig cfg;
    cfg.dir = dir;
    nn::guard::CheckpointStore store(cfg);
    nn::guard::TrainerSnapshot snap;
    return store.loadLatest(snap).result ==
           nn::guard::CheckpointLoadResult::Ok;
}

/**
 * The checkpoint-family leg: a clean leg populates the store, then
 * the armed sites fire inside a resumed leg (covers the write ladder,
 * the manifest rewrite, the read/verify path and the fs helpers).
 */
int
runCkptScenario(const std::string &dir, const std::vector<Arm> &arms,
                CancelToken &cancel)
{
    nn::guard::CrashHarnessConfig cfg;
    cfg.seed = 21;
    cfg.steps = 8;
    cfg.batchSize = 16;
    cfg.dir = dir + "/store";
    cfg.ckptEvery = 2;
    cfg.ckptKeep = 2;
    cfg.asyncCheckpoint = false; // deterministic fire points
    cfg.cancel = &cancel;
    nn::guard::runCrashHarness(cfg);

    armAll(arms);
    cfg.resume = true;
    cfg.steps = 16;
    const auto r = nn::guard::runCrashHarness(cfg);
    if (r.cancelled)
        return kInvariantViolation; // deadline hit: the leg wedged
    // Training must survive any single persistence failure.
    if (r.stepsRun == 0)
        return kInvariantViolation;
    return storeStillLoads(cfg.dir) ? kHandled : kInvariantViolation;
}

/**
 * A live ObsServer on an ephemeral port, scraped from a sidecar
 * thread while it lives, so the obs.http.* sites evaluate. An armed
 * obs.http.* site turns scrapes into dropped connections; the scraper
 * must simply shrug.
 */
class ScrapedObsServer
{
  public:
    ScrapedObsServer()
    {
        if (server_.start(obs::ObsServerConfig{}))
            scraper_ = std::thread([this] {
                while (!stop_.load()) {
                    scrape("/metrics");
                    ::usleep(2000);
                }
            });
    }

    /** One last scrape before stopping, so obs.http.accept and
     *  obs.http.write are evaluated even on a machine where the leg
     *  outruns the sidecar's first connect. */
    ~ScrapedObsServer()
    {
        if (!scraper_.joinable())
            return;
        scrape("/healthz");
        stop_.store(true);
        scraper_.join();
    }

    ScrapedObsServer(const ScrapedObsServer &) = delete;
    ScrapedObsServer &operator=(const ScrapedObsServer &) = delete;

  private:
    void
    scrape(const char *path)
    {
        int status = 0;
        std::string body;
        obs::httpGet(server_.port(), path, status, body, 500);
    }

    obs::ObsServer server_;
    std::atomic<bool> stop_{false};
    std::thread scraper_;
};

/** Single leg with every observability output on, while a live
 *  ObsServer is scraped; an obs failure must never stop training. */
int
runObsScenario(const std::string &dir, const std::vector<Arm> &arms,
               CancelToken &cancel)
{
    armAll(arms);
    ScrapedObsServer server;

    nn::guard::CrashHarnessConfig cfg;
    cfg.seed = 23;
    cfg.steps = 8;
    cfg.batchSize = 16;
    cfg.cancel = &cancel;
    cfg.telemetryOut = dir + "/telemetry.jsonl";
    cfg.traceOut = dir + "/trace.json";
    cfg.metricsOut = dir + "/metrics.prom";
    cfg.metricsEvery = 2;
    const auto r = nn::guard::runCrashHarness(cfg);
    return (!r.cancelled && r.stepsRun == cfg.steps)
               ? kHandled
               : kInvariantViolation;
}

/** Export a BENCH_*.json; a failed write must surface through the
 *  error string, never as a silent half-file. */
int
runBenchScenario(const std::string &dir, const std::vector<Arm> &arms,
                 CancelToken &)
{
    bench::RunRecord rec;
    rec.name = "faultsweep_probe";
    rec.area = "faultsweep";
    rec.result.set("probe", 1.0);
    bench::WorkloadContext ctx;
    const bench::Provenance prov = bench::Provenance::capture(ctx);

    armAll(arms);
    std::string err;
    const auto written = bench::writeBenchJsonFiles(
        {rec}, prov, dir + "/bench", err);
    fp::Registry::instance().disarmAll();
    if (!err.empty())
        return kHandled; // typed failure
    if (written.size() != 1 || fileSize(written[0]) <= 2)
        return kInvariantViolation; // silent loss
    return kHandled;
}

/**
 * Child body for one trial; returns a ChildExit. @p family picks the
 * scenario; arms fire inside it.
 */
int
trialBody(const std::string &family, const std::string &dir,
          const std::vector<Arm> &arms, std::uint64_t timeoutMs)
{
    fp::Registry::instance().reset();
    fp::Registry::instance().setTrace(true);
    CancelToken cancel;
    cancel.setDeadlineInMs(timeoutMs);

    int rc;
    if (family == "obs")
        rc = runObsScenario(dir, arms, cancel);
    else if (family == "bench")
        rc = runBenchScenario(dir, arms, cancel);
    else
        rc = runCkptScenario(dir, arms, cancel);

    // Coverage audit: everything evaluated must be declared.
    for (const std::string &s :
         fp::Registry::instance().hitSites()) {
        if (!fp::Registry::isDeclared(s)) {
            std::fprintf(stderr,
                         "%s: site '%s' was evaluated but is not in "
                         "the declared table (common/failpoint.cc)\n",
                         kProg, s.c_str());
            return kUndeclaredSite;
        }
    }
    // Did the armed sites actually fire?
    if (rc == kHandled) {
        std::uint64_t fires = 0;
        for (const Arm &a : arms)
            fires += fp::Registry::instance().site(a.site).fires();
        if (fires == 0)
            return kNotCovered;
    }
    return rc;
}

// ----------------------------------------------------------- parent

/** Outcome classification of one reaped child. */
enum class TrialResult
{
    Handled,
    NotCovered,
    Undeclared,
    Invariant,
    Crashed,
    Hung,
};

const char *
trialResultName(TrialResult r)
{
    switch (r) {
      case TrialResult::Handled:    return "handled";
      case TrialResult::NotCovered: return "not-covered";
      case TrialResult::Undeclared: return "UNDECLARED-SITE";
      case TrialResult::Invariant:  return "INVARIANT-VIOLATION";
      case TrialResult::Crashed:    return "CRASHED";
      case TrialResult::Hung:       return "HUNG";
    }
    return "?";
}

/** Classify how a trial's child ended (invariants 1 and 2). */
TrialResult
classify(const TrialEnd &end)
{
    if (end.kind == TrialEnd::Kind::Hung)
        return TrialResult::Hung;
    if (end.kind != TrialEnd::Kind::Exited)
        return TrialResult::Crashed;
    switch (end.code) {
      case kHandled:            return TrialResult::Handled;
      case kNotCovered:         return TrialResult::NotCovered;
      case kUndeclaredSite:     return TrialResult::Undeclared;
      case kInvariantViolation: return TrialResult::Invariant;
      default:                  return TrialResult::Crashed;
    }
}

std::string
trialDir(const Options &opt, unsigned index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/trial-%04u", index);
    const std::string d = opt.dir + buf;
    ensureDir(d);
    return d;
}

unsigned g_trialIndex = 0;

TrialResult
runTrial(const Options &opt, const std::string &family,
         const std::vector<Arm> &arms)
{
    const std::string dir = trialDir(opt, g_trialIndex++);
    const TrialResult res = classify(runIsolated(
        [&] { return trialBody(family, dir, arms, opt.timeoutMs); },
        opt.timeoutMs));
    std::string label;
    for (const Arm &a : arms) {
        if (!label.empty())
            label += " + ";
        label += a.site + '=' + a.action;
    }
    if (opt.verbose || res != TrialResult::Handled)
        std::printf("%-11s %-7s %s\n", trialResultName(res),
                    family.c_str(), label.c_str());
    return res;
}

void
tallyUp(Tally &t, TrialResult res, const std::vector<Arm> &arms)
{
    switch (res) {
      case TrialResult::Handled:
        ++t.handled;
        for (const Arm &a : arms)
            t.cover(a.site);
        break;
      case TrialResult::NotCovered: ++t.notCovered; break;
      case TrialResult::Undeclared: ++t.undeclared; break;
      case TrialResult::Invariant:  ++t.invariant; break;
      case TrialResult::Crashed:    ++t.crashed; break;
      case TrialResult::Hung:       ++t.hung; break;
    }
}

void
modeSweep(const Options &opt, Tally &tally)
{
    for (const std::string &site : fp::Registry::declaredSites()) {
        if (!opt.filter.empty() && !startsWith(site, opt.filter.c_str()))
            continue;
        const std::vector<Arm> arms = {{site, opt.action}};
        tallyUp(tally, runTrial(opt, familyOf(site), arms), arms);
    }
}

void
modePairs(const Options &opt, Tally &tally)
{
    // Sample pairs within one scenario family: two faults that can
    // genuinely interact inside one run.
    std::vector<std::vector<std::string>> families;
    for (const std::string &site : fp::Registry::declaredSites()) {
        const std::string fam = familyOf(site);
        bool placed = false;
        for (auto &f : families) {
            if (familyOf(f.front()) == fam) {
                f.push_back(site);
                placed = true;
            }
        }
        if (!placed)
            families.push_back({site});
    }
    Rng rng(opt.seed);
    for (std::uint64_t i = 0; i < opt.pairs; ++i) {
        const auto &fam =
            families[static_cast<std::size_t>(rng.next()) %
                     families.size()];
        if (fam.size() < 2)
            continue;
        const std::size_t a =
            static_cast<std::size_t>(rng.next()) % fam.size();
        std::size_t b = static_cast<std::size_t>(rng.next()) %
                        (fam.size() - 1);
        if (b >= a)
            ++b;
        const std::vector<Arm> arms = {{fam[a], opt.action},
                                       {fam[b], opt.action}};
        tallyUp(tally, runTrial(opt, familyOf(fam[a]), arms), arms);
    }
}

void
modeEnospc(const Options &opt, Tally &tally)
{
    // Disk turns full at byte K of the write stream and STAYS full
    // (the short-write splits exactly at K). Scan K across the body
    // and manifest streams until an offset past end-of-stream reports
    // not-covered. Invariant 4 must hold at every offset.
    for (const char *site : {"ckpt.body.write", "ckpt.manifest.write"}) {
        for (std::uint64_t k = 0;; k += opt.enospcStride) {
            const std::vector<Arm> arms = {
                {site, "short,after_bytes=" + std::to_string(k)}};
            const TrialResult res = runTrial(opt, "ckpt", arms);
            tallyUp(tally, res, arms);
            if (res == TrialResult::NotCovered)
                break; // past the total bytes this scenario writes
            if (res != TrialResult::Handled)
                break; // already recorded; no point scanning on
        }
    }
}

void
modeObsIdentity(const Options &opt, Tally &tally)
{
    // Invariant: observability is output-only. A run whose every obs
    // sink failpoint fires (persistently!) — while a live ObsServer
    // is being scraped — must train bitwise identically to a dark
    // run.
    const auto leg = [&](const std::string &dir, bool lit,
                         std::uint32_t &crcOut) -> bool {
        const std::string crcPath = dir + "/crc.txt";
        const TrialEnd end = runIsolated(
            [&] {
                fp::Registry::instance().reset();
                nn::guard::CrashHarnessConfig cfg;
                cfg.seed = 29;
                cfg.steps = 10;
                cfg.batchSize = 16;
                std::optional<ScrapedObsServer> server;
                if (lit) {
                    fp::Registry::instance().setTrace(true);
                    for (const std::string &s :
                         fp::Registry::declaredSites())
                        if (startsWith(s, "obs."))
                            armAll({{s, "fail"}});
                    cfg.telemetryOut = dir + "/telemetry.jsonl";
                    cfg.traceOut = dir + "/trace.json";
                    cfg.metricsOut = dir + "/metrics.prom";
                    cfg.metricsEvery = 2;
                    server.emplace();
                }
                const auto r = nn::guard::runCrashHarness(cfg);
                server.reset();
                std::FILE *f = std::fopen(crcPath.c_str(), "w");
                if (f == nullptr)
                    return int{kInvariantViolation};
                std::fprintf(f, "%u %llu\n", r.mastersCrc,
                             static_cast<unsigned long long>(
                                 r.stepsRun));
                std::fclose(f);
                return int{kHandled};
            },
            opt.timeoutMs);
        if (!end.exitedWith(kHandled))
            return false;
        std::FILE *f = std::fopen(crcPath.c_str(), "r");
        if (f == nullptr)
            return false;
        unsigned crc = 0;
        unsigned long long steps = 0;
        const bool ok = std::fscanf(f, "%u %llu", &crc, &steps) == 2;
        std::fclose(f);
        crcOut = crc;
        return ok && steps == 10;
    };

    std::uint32_t dark = 0, lit = 1;
    const bool okDark =
        leg(trialDir(opt, g_trialIndex++), false, dark);
    const bool okLit = leg(trialDir(opt, g_trialIndex++), true, lit);
    const bool identical = okDark && okLit && dark == lit;
    std::printf("obs-identity: dark=%08x lit=%08x -> %s\n", dark, lit,
                identical ? "identical" : "DIVERGED");
    if (identical) {
        ++tally.handled;
        for (const std::string &s : fp::Registry::declaredSites())
            if (startsWith(s, "obs."))
                tally.cover(s);
    } else {
        ++tally.invariant;
    }
}

void
modeSelftest(const Options &opt, Tally &tally)
{
    // Deliberately evaluate a site that is NOT in the declared table;
    // the sweep's coverage audit must catch it. If this trial comes
    // back "handled", the audit is broken.
    const TrialResult res = classify(runIsolated(
        [] {
            fp::Registry::instance().reset();
            fp::Registry::instance().setTrace(true);
            // A hypothetical unregistered failure path in new code:
            (void)CQ_FAILPOINT("selftest.unregistered_path");
            for (const std::string &s :
                 fp::Registry::instance().hitSites())
                if (!fp::Registry::isDeclared(s))
                    return int{kUndeclaredSite};
            return int{kHandled};
        },
        opt.timeoutMs));
    const bool caught = res == TrialResult::Undeclared;
    std::printf("selftest: unregistered failure path %s\n",
                caught ? "caught by the audit" : "NOT CAUGHT");
    if (caught)
        ++tally.handled;
    else
        ++tally.invariant;
}

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: cq_faultsweep [--mode "
        "all|sweep|pairs|enospc|obs-identity|selftest|list]\n"
        "                     [--filter PREFIX] [--action ACT]\n"
        "                     [--pairs N] [--enospc-stride N]\n"
        "                     [--timeout-ms T] [--seed S]\n"
        "                     [--min-covered N] [--dir D] "
        "[--verbose]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            return args::nextValue(kProg, argc, argv, i);
        };
        if (arg == "--mode")
            opt.mode = next();
        else if (arg == "--filter")
            opt.filter = next();
        else if (arg == "--action")
            opt.action = next();
        else if (arg == "--dir")
            opt.dir = next();
        else if (arg == "--pairs")
            opt.pairs = args::parseU64(kProg, arg, next(), 0, 10000);
        else if (arg == "--enospc-stride")
            opt.enospcStride =
                args::parseU64(kProg, arg, next(), 1, 1u << 30);
        else if (arg == "--timeout-ms")
            opt.timeoutMs =
                args::parseU64(kProg, arg, next(), 100, 3600000);
        else if (arg == "--seed")
            opt.seed = args::parseU64(kProg, arg, next(), 0,
                                      UINT64_MAX);
        else if (arg == "--min-covered")
            opt.minCovered =
                args::parseU64(kProg, arg, next(), 0, 10000);
        else if (arg == "--verbose")
            opt.verbose = true;
        else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", kProg,
                         arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    if (opt.mode == "list") {
        for (const std::string &s : fp::Registry::declaredSites())
            std::printf("%-24s (%s)\n", s.c_str(),
                        familyOf(s).c_str());
        std::printf("%zu declared sites\n",
                    fp::Registry::declaredSites().size());
        return 0;
    }

    const bool all = opt.mode == "all";
    if (!all && opt.mode != "sweep" && opt.mode != "pairs" &&
        opt.mode != "enospc" && opt.mode != "obs-identity" &&
        opt.mode != "selftest") {
        std::fprintf(stderr, "%s: unknown mode '%s'\n", kProg,
                     opt.mode.c_str());
        return 2;
    }

    // Without --dir the trials run in a fresh tree under $TMPDIR,
    // removed after a clean sweep and kept for inspection otherwise.
    const bool tempTree = opt.dir.empty();
    if (tempTree) {
        opt.dir = makeTempDir("cq_faultsweep.");
        if (opt.dir.empty()) {
            std::fprintf(stderr, "%s: mkdtemp failed\n", kProg);
            return 2;
        }
    } else {
        ensureDir(opt.dir);
    }

    Tally tally;
    if (all || opt.mode == "sweep")
        modeSweep(opt, tally);
    if (all || opt.mode == "pairs")
        modePairs(opt, tally);
    if (all || opt.mode == "enospc")
        modeEnospc(opt, tally);
    if (all || opt.mode == "obs-identity")
        modeObsIdentity(opt, tally);
    if (all || opt.mode == "selftest")
        modeSelftest(opt, tally);

    std::printf("\nfaultsweep summary: %u handled, %u not-covered, "
                "%u undeclared, %u invariant, %u crashed, %u hung; "
                "%zu/%zu declared sites covered\n",
                tally.handled, tally.notCovered, tally.undeclared,
                tally.invariant, tally.crashed, tally.hung,
                tally.coveredSites.size(),
                fp::Registry::declaredSites().size());
    const bool covered = tally.coveredSites.size() >= opt.minCovered;
    if (tally.clean() && !covered)
        std::fprintf(stderr,
                     "%s: only %zu sites covered (< --min-covered "
                     "%llu)\n",
                     kProg, tally.coveredSites.size(),
                     static_cast<unsigned long long>(opt.minCovered));
    const bool passed = tally.clean() && covered;
    if (tempTree && !passed)
        std::fprintf(stderr, "%s: kept %s\n", kProg, opt.dir.c_str());
    else if (tempTree && !removeTree(opt.dir))
        std::fprintf(stderr, "%s: cannot remove %s\n", kProg,
                     opt.dir.c_str());
    return passed ? 0 : 1;
}
