/**
 * @file
 * cq_crashtest: kill–restart verification driver.
 *
 * Proves the checkpoint store's crash-consistency contract end to end:
 * a training run SIGKILLed at an arbitrary point — including from
 * inside a checkpoint write — and restarted with elastic resume must
 * finish with master weights bitwise identical to an uninterrupted
 * run.
 *
 * The tool runs three kinds of legs, each an isolated trial
 * (common/isolated_trial.h): a kill must never take the tool down,
 * SIGKILL cannot be caught, and a leg that overruns the trial
 * deadline (120 s) is killed and reported as hung.
 *
 *   reference:  train seed-deterministically to --steps, dump masters
 *   kill:       same run, self-SIGKILL at a planned step boundary or
 *               at a planned cumulative byte offset of checkpoint I/O
 *   resume:     restart in the killed run's directory with
 *               --resume semantics, train to --steps, dump masters
 *
 * Kill points come from sim::planKillPoints(): seeded, >= 1 of them
 * mid-write. A trial passes iff its kill leg died by SIGKILL and its
 * resumed dump matches the reference dump byte for byte; the tool
 * exits 0 iff every trial passes. The summary also counts restarts
 * that resumed from a saved checkpoint and restarts that found none
 * and cold-started (async commits often land after the kill).
 *
 * Without --dir the legs run in a fresh cq-crashtest-XXXXXX tree
 * under $TMPDIR (default /tmp). A clean run removes it; a failing run
 * keeps it and prints its path.
 *
 * Usage:
 *   cq_crashtest [--trials N] [--steps N] [--seed S] [--ckpt-every N]
 *                [--ckpt-keep K] [--mid-write-frac F]
 *                [--max-write-bytes B] [--slow-write-us U]
 *                [--dir PATH] [--sync] [--verbose]
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/argparse.h"
#include "common/fileutil.h"
#include "common/isolated_trial.h"
#include "nn/guard/crash_harness.h"
#include "sim/faults/kill_schedule.h"

using namespace cq;

namespace {

constexpr const char *kProg = "cq_crashtest";

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cq_crashtest [--trials N] [--steps N] [--seed S]\n"
        "                    [--ckpt-every N] [--ckpt-keep K]\n"
        "                    [--mid-write-frac F] "
        "[--max-write-bytes B]\n"
        "                    [--slow-write-us U] [--dir PATH] "
        "[--sync]\n"
        "                    [--verbose]\n");
    std::exit(2);
}

/** Strict parses shared with the other tools (common/argparse.h). */
std::uint64_t
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t lo, std::uint64_t hi)
{
    return args::parseU64(kProg, flag, text, lo, hi);
}

double
parseFrac(const std::string &flag, const std::string &text)
{
    return args::parseFrac(kProg, flag, text);
}

/** Run one harness leg as an isolated trial; a leg that survives
 *  writes its result line to @p resultPath (when non-empty). */
TrialEnd
runLeg(const nn::guard::CrashHarnessConfig &cfg,
       const std::string &resultPath)
{
    return runIsolated([&] {
        const auto r = nn::guard::runCrashHarness(cfg);
        if (resultPath.empty())
            return 0;
        std::FILE *f = std::fopen(resultPath.c_str(), "w");
        if (f == nullptr)
            return 4;
        std::fprintf(f,
                     "resumed %d gen %llu step %llu skipped %llu "
                     "stepsRun %llu crc %08x\n",
                     r.resumed ? 1 : 0,
                     static_cast<unsigned long long>(
                         r.resumedGeneration),
                     static_cast<unsigned long long>(r.resumedStep),
                     static_cast<unsigned long long>(r.skippedCorrupt),
                     static_cast<unsigned long long>(r.stepsRun),
                     r.mastersCrc);
        std::fclose(f);
        return 0;
    });
}

/** Parsed result.txt of a surviving leg. */
struct LegResult
{
    bool valid = false;
    int resumed = 0;
    unsigned long long gen = 0, step = 0, skipped = 0, stepsRun = 0;
    unsigned crc = 0;
};

LegResult
readLegResult(const std::string &path)
{
    LegResult r;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return r;
    r.valid = std::fscanf(f,
                          "resumed %d gen %llu step %llu skipped "
                          "%llu stepsRun %llu crc %x",
                          &r.resumed, &r.gen, &r.step, &r.skipped,
                          &r.stepsRun, &r.crc) == 6;
    std::fclose(f);
    return r;
}

bool
readWholeFile(const std::string &path, std::vector<char> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t trials = 20, steps = 60, seed = 1;
    std::uint64_t ckptEvery = 5, ckptKeep = 3;
    std::uint64_t maxWriteBytes = 4096, slowWriteUs = 0;
    double midWriteFrac = 0.25;
    std::string baseDir;
    bool sync = false, verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            return args::nextValue(kProg, argc, argv, i);
        };
        if (arg == "--trials")
            trials = parseU64(arg, next(), 1, 10000);
        else if (arg == "--steps")
            steps = parseU64(arg, next(), 2, 1000000);
        else if (arg == "--seed")
            seed = parseU64(arg, next(), 0, UINT64_MAX);
        else if (arg == "--ckpt-every")
            ckptEvery = parseU64(arg, next(), 1, 1000000);
        else if (arg == "--ckpt-keep")
            ckptKeep = parseU64(arg, next(), 1, 1000);
        else if (arg == "--mid-write-frac")
            midWriteFrac = parseFrac(arg, next());
        else if (arg == "--max-write-bytes")
            maxWriteBytes = parseU64(arg, next(), 1, 1ull << 30);
        else if (arg == "--slow-write-us")
            slowWriteUs = parseU64(arg, next(), 0, 1000000);
        else if (arg == "--dir")
            baseDir = next();
        else if (arg == "--sync")
            sync = true;
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--help")
            usage();
        else {
            std::fprintf(stderr,
                         "cq_crashtest: unknown flag '%s' (see "
                         "--help)\n",
                         arg.c_str());
            std::exit(2);
        }
    }

    // Without --dir the sweep runs in a fresh tree under $TMPDIR,
    // removed after a clean run and kept for inspection otherwise.
    const bool tempTree = baseDir.empty();
    if (tempTree) {
        baseDir = makeTempDir("cq-crashtest-");
        if (baseDir.empty()) {
            std::perror("cq_crashtest: mkdtemp");
            return 1;
        }
    } else if (!ensureDir(baseDir)) {
        std::fprintf(stderr, "cq_crashtest: cannot create '%s'\n",
                     baseDir.c_str());
        return 1;
    }
    const auto finish = [&](int rc) {
        if (!tempTree)
            return rc;
        if (rc != 0)
            std::fprintf(stderr, "cq_crashtest: kept %s\n",
                         baseDir.c_str());
        else if (!removeTree(baseDir))
            std::fprintf(stderr, "cq_crashtest: cannot remove %s\n",
                         baseDir.c_str());
        return rc;
    };

    nn::guard::CrashHarnessConfig base;
    base.seed = seed + 100; // model/data seed, distinct from schedule
    base.steps = steps;
    base.ckptEvery = ckptEvery;
    base.ckptKeep = static_cast<std::size_t>(ckptKeep);
    base.asyncCheckpoint = !sync;
    base.slowWriteMicros = static_cast<unsigned>(slowWriteUs);

    // Reference leg: the uninterrupted run every trial compares to.
    const std::string refMasters = baseDir + "/ref-masters.bin";
    {
        nn::guard::CrashHarnessConfig ref = base;
        ref.dir = baseDir + "/ref";
        ref.mastersOut = refMasters;
        const TrialEnd end = runLeg(ref, "");
        if (!end.exitedWith(0)) {
            std::fprintf(stderr,
                         "cq_crashtest: reference leg failed (%s)\n",
                         describe(end).c_str());
            return finish(1);
        }
    }
    std::vector<char> refBytes;
    if (!readWholeFile(refMasters, refBytes) || refBytes.empty()) {
        std::fprintf(stderr,
                     "cq_crashtest: reference masters dump missing\n");
        return finish(1);
    }

    sim::KillScheduleConfig scfg;
    scfg.seed = seed;
    scfg.kills = static_cast<std::size_t>(trials);
    scfg.maxStep = steps;
    scfg.midWriteFraction = midWriteFrac;
    scfg.maxWriteBytes = maxWriteBytes;
    const auto plan = sim::planKillPoints(scfg);

    std::printf("cq_crashtest: %llu trials, %llu steps, ckpt every "
                "%llu keep %llu, %s commits, CQ_THREADS=%s, dir %s\n",
                static_cast<unsigned long long>(trials),
                static_cast<unsigned long long>(steps),
                static_cast<unsigned long long>(ckptEvery),
                static_cast<unsigned long long>(ckptKeep),
                sync ? "sync" : "async",
                std::getenv("CQ_THREADS") ? std::getenv("CQ_THREADS")
                                          : "(default)",
                baseDir.c_str());
    std::printf("%-6s %-22s %-10s %-12s %-8s %s\n", "trial", "kill",
                "killed", "resumed-gen", "steps", "verdict");

    std::size_t failures = 0, resumedRuns = 0, coldRuns = 0;
    for (std::size_t t = 0; t < plan.size(); ++t) {
        const auto &kp = plan[t];
        char trialName[32];
        std::snprintf(trialName, sizeof trialName, "trial-%03zu", t);
        const std::string dir = baseDir + "/" + trialName;

        nn::guard::CrashHarnessConfig kill = base;
        kill.dir = dir;
        if (kp.midWrite)
            kill.killAtWriteBytes = kp.writeBytes + 1;
        else
            kill.killAtStep = kp.step;
        const TrialEnd killEnd = runLeg(kill, "");
        const bool killed = killEnd.killedBy(SIGKILL);

        nn::guard::CrashHarnessConfig res = base;
        res.dir = dir;
        res.resume = true;
        res.mastersOut = dir + "/masters.bin";
        const std::string resultPath = dir + "/result.txt";
        const TrialEnd resEnd = runLeg(res, resultPath);
        const bool resOk = resEnd.exitedWith(0);

        std::vector<char> gotBytes;
        const bool match =
            resOk && readWholeFile(res.mastersOut, gotBytes) &&
            gotBytes.size() == refBytes.size() &&
            std::memcmp(gotBytes.data(), refBytes.data(),
                        refBytes.size()) == 0;
        const LegResult lr = readLegResult(resultPath);

        char killDesc[48];
        if (kp.midWrite)
            std::snprintf(killDesc, sizeof killDesc,
                          "mid-write @%llu B",
                          static_cast<unsigned long long>(
                              kp.writeBytes + 1));
        else
            std::snprintf(killDesc, sizeof killDesc, "step %llu",
                          static_cast<unsigned long long>(kp.step));
        const bool finished = resOk && lr.valid;
        const std::string genDesc = !finished  ? "-"
                                    : lr.resumed ? std::to_string(lr.gen)
                                                 : "cold";
        if (finished)
            ++(lr.resumed ? resumedRuns : coldRuns);
        const std::string verdict =
            !killed  ? "KILL-MISSED"
            : !resOk ? "RESUME-FAILED (" + describe(resEnd) + ")"
            : match  ? "bitwise-identical"
                     : "MISMATCH";
        std::printf("%-6zu %-22s %-10s %-12s %-8llu %s\n", t,
                    killDesc,
                    killed ? "SIGKILL" : describe(killEnd).c_str(),
                    genDesc.c_str(), lr.valid ? lr.stepsRun : 0ull,
                    verdict.c_str());
        if (verbose && lr.valid)
            std::printf(
                "       resumed-step %llu skipped-corrupt %llu crc "
                "%08x\n",
                lr.step, lr.skipped, lr.crc);
        if (!killed || !match)
            ++failures;
    }

    std::printf("cq_crashtest: %zu/%zu trials killed by SIGKILL and "
                "bitwise identical after restart; %zu restarts "
                "resumed from a checkpoint, %zu cold-started\n",
                plan.size() - failures, plan.size(), resumedRuns,
                coldRuns);
    if (failures == 0)
        return finish(0);
    std::fprintf(stderr, "cq_crashtest: %zu/%zu trials FAILED\n",
                 failures, plan.size());
    return finish(1);
}
