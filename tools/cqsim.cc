/**
 * @file
 * cqsim: the command-line front end of the Cambricon-Q simulator.
 *
 * Lowers one of the Table VI workloads (or a custom GEMM) to an
 * instruction stream for the selected target and simulates one
 * training minibatch, printing time, energy, phase/unit breakdowns
 * and (optionally) the per-instruction trace or disassembly.
 *
 * A third mode actually trains: --train spiral runs the quantized
 * spiral-MLP workload under the crash-consistent generation store,
 * with elastic resume (--resume) and clean SIGTERM/SIGINT shutdown
 * (final synchronous checkpoint, then exit 0).
 *
 * Usage:
 *   cqsim --network resnet18 [--target cq|cq-nondp|cq-t|cq-v|tpu]
 *         [--bits 4|8|12|16] [--optimizer sgd|adagrad|rmsprop|adam]
 *         [--batch N] [--stats] [--disasm N] [--trace]
 *   cqsim --gemm m,n,k [--target ...] [--bits ...]
 *   cqsim --train spiral [--steps N] [--seed S] [--ckpt-dir D]
 *         [--ckpt-every N] [--ckpt-keep K] [--resume D]
 *         [--sync-ckpt] [--masters-out F]
 *
 * Observability (all modes): --trace-out F writes a Chrome
 * trace-event JSON (host spans in --train mode, per-unit simulated
 * timelines in --network/--gemm mode); --metrics-out F writes a
 * Prometheus text snapshot. --train additionally takes
 * --telemetry-out F (one JSONL record per step), --metrics-every N
 * (periodic metrics rewrite), --obs-port P (the live scrape
 * endpoint) and the in-situ correction knobs --ecc, --abft and
 * --fault-rate FLIPS_PER_MBIT.
 *
 * A flag that only the other mode reads (say --disasm with --train,
 * or --ckpt-dir with --network) exits 2 rather than being ignored.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/accelerator.h"
#include "arch/trace_export.h"
#include "baseline/tpu_sim.h"
#include "common/argparse.h"
#include "common/failpoint.h"
#include "common/signal_flag.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "nn/guard/crash_harness.h"
#include "obs/jsonw.h"
#include "obs/metrics.h"
#include "obs/obs_server.h"
#include "obs/trace.h"

using namespace cq;

namespace {

constexpr const char *kProg = "cqsim";

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: cqsim --network "
        "<alexnet|resnet18|googlenet|squeezenet|transformer|lstm|tiny>\n"
        "             [--target cq|cq-nondp|cq-t|cq-v|tpu] [--bits B]\n"
        "             [--optimizer sgd|adagrad|rmsprop|adam] "
        "[--batch N]\n"
        "             [--stats] [--disasm N] [--trace]\n"
        "       cqsim --gemm m,n,k [options]\n"
        "       cqsim --train spiral [--steps N] [--seed S]\n"
        "             [--ckpt-dir D] [--ckpt-every N] [--ckpt-keep "
        "K]\n"
        "             [--resume D] [--sync-ckpt] [--masters-out F]\n"
        "             [--ecc] [--abft] [--fault-rate R]\n"
        "             [--telemetry-out F] [--metrics-every N]\n"
        "             [--obs-port P]       live scrape endpoint on "
        "127.0.0.1:P (0 = ephemeral);\n"
        "                                  serves /metrics "
        "/metrics.json /healthz /trace\n"
        "observability (all modes):\n"
        "             [--trace-out F] [--metrics-out F]\n"
        "fault injection (all modes):\n"
        "             [--failpoints SPEC]   "
        "e.g. \"ckpt.body.write=enospc,once=1\"\n"
        "             (also via CQ_FAILPOINTS; see "
        "common/failpoint.h)\n");
}

void
usage()
{
    printUsage(stderr);
    std::exit(2);
}

/** Flags only --train reads. */
constexpr std::array<const char *, 14> kTrainOnlyFlags = {
    "--steps",      "--seed",        "--ckpt-dir",      "--ckpt-every",
    "--ckpt-keep",  "--resume",      "--sync-ckpt",     "--masters-out",
    "--ecc",        "--abft",        "--fault-rate",    "--telemetry-out",
    "--metrics-every", "--obs-port"};

/** Flags only --network / --gemm read. */
constexpr std::array<const char *, 7> kSimOnlyFlags = {
    "--target", "--bits", "--optimizer", "--batch",
    "--disasm", "--stats", "--trace"};

template <std::size_t N>
bool
isOneOf(const std::string &arg, const std::array<const char *, N> &set)
{
    return std::find(set.begin(), set.end(), arg) != set.end();
}

/** Strict parses shared with the other tools (common/argparse.h). */
std::uint64_t
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t lo, std::uint64_t hi)
{
    return args::parseU64(kProg, flag, text, lo, hi);
}

/** The --train mode: real quantized training with the generation
 *  store, elastic resume and clean signal shutdown. */
struct TrainArgs
{
    std::string task;
    std::uint64_t steps = 60;
    std::uint64_t seed = 17;
    std::string ckptDir;
    std::uint64_t ckptEvery = 5;
    std::uint64_t ckptKeep = 3;
    std::string resumeDir;
    bool syncCkpt = false;
    std::string mastersOut;
    bool ecc = false;
    bool abft = false;
    double faultRate = 0.0;
    std::string telemetryOut;
    std::uint64_t metricsEvery = 0;
};

/** The live observability plane (--obs-port). */
struct ObsPlaneArgs
{
    /** -1 = off; 0 = ephemeral (the bound port is printed). */
    int port = -1;

    bool enabled() const { return port >= 0; }
};

/**
 * Pre-create the stable metric families, so a scrape that arrives
 * before the first training step already sees every series a
 * dashboard would alert on (Prometheus treats a missing series as
 * "no data", not zero).
 */
void
touchScrapeFamilies()
{
    auto &reg = obs::MetricRegistry::instance();
    reg.counter("trainer.steps");
    reg.gauge("trainer.loss");
    reg.histogram("trainer.step_time_us");
}

/** Start the scrape server; prints the bound port (tests and the CI
 *  observability job parse the "obs:" line). */
bool
startObsServer(obs::ObsServer &server, obs::ObsServerConfig cfg,
               int port)
{
    touchScrapeFamilies();
    cfg.port = port;
    if (!server.start(std::move(cfg))) {
        std::fprintf(stderr, "cqsim: --obs-port %d unavailable\n",
                     port);
        return false;
    }
    std::printf("obs:       serving on port %d (/metrics "
                "/metrics.json /healthz /trace)\n",
                server.port());
    std::fflush(stdout);
    return true;
}

/** /healthz component reading the trainer.* registry families. */
std::string
trainerHealthJson()
{
    auto &reg = obs::MetricRegistry::instance();
    std::string out = "{\"steps\":";
    out += std::to_string(static_cast<std::uint64_t>(
        reg.counter("trainer.steps").value()));
    out += ",\"loss\":";
    obs::appendJsonNumber(out, reg.gauge("trainer.loss").value());
    out += '}';
    return out;
}

int
runTrain(const TrainArgs &a, const std::string &traceOut,
         const std::string &metricsOut, const ObsPlaneArgs &obsArgs)
{
    if (a.task != "spiral") {
        std::fprintf(stderr,
                     "cqsim: unknown --train task '%s' (supported: "
                     "spiral)\n",
                     a.task.c_str());
        return 2;
    }
    // A live scrape port counts as an output: the run is observable
    // even if nothing lands on disk.
    if (a.ckptDir.empty() && a.resumeDir.empty() &&
        a.mastersOut.empty() && traceOut.empty() &&
        metricsOut.empty() && a.telemetryOut.empty() &&
        !obsArgs.enabled()) {
        std::fprintf(stderr,
                     "cqsim: --train needs --ckpt-dir, --resume, "
                     "--masters-out, --obs-port or an observability "
                     "output (nothing would be persisted)\n");
        return 2;
    }

    nn::guard::CrashHarnessConfig cfg;
    cfg.seed = a.seed;
    cfg.steps = a.steps;
    cfg.dir = a.ckptDir.empty() ? a.resumeDir : a.ckptDir;
    cfg.ckptEvery = a.ckptEvery;
    cfg.ckptKeep = static_cast<std::size_t>(a.ckptKeep);
    cfg.asyncCheckpoint = !a.syncCkpt;
    cfg.resume = !a.resumeDir.empty();
    cfg.resumeDir = a.resumeDir;
    cfg.handleSignals = true;
    cfg.mastersOut = a.mastersOut;
    cfg.ecc = a.ecc;
    cfg.abft = a.abft;
    cfg.faultFlipsPerMbit = a.faultRate;
    cfg.traceOut = traceOut;
    cfg.metricsOut = metricsOut;
    cfg.telemetryOut = a.telemetryOut;
    cfg.metricsEvery = a.metricsEvery;

    installShutdownSignalHandler();

    if (obsArgs.enabled())
        obs::TraceSession::instance().setEnabled(true);
    obs::ObsServer obsServer;
    if (obsArgs.enabled()) {
        obs::ObsServerConfig ocfg;
        // Train-mode /metrics exposes the typed registry families
        // only: the trainer's StatGroups are not thread-safe to
        // snapshot mid-run, so they stay in the end-of-run dumps.
        ocfg.health.emplace_back("trainer", trainerHealthJson);
        if (!startObsServer(obsServer, std::move(ocfg), obsArgs.port))
            return 2;
    }

    std::printf("train:     spiral MLP, steps %llu, seed %llu\n",
                static_cast<unsigned long long>(a.steps),
                static_cast<unsigned long long>(a.seed));
    if (!cfg.dir.empty())
        std::printf("ckpt:      dir %s, every %llu, keep %llu, %s\n",
                    cfg.dir.c_str(),
                    static_cast<unsigned long long>(a.ckptEvery),
                    static_cast<unsigned long long>(a.ckptKeep),
                    cfg.asyncCheckpoint ? "async" : "sync");
    if (!traceOut.empty() || !metricsOut.empty() ||
        !a.telemetryOut.empty())
        std::printf("obs:       trace %s, metrics %s, telemetry %s\n",
                    traceOut.empty() ? "-" : traceOut.c_str(),
                    metricsOut.empty() ? "-" : metricsOut.c_str(),
                    a.telemetryOut.empty() ? "-"
                                           : a.telemetryOut.c_str());

    const auto r = nn::guard::runCrashHarness(cfg);

    if (cfg.resume) {
        if (r.resumed)
            std::printf("resume:    generation %llu at step %llu "
                        "(%llu corrupt generations skipped)\n",
                        static_cast<unsigned long long>(
                            r.resumedGeneration),
                        static_cast<unsigned long long>(
                            r.resumedStep),
                        static_cast<unsigned long long>(
                            r.skippedCorrupt));
        else
            std::printf("resume:    cold start (no usable "
                        "generation in %s)\n",
                        a.resumeDir.c_str());
    }
    std::printf("result:    %llu steps run, final loss %.6f, "
                "masters crc %08x\n",
                static_cast<unsigned long long>(r.stepsRun),
                r.finalLoss, r.mastersCrc);
    // Without a store there is no final checkpoint to report.
    if (r.stopRequested)
        std::printf("shutdown:  signal handled%s\n",
                    cfg.dir.empty() ? ""
                                    : "; final checkpoint committed "
                                      "before exit");
    return 0;
}

compiler::WorkloadIR
pickWorkload(const std::string &name, std::size_t batch)
{
    const std::size_t b = batch;
    if (name == "alexnet")
        return compiler::buildAlexNet(b ? b : 32);
    if (name == "resnet18")
        return compiler::buildResNet18(b ? b : 32);
    if (name == "googlenet")
        return compiler::buildGoogLeNet(b ? b : 32);
    if (name == "squeezenet")
        return compiler::buildSqueezeNet(b ? b : 32);
    if (name == "transformer")
        return compiler::buildTransformerBase(b ? b : 260);
    if (name == "lstm")
        return compiler::buildPtbLstm(b ? b : 1000);
    if (name == "tiny")
        return compiler::buildTinyCnn(b ? b : 4);
    std::fprintf(stderr, "unknown network '%s'\n", name.c_str());
    usage();
    __builtin_unreachable();
}

compiler::WorkloadIR
gemmWorkload(const std::string &spec)
{
    std::uint64_t m = 0, n = 0, k = 0;
    if (std::sscanf(spec.c_str(), "%llu,%llu,%llu",
                    reinterpret_cast<unsigned long long *>(&m),
                    reinterpret_cast<unsigned long long *>(&n),
                    reinterpret_cast<unsigned long long *>(&k)) != 3 ||
        m == 0 || n == 0 || k == 0) {
        std::fprintf(stderr, "bad --gemm spec '%s' (want m,n,k)\n",
                     spec.c_str());
        usage();
    }
    compiler::NetworkBuilder b("gemm-" + spec, m);
    b.inputFlat(k);
    b.fc("gemm", n, false, m);
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string network, gemm, target = "cq", optimizer = "rmsprop";
    int bits = 8;
    std::size_t batch = 0, disasm = 0;
    bool stats = false, trace = false;
    std::string traceOut, metricsOut;
    ObsPlaneArgs obsArgs;
    TrainArgs train;
    // The first flag seen that only one mode reads.
    std::string trainOnly, simOnly;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (trainOnly.empty() && isOneOf(arg, kTrainOnlyFlags))
            trainOnly = arg;
        if (simOnly.empty() && isOneOf(arg, kSimOnlyFlags))
            simOnly = arg;
        const auto next = [&]() -> std::string {
            return args::nextValue(kProg, argc, argv, i);
        };
        if (arg == "--network")
            network = next();
        else if (arg == "--gemm")
            gemm = next();
        else if (arg == "--target")
            target = next();
        else if (arg == "--bits")
            bits = static_cast<int>(parseU64(arg, next(), 1, 64));
        else if (arg == "--optimizer")
            optimizer = next();
        else if (arg == "--batch")
            batch = static_cast<std::size_t>(
                parseU64(arg, next(), 1, 1u << 20));
        else if (arg == "--disasm")
            disasm = static_cast<std::size_t>(
                parseU64(arg, next(), 1, 1u << 24));
        else if (arg == "--stats")
            stats = true;
        else if (arg == "--trace")
            trace = true;
        else if (arg == "--train")
            train.task = next();
        else if (arg == "--steps")
            train.steps = parseU64(arg, next(), 1, 1000000);
        else if (arg == "--seed")
            train.seed = parseU64(arg, next(), 0, UINT64_MAX);
        else if (arg == "--ckpt-dir")
            train.ckptDir = next();
        else if (arg == "--ckpt-every")
            train.ckptEvery = parseU64(arg, next(), 1, 1000000);
        else if (arg == "--ckpt-keep")
            train.ckptKeep = parseU64(arg, next(), 1, 1000);
        else if (arg == "--resume")
            train.resumeDir = next();
        else if (arg == "--sync-ckpt")
            train.syncCkpt = true;
        else if (arg == "--masters-out")
            train.mastersOut = next();
        else if (arg == "--ecc")
            train.ecc = true;
        else if (arg == "--abft")
            train.abft = true;
        else if (arg == "--fault-rate")
            train.faultRate = args::parseNonNegF64(kProg, arg, next());
        else if (arg == "--failpoints") {
            std::string fpErr;
            if (!fp::Registry::instance().configure(next(), &fpErr)) {
                std::fprintf(stderr, "cqsim: bad --failpoints: %s\n",
                             fpErr.c_str());
                return 2;
            }
        } else if (arg == "--trace-out")
            traceOut = next();
        else if (arg == "--metrics-out")
            metricsOut = next();
        else if (arg == "--telemetry-out")
            train.telemetryOut = next();
        else if (arg == "--metrics-every")
            train.metricsEvery = parseU64(arg, next(), 1, 1000000);
        else if (arg == "--obs-port")
            obsArgs.port =
                static_cast<int>(parseU64(arg, next(), 0, 65535));
        else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else {
            std::fprintf(stderr,
                         "cqsim: unknown flag '%s' (see --help)\n",
                         arg.c_str());
            return 2;
        }
    }
    const int modes = (network.empty() ? 0 : 1) +
                      (gemm.empty() ? 0 : 1) +
                      (train.task.empty() ? 0 : 1);
    if (modes != 1) {
        std::fprintf(stderr,
                     "cqsim: pick exactly one of --network / --gemm "
                     "/ --train\n");
        return 2;
    }
    const bool training = !train.task.empty();
    const std::string &stray = training ? simOnly : trainOnly;
    if (!stray.empty()) {
        std::fprintf(stderr,
                     "cqsim: %s is a %s flag; %s does not read it\n",
                     stray.c_str(),
                     training ? "--network/--gemm" : "--train",
                     training          ? "--train"
                     : network.empty() ? "--gemm"
                                       : "--network");
        return 2;
    }
    if (training)
        return runTrain(train, traceOut, metricsOut, obsArgs);

    const compiler::WorkloadIR ir =
        gemm.empty() ? pickWorkload(network, batch)
                     : gemmWorkload(gemm);

    arch::CambriconQConfig cfg;
    compiler::CodegenOptions opts;
    if (target == "cq") {
        cfg = arch::CambriconQConfig::edge();
    } else if (target == "cq-nondp") {
        cfg = arch::CambriconQConfig::edgeNoNdp();
    } else if (target == "cq-t") {
        cfg = arch::CambriconQConfig::throughputT();
    } else if (target == "cq-v") {
        cfg = arch::CambriconQConfig::throughputV();
    } else if (target == "tpu") {
        cfg = baseline::tpuConfig();
        opts.target = compiler::CodegenOptions::Target::Tpu;
    } else {
        std::fprintf(stderr, "unknown target '%s'\n", target.c_str());
        usage();
    }
    if (bits != 4 && bits != 8 && bits != 12 && bits != 16) {
        std::fprintf(stderr, "unsupported --bits %d\n", bits);
        usage();
    }
    // The bit-serial PE array runs whole multiples of its base width
    // (4 bits on Cambricon-Q, 8 on the TPU).
    if (bits % cfg.peBits != 0) {
        std::fprintf(stderr,
                     "cqsim: --bits %d is not a multiple of target %s's "
                     "%d-bit PE width\n",
                     bits, target.c_str(), cfg.peBits);
        return 2;
    }
    opts.bits = bits;
    if (optimizer == "sgd")
        opts.optimizer = nn::OptimizerKind::SGD;
    else if (optimizer == "adagrad")
        opts.optimizer = nn::OptimizerKind::AdaGrad;
    else if (optimizer == "rmsprop")
        opts.optimizer = nn::OptimizerKind::RMSProp;
    else if (optimizer == "adam")
        opts.optimizer = nn::OptimizerKind::Adam;
    else
        usage();

    const arch::Program prog =
        compiler::generateProgram(ir, cfg, opts);
    const auto traffic = compiler::summarizeTraffic(prog);

    std::printf("workload:  %s (batch %zu, %.2f GMACs, %.1f M "
                "weights)\n",
                ir.name.c_str(), ir.batch, ir.totalMacs / 1e9,
                ir.totalWeights / 1e6);
    std::printf("target:    %s @ INT%d, optimizer %s\n",
                cfg.name.c_str(), bits, optimizer.c_str());
    std::printf("program:   %zu instructions, %.3f GB loads, %.3f GB "
                "stores\n",
                prog.size(), traffic.loadBytes / 1e9,
                traffic.storeBytes / 1e9);

    if (disasm > 0) {
        std::printf("\ndisassembly (first %zu):\n",
                    std::min(disasm, prog.size()));
        for (std::size_t i = 0; i < std::min(disasm, prog.size());
             ++i)
            std::printf("  %6zu: %s\n", i,
                        prog[i].toString(prog.tag(i)).c_str());
    }

    arch::Accelerator acc(cfg);
    // --trace-out needs the per-instruction trace even when the
    // textual --trace dump was not requested.
    const auto report = acc.run(prog, trace || !traceOut.empty());

    std::printf("\nresult:    %.3f ms, %.2f mJ (%.2f W average)\n",
                report.timeMs(), report.energyMj(),
                report.energyMj() / report.timeMs());
    std::printf("phases:   ");
    for (std::size_t p = 0; p < arch::kNumPhases; ++p)
        std::printf(" %s=%.1f%%",
                    arch::phaseName(static_cast<arch::Phase>(p)),
                    100.0 * report.phaseFraction(
                                static_cast<arch::Phase>(p)));
    std::printf("\nunits:    ");
    for (std::size_t u = 0; u < arch::kNumUnits; ++u)
        std::printf(" %s=%.1f%%",
                    arch::unitName(static_cast<arch::Unit>(u)),
                    100.0 * report.unitBusy[u] /
                        static_cast<double>(report.totalTicks));
    std::printf("\nenergy:    ACC %.1f mJ | BUF %.1f mJ | DDR-dyn "
                "%.1f mJ | DDR-standby %.1f mJ | static %.1f mJ\n",
                report.energy.accPj * 1e-9,
                report.energy.bufPj * 1e-9,
                report.energy.ddrDynamicPj * 1e-9,
                report.energy.ddrStandbyPj * 1e-9,
                report.energy.chipStaticPj * 1e-9);

    if (stats) {
        std::printf("\n%s",
                    report.activity.dump("activity counters:").c_str());
    }
    if (trace) {
        std::printf("\ntrace: %zu entries (instr unit phase start "
                    "end); first 20:\n",
                    report.trace.size());
        for (std::size_t i = 0;
             i < std::min<std::size_t>(20, report.trace.size()); ++i) {
            const auto &e = report.trace[i];
            std::printf("  %6u %-9s %-2s %10llu %10llu\n", e.instr,
                        arch::unitName(e.unit),
                        arch::phaseName(e.phase),
                        static_cast<unsigned long long>(e.start),
                        static_cast<unsigned long long>(e.end));
        }
    }
    if (!traceOut.empty()) {
        auto &session = obs::TraceSession::instance();
        session.setEnabled(true);
        const std::size_t spans =
            arch::exportPerfTraceToSession(report, session);
        session.writeChromeTrace(traceOut);
        std::printf("trace-out: %zu simulated spans -> %s\n", spans,
                    traceOut.c_str());
    }
    if (!metricsOut.empty()) {
        obs::MetricRegistry::instance().writeProm(metricsOut,
                                                  {&report.activity});
        std::printf("metrics:   activity counters -> %s\n",
                    metricsOut.c_str());
    }
    return 0;
}
