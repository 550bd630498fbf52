/**
 * @file
 * sim-cnn and sim-seq: one training minibatch of each Table VI
 * network compiled during set-up, then simulated by
 * arch::Accelerator::run from a cold modeled state, again and again
 * for the measured phase. Every modeled total is checked against the
 * references stored beside the benchmark.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "baseline/tpu_sim.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "dram/dram_controller.h"
#include "perfbench.h"

namespace cq::perfbench {

namespace {

/** Simulations run side by side on the sim workloads. */
constexpr unsigned kSimPoolWidth = 2;

struct Platform
{
    const char *tag;
    arch::CambriconQConfig config;
    compiler::CodegenOptions::Target target;
};

struct NetworkPrograms
{
    std::function<compiler::WorkloadIR()> build;
    std::vector<Platform> platforms;
    /** Training samples in one minibatch of the network. */
    double samples;
};

std::vector<NetworkPrograms>
simWorkloadSpec(const std::string &workload)
{
    using Target = compiler::CodegenOptions::Target;
    const Platform cq{"cq-edge", arch::CambriconQConfig::edge(),
                      Target::CambriconQ};
    const Platform noNdp{"cq-edge-nondp",
                         arch::CambriconQConfig::edgeNoNdp(),
                         Target::CambriconQ};
    const Platform tpu{"tpu", baseline::tpuConfig(), Target::Tpu};
    const Platform cqT{"cq-t", arch::CambriconQConfig::throughputT(),
                       Target::CambriconQ};
    if (workload == "sim-cnn") {
        const std::vector<Platform> three{cq, noNdp, tpu};
        return {
            {[] { return compiler::buildAlexNet(); }, three, 32},
            {[] { return compiler::buildResNet18(); }, three, 32},
            {[] { return compiler::buildGoogLeNet(); }, three, 32},
            {[] { return compiler::buildSqueezeNet(); }, three, 32},
        };
    }
    if (workload == "sim-seq") {
        return {
            {[] { return compiler::buildTransformerBase(); }, {cq}, 260},
            {[] { return compiler::buildPtbLstm(); }, {cqT}, 1000},
        };
    }
    throw std::invalid_argument("not a sim workload: " + workload);
}

std::vector<SimProgram>
compilePrograms(const std::string &workload, double *codegen_seconds,
                double *samples)
{
    std::vector<SimProgram> out;
    double codegen = 0.0;
    double total_samples = 0.0;
    for (const NetworkPrograms &net : simWorkloadSpec(workload)) {
        const compiler::WorkloadIR ir = net.build();
        for (const Platform &p : net.platforms) {
            compiler::CodegenOptions opts;
            opts.target = p.target;
            const double t0 = nowSeconds();
            arch::Program prog =
                compiler::generateProgram(ir, p.config, opts);
            codegen += nowSeconds() - t0;
            out.push_back(SimProgram{ir.name + "/" + p.tag, p.config,
                                     std::move(prog)});
            total_samples += net.samples;
        }
    }
    if (codegen_seconds != nullptr)
        *codegen_seconds = codegen;
    if (samples != nullptr)
        *samples = total_samples;
    return out;
}

/** DRAM calls the replay made and the bursts they moved. */
struct ReplayCount
{
    std::uint64_t bursts = 0;
    std::uint64_t calls = 0;
};

/**
 * Present every memory instruction's DRAM calls to a fresh controller
 * at the tick the executor started it, in start order -- the same call
 * sequence Accelerator::run makes, minus the rest of the executor.
 */
ReplayCount
replayDram(const SimProgram &sp, const arch::PerfReport &report)
{
    using arch::Opcode;
    dram::DramController dram(sp.config.dram);
    std::uint64_t calls = 0;
    for (const arch::TraceEntry &e : report.trace) {
        const arch::Instr &ins = sp.program[e.instr];
        const Tick now = e.start;
        switch (ins.op) {
          case Opcode::VLOAD:
          case Opcode::QLOAD:
            dram.transfer(now, ins.addr, ins.bytes, false);
            ++calls;
            break;
          case Opcode::VSTORE:
          case Opcode::QSTORE:
            dram.transfer(now, ins.addr, ins.bytes, true);
            ++calls;
            break;
          case Opcode::SLOAD:
          case Opcode::SSTORE: {
            const std::uint64_t stripes =
                std::max<std::uint64_t>(ins.elems, 1);
            const Bytes per_stripe =
                std::max<Bytes>(ins.bytes / stripes, 1);
            for (std::uint64_t i = 0; i < stripes; ++i)
                dram.transfer(now, ins.addr + i * ins.bytes2, per_stripe,
                              ins.op == Opcode::SSTORE);
            calls += stripes;
            break;
          }
          case Opcode::QMOVE:
            dram.transfer(now, ins.addr, ins.bytes, false);
            dram.transfer(now + 1, ins.addr2, ins.bytes2, true);
            calls += 2;
            break;
          case Opcode::WGSTORE:
            dram.ndpUpdate(now, ins.addr, ins.elems, 4);
            ++calls;
            break;
          default:
            break;
        }
    }
    const StatGroup stats = dram.stats();
    return ReplayCount{
        static_cast<std::uint64_t>(stats.get("dram.reads") +
                                   stats.get("dram.writes")),
        calls};
}

std::uint64_t
asCount(double v)
{
    return static_cast<std::uint64_t>(v);
}

} // namespace

SimOutputs
simOutputs(const arch::PerfReport &report)
{
    SimOutputs o;
    o.totalTicks = report.totalTicks;
    o.dramReads = asCount(report.activity.get("dram.reads"));
    o.dramWrites = asCount(report.activity.get("dram.writes"));
    o.busBytes = asCount(report.activity.get("dram.busBytes"));
    o.energyPj = report.energy.totalPj();
    return o;
}

bool
loadReferences(const std::string &path, ReferenceTable &out,
               std::string *error)
{
    const json::ParseResult parsed = json::parseFile(path);
    if (!parsed.ok) {
        if (error != nullptr)
            *error = path + ": " + parsed.error;
        return false;
    }
    const json::Value *programs = parsed.value.find("programs");
    if (programs == nullptr || !programs->isObject()) {
        if (error != nullptr)
            *error = path + ": no \"programs\" object";
        return false;
    }
    out.clear();
    for (const auto &[name, v] : programs->asObject()) {
        double field[5] = {};
        const char *keys[5] = {"total_ticks", "dram_reads", "dram_writes",
                               "bus_bytes", "energy_pj"};
        for (int i = 0; i < 5; ++i) {
            field[i] = v.numberOr(keys[i], -1.0);
            if (!(field[i] >= 0.0 && field[i] < 1.8e19)) {
                if (error != nullptr)
                    *error = path + ": " + name + "." + keys[i] +
                             " is missing or out of range";
                return false;
            }
        }
        out[name] = SimOutputs{asCount(field[0]), asCount(field[1]),
                               asCount(field[2]), asCount(field[3]),
                               field[4]};
    }
    return true;
}

bool
writeReferences(const std::string &path, const ReferenceTable &table)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"programs\": {");
    bool first = true;
    for (const auto &[name, o] : table) {
        std::fprintf(f,
                     "%s\n  \"%s\": {\"total_ticks\": %llu, "
                     "\"dram_reads\": %llu, \"dram_writes\": %llu, "
                     "\"bus_bytes\": %llu, \"energy_pj\": %.17g}",
                     first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(o.totalTicks),
                     static_cast<unsigned long long>(o.dramReads),
                     static_cast<unsigned long long>(o.dramWrites),
                     static_cast<unsigned long long>(o.busBytes),
                     o.energyPj);
        first = false;
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
}

std::vector<SimRunRecord>
simulatePass(const std::vector<SimProgram> &programs,
             const std::vector<std::size_t> &order,
             const ReferenceTable &references, unsigned pool_width,
             bool traced)
{
    std::vector<SimRunRecord> records(programs.size());
    std::atomic<std::size_t> next{0};
    // One slot per pool thread; each pulls the next program in order
    // until none is left, so both stay busy until the tail.
    parallelFor(0, pool_width, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t slot = lo; slot < hi; ++slot) {
            for (std::size_t k = next++; k < order.size(); k = next++) {
                const SimProgram &sp = programs[order[k]];
                SimRunRecord &rec = records[order[k]];
                arch::Accelerator acc(sp.config);
                const double t0 = nowSeconds();
                const arch::PerfReport report = acc.run(sp.program, traced);
                rec.runSeconds = nowSeconds() - t0;
                rec.outputs = simOutputs(report);
                rec.rowHits = asCount(report.activity.get("dram.rowHits"));
                rec.rowMisses =
                    asCount(report.activity.get("dram.rowMisses"));
                const auto ref = references.find(sp.name);
                rec.matchesReference = ref != references.end() &&
                                       ref->second == rec.outputs;
                if (traced) {
                    const double r0 = nowSeconds();
                    const ReplayCount rc = replayDram(sp, report);
                    rec.replaySeconds = nowSeconds() - r0;
                    rec.replayBursts = rc.bursts;
                    rec.replayCalls = rc.calls;
                }
            }
        }
    });
    return records;
}

RunResult
runSimWorkload(const Options &opts)
{
    ThreadPool::instance().setNumThreads(kSimPoolWidth);
    RunResult r;
    addCommonProvenance(r, opts, kSimPoolWidth);

    ReferenceTable refs;
    std::string err;
    if (!loadReferences(opts.referencePath, refs, &err))
        throw std::runtime_error("cannot load references: " + err);

    // Set-up: IR build + codegen of every program. The previous set is
    // freed first, so the resident set holds one set of programs.
    std::vector<SimProgram> programs;
    std::vector<double> setup, codegen;
    double rssGrowthMb = 0.0, samples = 0.0;
    auto setUp = [&] {
        programs.clear();
        programs.shrink_to_fit();
        const double rss0 = currentRssMb();
        const double t0 = nowSeconds();
        double cg = 0.0;
        programs = compilePrograms(opts.workload, &cg, &samples);
        setup.push_back(nowSeconds() - t0);
        codegen.push_back(cg);
        if (setup.size() == 1)
            rssGrowthMb = currentRssMb() - rss0;
    };
    for (int i = 0; i < kSetupsBeforeTiming; ++i)
        setUp();
    double instrs = 0.0;
    for (const SimProgram &sp : programs)
        instrs += static_cast<double>(sp.program.size());

    // The seed permutes the order programs are handed to the pool;
    // the programs themselves are the paper's fixed networks.
    Rng rng(deriveSeed(opts.seed, 1));
    std::vector<std::size_t> order(programs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    std::vector<double> passRun, passReplay;
    double simTicks = 0.0;
    std::uint64_t bursts = 0, calls = 0, hits = 0, misses = 0;
    std::uint64_t replayMismatches = 0;
    const double start = nowSeconds();
    do {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        const std::vector<SimRunRecord> recs =
            simulatePass(programs, order, refs, kSimPoolWidth, opts.trace);
        double run = 0.0, replay = 0.0;
        bursts = calls = hits = misses = 0;
        simTicks = 0.0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const SimRunRecord &rec = recs[i];
            ++r.attempted;
            if (!rec.matchesReference) {
                ++r.failed;
                std::fprintf(stderr,
                             "perfbench: %s differs from its reference "
                             "(ticks %llu, energy %.17g pJ)\n",
                             programs[i].name.c_str(),
                             static_cast<unsigned long long>(
                                 rec.outputs.totalTicks),
                             rec.outputs.energyPj);
            }
            run += rec.runSeconds;
            replay += rec.replaySeconds;
            simTicks += static_cast<double>(rec.outputs.totalTicks);
            const std::uint64_t simBursts =
                rec.outputs.dramReads + rec.outputs.dramWrites;
            bursts += simBursts;
            calls += rec.replayCalls;
            hits += rec.rowHits;
            misses += rec.rowMisses;
            if (opts.trace && rec.replayBursts != simBursts)
                ++replayMismatches;
        }
        passRun.push_back(run);
        passReplay.push_back(replay);
        setUp();
    } while (nowSeconds() - start < opts.seconds);

    const double simS = median(passRun);
    r.provenance.emplace_back("passes", std::to_string(passRun.size()));
    r.provenance.emplace_back("programs", std::to_string(programs.size()));
    // The unit of work is one pass over every program.
    setEndToEnd(r, opts.trace, setup, peakRssMb(), passRun);
    r.extra.push_back({"sim_s", simS, "s"});
    r.extra.push_back({"samples_per_s", samples / simS, "samples/s"});
    if (!opts.trace)
        return r;

    if (replayMismatches > 0) {
        std::fprintf(stderr,
                     "perfbench: %llu DRAM replays did not reproduce "
                     "the executor's burst count; dram.* is invalid\n",
                     static_cast<unsigned long long>(replayMismatches));
    }
    const double replayS = median(passReplay);
    const double fb = static_cast<double>(bursts);
    initPerLayerMetrics(r);
    r.set("compiler.codegen_s", median(codegen), "s");
    r.set("compiler.instrs", instrs, "count");
    r.set("compiler.rss_growth_mb", rssGrowthMb, "MB");
    r.set("arch.run_s", simS, "s");
    r.set("arch.executor_s", simS - replayS, "s");
    r.set("arch.sim_ticks", simTicks, "cycles");
    r.set("dram.replay_s", replayS, "s");
    r.set("dram.replay_valid", replayMismatches == 0 ? 1.0 : 0.0, "bool");
    r.set("dram.bursts", fb, "count");
    r.set("dram.ns_per_burst", bursts > 0 ? replayS * 1e9 / fb : 0.0, "ns");
    r.set("dram.bursts_per_call",
          calls > 0 ? fb / static_cast<double>(calls) : 0.0, "count");
    r.set("dram.row_hit_rate",
          hits + misses > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(hits + misses)
                            : 0.0,
          "ratio");
    return r;
}

int
writeSimReferences(const Options &opts)
{
    ReferenceTable table;
    loadReferences(opts.referencePath, table, nullptr);
    const std::vector<SimProgram> programs =
        compilePrograms(opts.workload, nullptr, nullptr);
    for (const SimProgram &sp : programs) {
        arch::Accelerator acc(sp.config);
        table[sp.name] = simOutputs(acc.run(sp.program));
    }
    return writeReferences(opts.referencePath, table) ? 0 : 1;
}

} // namespace cq::perfbench
