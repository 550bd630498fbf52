/**
 * @file
 * Tests for the workload builder and code generator, plus
 * integration tests running generated programs through the
 * Cambricon-Q and TPU simulators.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "arch/accelerator.h"
#include "baseline/gpu_model.h"
#include "baseline/tpu_sim.h"
#include "common/crc32.h"
#include "common/threadpool.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"

namespace cq::compiler {
namespace {

using arch::Opcode;
using arch::Phase;

// ---------------------------------------------------------------- IR

TEST(Workloads, AlexNetWeightCount)
{
    const WorkloadIR ir = buildAlexNet();
    // Classic AlexNet has ~61M parameters (we omit biases).
    EXPECT_GT(ir.totalWeights, 55'000'000u);
    EXPECT_LT(ir.totalWeights, 65'000'000u);
}

TEST(Workloads, ResNet18WeightCount)
{
    const WorkloadIR ir = buildResNet18();
    EXPECT_GT(ir.totalWeights, 10'000'000u);
    EXPECT_LT(ir.totalWeights, 13'000'000u);
}

TEST(Workloads, GoogLeNetWeightCount)
{
    const WorkloadIR ir = buildGoogLeNet();
    EXPECT_GT(ir.totalWeights, 5'000'000u);
    EXPECT_LT(ir.totalWeights, 8'000'000u);
}

TEST(Workloads, SqueezeNetWeightCount)
{
    const WorkloadIR ir = buildSqueezeNet();
    EXPECT_GT(ir.totalWeights, 1'000'000u);
    EXPECT_LT(ir.totalWeights, 2'000'000u);
}

TEST(Workloads, TransformerWeightCount)
{
    const WorkloadIR ir = buildTransformerBase();
    EXPECT_GT(ir.totalWeights, 55'000'000u);
    EXPECT_LT(ir.totalWeights, 75'000'000u);
}

TEST(Workloads, LstmWeightCount)
{
    const WorkloadIR ir = buildPtbLstm();
    EXPECT_GT(ir.totalWeights, 18'000'000u);
    EXPECT_LT(ir.totalWeights, 22'000'000u);
}

TEST(Workloads, BackwardRoughlyDoublesForwardMacs)
{
    for (const auto &ir : {buildAlexNet(), buildResNet18()}) {
        const auto fw = ir.macsInPhase(Phase::FW);
        const auto bw =
            ir.macsInPhase(Phase::NG) + ir.macsInPhase(Phase::WG);
        EXPECT_GT(bw, fw);           // backward has NG + WG
        EXPECT_LT(bw, 5 * fw / 2);   // but no more than ~2.5x
    }
}

TEST(Workloads, PhasesPresent)
{
    const WorkloadIR ir = buildTinyCnn();
    for (auto phase : {Phase::FW, Phase::NG, Phase::WG})
        EXPECT_GT(ir.macsInPhase(phase), 0u) << arch::phaseName(phase);
    EXPECT_GT(ir.totalWeights, 0u);
}

TEST(Workloads, AlexNetIsWeightHeavy)
{
    // AlexNet's weights-per-MAC ratio is much higher than
    // GoogLeNet's -- the property behind the NDP ablation shape.
    const WorkloadIR alex = buildAlexNet();
    const WorkloadIR goog = buildGoogLeNet();
    const double alex_ratio =
        static_cast<double>(alex.totalWeights) / alex.totalMacs;
    const double goog_ratio =
        static_cast<double>(goog.totalWeights) / goog.totalMacs;
    EXPECT_GT(alex_ratio, 5.0 * goog_ratio);
}


TEST(WorkloadStructure, InferenceModeForwardOnly)
{
    NetworkBuilder b("inf", 8);
    b.inputImage(3, 16, 16);
    b.conv("c1", 8, 3, 1, 1);
    b.fc("fc", 10, false);
    const WorkloadIR ir = b.buildInference();
    EXPECT_EQ(ir.totalWeights, 0u); // no update tasks
    EXPECT_EQ(ir.macsInPhase(Phase::NG), 0u);
    EXPECT_EQ(ir.macsInPhase(Phase::WG), 0u);
    EXPECT_GT(ir.macsInPhase(Phase::FW), 0u);

    // And it simulates: INT4 inference is the Sec. VII-C use case.
    const auto cfg = arch::CambriconQConfig::edge();
    CodegenOptions o4;
    o4.bits = 4;
    const auto t4 = arch::Accelerator(cfg)
                        .run(generateProgram(ir, cfg, o4))
                        .totalTicks;
    CodegenOptions o8;
    const auto t8 = arch::Accelerator(cfg)
                        .run(generateProgram(ir, cfg, o8))
                        .totalTicks;
    EXPECT_LT(t4, t8);
}

// ---------------------------------------------------------------- codegen

TEST(Codegen, TinyProgramValidates)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    const arch::Program prog =
        generateProgram(ir, cfg, CodegenOptions{});
    // Program::append panics on an instruction that breaks an
    // invariant, so a program that was built is a valid one.
    EXPECT_GT(prog.size(), 10u);
}

TEST(Codegen, NdpProgramUsesWgstoreNotUpdateLoads)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    const arch::Program prog =
        generateProgram(ir, cfg, CodegenOptions{});
    std::size_t wgstores = 0, crosets = 0;
    for (const auto &ins : prog) {
        wgstores += ins.op == Opcode::WGSTORE;
        crosets += ins.op == Opcode::CROSET;
    }
    EXPECT_GT(wgstores, 0u);
    EXPECT_EQ(crosets, 1u);
}

TEST(Codegen, NoNdpProgramHasExplicitUpdate)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg =
        arch::CambriconQConfig::edgeNoNdp();
    const arch::Program prog =
        generateProgram(ir, cfg, CodegenOptions{});
    std::size_t wgstores = 0, wu_loads = 0;
    for (const auto &ins : prog) {
        wgstores += ins.op == Opcode::WGSTORE;
        wu_loads += ins.op == Opcode::VLOAD && ins.phase == Phase::WU;
    }
    EXPECT_EQ(wgstores, 0u);
    EXPECT_GT(wu_loads, 0u);
}

TEST(Codegen, TpuProgramHasStatQuantPasses)
{
    const WorkloadIR ir = buildTinyCnn();
    CodegenOptions opts;
    opts.target = CodegenOptions::Target::Tpu;
    const arch::Program prog =
        generateProgram(ir, baseline::tpuConfig(), opts);
    double stat = 0, quant = 0, qstores = 0;
    for (const auto &ins : prog) {
        stat += ins.phase == Phase::Stat;
        quant += ins.phase == Phase::Quant;
        qstores += ins.op == Opcode::QSTORE || ins.op == Opcode::QMOVE;
    }
    EXPECT_GT(stat, 0);
    EXPECT_GT(quant, 0);
    EXPECT_EQ(qstores, 0); // no SQU on the TPU
}

TEST(Codegen, CambriconQQuantizesOnTheFly)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::Program prog = generateProgram(
        ir, arch::CambriconQConfig::edge(), CodegenOptions{});
    double qstores = 0, stat_instrs = 0;
    for (const auto &ins : prog) {
        qstores += ins.op == Opcode::QSTORE;
        stat_instrs += ins.phase == Phase::Stat;
    }
    EXPECT_GT(qstores, 0);
    EXPECT_EQ(stat_instrs, 0); // fused, no separate statistic pass
}

TEST(Codegen, TpuMovesMoreBytesThanCambriconQ)
{
    const WorkloadIR ir = buildTinyCnn();
    const auto cq_prog = generateProgram(
        ir, arch::CambriconQConfig::edge(), CodegenOptions{});
    CodegenOptions topts;
    topts.target = CodegenOptions::Target::Tpu;
    const auto tpu_prog =
        generateProgram(ir, baseline::tpuConfig(), topts);

    const auto cq_traffic = summarizeTraffic(cq_prog);
    const auto tpu_traffic = summarizeTraffic(tpu_prog);
    EXPECT_GT(tpu_traffic.totalBytes(), cq_traffic.totalBytes());
}

TEST(Codegen, NdpEliminatesHighPrecisionUpdateTraffic)
{
    const WorkloadIR ir = buildTinyCnn();
    const auto with_ndp = summarizeTraffic(generateProgram(
        ir, arch::CambriconQConfig::edge(), CodegenOptions{}));
    const auto without = summarizeTraffic(generateProgram(
        ir, arch::CambriconQConfig::edgeNoNdp(), CodegenOptions{}));
    EXPECT_LT(with_ndp.totalBytes(), without.totalBytes());
}

// ---------------------------------------------------------- integration

TEST(Integration, TinyCnnRunsOnCambriconQ)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    arch::Accelerator acc(cfg);
    const auto report = acc.run(
        generateProgram(ir, cfg, CodegenOptions{}));
    EXPECT_GT(report.totalTicks, 0u);
    EXPECT_GT(report.energy.totalPj(), 0.0);
    // All four training phases show up.
    for (auto phase : {Phase::FW, Phase::NG, Phase::WG, Phase::WU}) {
        EXPECT_GT(
            report.phaseBusy[static_cast<std::size_t>(phase)], 0.0)
            << arch::phaseName(phase);
    }
}

TEST(Integration, TinyCnnRunsOnTpu)
{
    const auto report = arch::Accelerator(baseline::tpuConfig())
                            .run(baseline::compileTpu(buildTinyCnn()));
    EXPECT_GT(report.totalTicks, 0u);
    EXPECT_GT(
        report.phaseBusy[static_cast<std::size_t>(Phase::Stat)], 0.0);
}

TEST(Integration, CambriconQBeatsTpuOnMidCnn)
{
    // A toy 16x16 network is dominated by fixed per-layer overheads
    // (QMOVE round trips), where the TPU can legitimately tie; the
    // paper's claim is about realistic layer sizes, so use a small
    // but non-trivial CNN.
    NetworkBuilder b("MidCNN", 32);
    b.inputImage(3, 64, 64);
    b.conv("conv1", 32, 3, 1, 1);
    b.conv("conv2", 64, 3, 2, 1);
    b.conv("conv3", 128, 3, 2, 1);
    b.fc("fc", 100, false);
    const WorkloadIR ir = b.build();

    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    arch::Accelerator acc(cfg);
    const auto cq = acc.run(generateProgram(ir, cfg, CodegenOptions{}));
    const auto tpu =
        arch::Accelerator(baseline::tpuConfig()).run(baseline::compileTpu(ir));
    EXPECT_LT(cq.totalTicks, tpu.totalTicks);
}

TEST(Integration, NdpImprovesWeightHeavyWorkload)
{
    // An FC-heavy tiny workload: NDP must cut WU time clearly.
    const WorkloadIR ir = buildTinyMlp(4);
    arch::Accelerator with(arch::CambriconQConfig::edge());
    arch::Accelerator without(arch::CambriconQConfig::edgeNoNdp());
    const auto r1 = with.run(generateProgram(
        ir, arch::CambriconQConfig::edge(), CodegenOptions{}));
    const auto r2 = without.run(generateProgram(
        ir, arch::CambriconQConfig::edgeNoNdp(), CodegenOptions{}));
    const auto wu = static_cast<std::size_t>(Phase::WU);
    EXPECT_LT(r1.phaseBusy[wu], r2.phaseBusy[wu]);
}

TEST(Integration, DeterministicSimulation)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    const auto prog = generateProgram(ir, cfg, CodegenOptions{});
    const auto t1 = arch::Accelerator(cfg).run(prog).totalTicks;
    const auto t2 = arch::Accelerator(cfg).run(prog).totalTicks;
    EXPECT_EQ(t1, t2);
}

// A const Program carries no lazily built state, so pool threads may
// simulate one program at once; the tsan job runs this suite. The
// program's first runs are the concurrent ones, so state a run built
// inside it on first use would be raced on.
TEST(SharedProgram, ConcurrentRunsEqualSerialRun)
{
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    const arch::Program prog =
        generateProgram(buildTinyCnn(), cfg, CodegenOptions{});

    constexpr std::size_t kTasks = 4;
    std::vector<arch::PerfReport> reports(kTasks);
    ThreadPool::instance().setNumThreads(kTasks);
    parallelFor(0, kTasks, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t)
            reports[t] = arch::Accelerator(cfg).run(prog);
    });
    ThreadPool::instance().setNumThreads(0); // restore default

    const arch::PerfReport serial = arch::Accelerator(cfg).run(prog);

    for (const arch::PerfReport &r : reports) {
        EXPECT_EQ(r.totalTicks, serial.totalTicks);
        for (const char *c : {"dram.reads", "dram.writes", "dram.busBytes"})
            EXPECT_EQ(r.activity.get(c), serial.activity.get(c)) << c;
        EXPECT_EQ(r.energy.totalPj(), serial.energy.totalPj());
        EXPECT_EQ(r.phaseBusy, serial.phaseBusy);
        EXPECT_EQ(r.unitBusy, serial.unitBusy);
    }
}

// ---------------------------------------------------------------- GPU

TEST(GpuModel, QuantizedSlowerThanFp32OnGpu)
{
    // The paper's Fig. 3 observation: quantized training is 1.09x to
    // 1.78x *slower* on a GPU.
    const WorkloadIR ir = buildTinyCnn(16);
    const auto gpu = baseline::GpuSpec::jetsonTx2();
    const auto fp32 = baseline::simulateGpu(ir, gpu, false);
    const auto quant = baseline::simulateGpu(ir, gpu, true);
    EXPECT_GT(quant.timeMs, fp32.timeMs);
}

TEST(GpuModel, BiggerGpuFaster)
{
    const WorkloadIR ir = buildTinyCnn(16);
    const auto tx2 =
        baseline::simulateGpu(ir, baseline::GpuSpec::jetsonTx2(), true);
    const auto v100 =
        baseline::simulateGpu(ir, baseline::GpuSpec::v100(), true);
    EXPECT_LT(v100.timeMs, tx2.timeMs);
}

TEST(GpuModel, EnergyPositiveAndProportional)
{
    const WorkloadIR ir = buildTinyCnn(16);
    const auto gpu = baseline::GpuSpec::jetsonTx2();
    const auto res = baseline::simulateGpu(ir, gpu, true);
    EXPECT_NEAR(res.energyMj, gpu.trainPowerW * res.timeMs, 1e-9);
}


// -------------------------------------------------------- IR structure

TEST(WorkloadStructure, ForwardTasksPrecedeBackward)
{
    const WorkloadIR ir = buildTinyCnn();
    bool seen_backward = false;
    for (const auto &task : ir.tasks) {
        Phase phase = Phase::FW;
        if (task.kind == Task::Kind::Gemm)
            phase = task.gemm.phase;
        else if (task.kind == Task::Kind::Stream)
            phase = task.stream.phase;
        else
            continue;
        if (phase != Phase::FW)
            seen_backward = true;
        else
            EXPECT_FALSE(seen_backward)
                << "forward task after backward began";
    }
}

TEST(WorkloadStructure, EveryGemmLayerGetsUpdate)
{
    const WorkloadIR ir = buildTinyCnn();
    std::set<std::string> fresh, updated;
    for (const auto &task : ir.tasks) {
        if (task.kind == Task::Kind::Gemm &&
            task.gemm.freshWeightElems > 0)
            fresh.insert(task.gemm.layer);
        if (task.kind == Task::Kind::Update)
            updated.insert(task.update.layer);
    }
    EXPECT_EQ(fresh, updated);
}

TEST(WorkloadStructure, WgGemmsMarkedFullPrecision)
{
    for (const auto &ir : {buildTinyCnn(), buildTinyMlp()}) {
        for (const auto &task : ir.tasks) {
            if (task.kind != Task::Kind::Gemm)
                continue;
            EXPECT_EQ(task.gemm.isWeightGradient,
                      task.gemm.phase == Phase::WG);
        }
    }
}

TEST(WorkloadStructure, GradientsUseFourWayE2bqm)
{
    const WorkloadIR ir = buildTinyCnn();
    for (const auto &task : ir.tasks) {
        if (task.kind == Task::Kind::Gemm &&
            task.gemm.phase == Phase::NG) {
            EXPECT_EQ(task.gemm.waysOut, 4u);
        }
    }
}

TEST(WorkloadStructure, GoogLeNetInceptionBranchCount)
{
    // 9 inception modules x 6 convs + stem 3 convs + fc = 58 weighted
    // layers -> 58 update tasks.
    const WorkloadIR ir = buildGoogLeNet();
    std::size_t updates = 0;
    for (const auto &task : ir.tasks)
        updates += task.kind == Task::Kind::Update;
    EXPECT_EQ(updates, 9u * 6u + 3u + 1u);
}

TEST(WorkloadStructure, ResNetDownsampleConvsPresent)
{
    // conv1 + 16 block convs + 3 downsample 1x1 convs + fc = 21.
    const WorkloadIR ir = buildResNet18();
    std::size_t updates = 0;
    for (const auto &task : ir.tasks)
        updates += task.kind == Task::Kind::Update;
    EXPECT_EQ(updates, 21u);
}

TEST(WorkloadStructure, LstmStepsSerializedByStateTensors)
{
    const WorkloadIR ir = buildPtbLstm(4, 5);
    // Each forward step's A tensor is the previous step's C tensor.
    std::string prev;
    for (const auto &task : ir.tasks) {
        if (task.kind != Task::Kind::Gemm ||
            task.gemm.phase != Phase::FW ||
            task.gemm.layer != "lstm1")
            continue;
        if (!prev.empty()) {
            EXPECT_EQ(task.gemm.aTensor, prev);
        }
        prev = task.gemm.cTensor;
    }
}

TEST(WorkloadStructure, TransformerAttentionHeadsEmitted)
{
    const WorkloadIR ir = buildTransformerBase(2, 8);
    // Each encoder block emits 8 score GEMMs (one per head).
    std::size_t scores = 0;
    for (const auto &task : ir.tasks) {
        if (task.kind == Task::Kind::Gemm &&
            task.gemm.cTensor.find("enc0.scores") !=
                std::string::npos)
            ++scores;
    }
    EXPECT_EQ(scores, 8u);
}

TEST(WorkloadStructure, ConvRawElemsSmallerThanIm2col)
{
    // The raw-stream override must shrink conv A-operand footprints
    // versus the dense im2col expansion (k > C for 3x3 kernels).
    const WorkloadIR ir = buildTinyCnn();
    for (const auto &task : ir.tasks) {
        if (task.kind != Task::Kind::Gemm ||
            task.gemm.phase != Phase::FW ||
            task.gemm.aElemsTotal == 0)
            continue;
        EXPECT_LT(task.gemm.aElems(), task.gemm.m * task.gemm.k);
    }
}

TEST(WorkloadStructure, MacsInPhaseSumsToTotal)
{
    const WorkloadIR ir = buildAlexNet();
    std::uint64_t sum = 0;
    for (auto phase : {Phase::FW, Phase::NG, Phase::WG, Phase::WU,
                       Phase::Stat, Phase::Quant})
        sum += ir.macsInPhase(phase);
    EXPECT_EQ(sum, ir.totalMacs);
}

// ------------------------------------------------------ pinned programs

/**
 * CRC-32 over a little-endian serialization of logical content, so
 * the digest is the same on any host and for any in-memory layout of
 * Instr or Task.
 */
class Digest
{
  public:
    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>(v >> (8 * i)));
    }

    void
    text(const std::string &s)
    {
        word(s.size());
        buf_ += s;
    }

    std::uint32_t
    crc()
    {
        crc_ = crc32(buf_.data(), buf_.size(), crc_);
        buf_.clear();
        return crc_;
    }

  private:
    std::string buf_;
    std::uint32_t crc_ = 0;
};

/** Each instruction's eight encoded words, dependences and tag. */
std::uint32_t
programDigest(const arch::Program &prog)
{
    Digest d;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        for (std::uint64_t w : arch::encodeInstr(prog[i]).words)
            d.word(w);
        d.word(prog.deps(i).size());
        for (std::uint32_t dep : prog.deps(i))
            d.word(dep);
        d.text(prog.tag(i));
        d.crc();
    }
    return d.crc();
}

/** Every field of every task, in list order. */
std::uint32_t
irDigest(const WorkloadIR &ir)
{
    Digest d;
    d.text(ir.name);
    d.word(ir.batch);
    for (const auto &task : ir.tasks) {
        d.word(static_cast<std::uint64_t>(task.kind));
        switch (task.kind) {
          case Task::Kind::Gemm: {
            const GemmTask &g = task.gemm;
            d.word(static_cast<std::uint64_t>(g.phase));
            d.text(g.layer);
            for (std::uint64_t v : {g.m, g.n, g.k})
                d.word(v);
            d.text(g.aTensor);
            d.word(g.aIsFp32);
            d.text(g.bTensor);
            d.word(g.freshWeightElems);
            d.text(g.cTensor);
            d.word(g.isWeightGradient);
            d.word(g.waysOut);
            d.word(g.fusedActivation);
            for (std::uint64_t v :
                 {g.aElemsTotal, g.bElemsTotal, g.cElemsTotal})
                d.word(v);
            break;
          }
          case Task::Kind::Stream: {
            const StreamTask &s = task.stream;
            d.word(static_cast<std::uint64_t>(s.phase));
            d.text(s.layer);
            d.text(s.inTensor);
            d.text(s.outTensor);
            d.text(s.inTensor2);
            for (std::uint64_t v : {s.inElems2, s.inElems, s.outElems})
                d.word(v);
            d.word(s.isWeightGradient);
            d.word(s.sfuOps);
            d.word(s.waysOut);
            break;
          }
          case Task::Kind::Update:
            d.text(task.update.layer);
            d.word(task.update.numWeights);
            break;
          case Task::Kind::Alias:
            d.text(task.alias.outTensor);
            d.word(task.alias.inTensors.size());
            for (const auto &in : task.alias.inTensors)
                d.text(in);
            break;
        }
    }
    return d.crc();
}

struct PinnedDigest
{
    std::string network;
    /** Compile target, or "IR" for the network's task list. */
    std::string target;
    std::string optimizer;
    /** Instructions (tasks for an IR). */
    std::size_t size = 0;
    std::uint32_t crc = 0;

    bool operator==(const PinnedDigest &) const = default;
};

/**
 * The Table VI programs and IRs. A deliberate change to any compiled
 * program re-baselines this table in one edit: the failing test
 * prints the replacement.
 */
const std::vector<PinnedDigest> kPinnedDigests = {
    {"AlexNet", "IR", "", 37, 0x8b08ee72u},
    {"AlexNet", "CQ", "RMSProp", 54405, 0xf8ee418cu},
    {"AlexNet", "CQ-noNDP", "RMSProp", 55856, 0xf60627f3u},
    {"AlexNet", "TPU", "RMSProp", 65112, 0x7785a17eu},
    {"AlexNet", "CQ-noNDP", "SGD", 55372, 0x9d86e168u},
    {"AlexNet", "CQ-noNDP", "Adam", 56340, 0x48e47d88u},
    {"ResNet-18", "IR", "", 111, 0x9bc7220fu},
    {"ResNet-18", "CQ", "RMSProp", 110220, 0x2ebff0d3u},
    {"ResNet-18", "CQ-noNDP", "RMSProp", 110561, 0x8f5b71c2u},
    {"ResNet-18", "TPU", "RMSProp", 143481, 0x910cf906u},
    {"GoogLeNet", "IR", "", 304, 0x138053e4u},
    {"GoogLeNet", "CQ", "RMSProp", 91790, 0x198a55d2u},
    {"GoogLeNet", "CQ-noNDP", "RMSProp", 92197, 0xa9e1fcf3u},
    {"GoogLeNet", "TPU", "RMSProp", 121613, 0x045626acu},
    {"SqueezeNet", "IR", "", 135, 0x8be478f5u},
    {"SqueezeNet", "CQ", "RMSProp", 65275, 0x86dcf66eu},
    {"SqueezeNet", "CQ-noNDP", "RMSProp", 65436, 0x565e9395u},
    {"SqueezeNet", "TPU", "RMSProp", 89754, 0x2490d0b2u},
    {"Transformer", "IR", "", 1336, 0x4bf3dbd7u},
    {"Transformer", "CQ", "RMSProp", 260152, 0x99bb5d23u},
    {"Transformer", "CQ-noNDP", "RMSProp", 261561, 0x8c4d514au},
    {"Transformer", "TPU", "RMSProp", 359527, 0xeba1a601u},
    {"LSTM", "IR", "", 151, 0x9e74a962u},
    {"LSTM", "CQ", "RMSProp", 267559, 0x070ca1dbu},
    {"LSTM", "CQ-noNDP", "RMSProp", 268014, 0x96ff93b1u},
    {"LSTM", "TPU", "RMSProp", 309286, 0xcc41f625u},
};

TEST(Compiler, ProgramsMatchPinnedDigests)
{
    struct Target
    {
        const char *name;
        arch::CambriconQConfig config;
        CodegenOptions::Target target;
    };
    const Target cq{"CQ", arch::CambriconQConfig::edge(),
                    CodegenOptions::Target::CambriconQ};
    const Target no_ndp{"CQ-noNDP", arch::CambriconQConfig::edgeNoNdp(),
                        CodegenOptions::Target::CambriconQ};
    const Target tpu{"TPU", baseline::tpuConfig(),
                     CodegenOptions::Target::Tpu};

    std::vector<PinnedDigest> got;
    const auto compile = [&got](const WorkloadIR &ir, const Target &t,
                                nn::OptimizerKind optimizer,
                                const char *optimizer_name) {
        CodegenOptions opts;
        opts.target = t.target;
        opts.optimizer = optimizer;
        const arch::Program prog = generateProgram(ir, t.config, opts);
        got.push_back({ir.name, t.name, optimizer_name, prog.size(),
                       programDigest(prog)});
    };
    for (const auto &ir : allBenchmarks()) {
        got.push_back({ir.name, "IR", "", ir.tasks.size(), irDigest(ir)});
        for (const Target &t : {cq, no_ndp, tpu})
            compile(ir, t, nn::OptimizerKind::RMSProp, "RMSProp");
        // The non-NDP update moves 0 (SGD) and 2 (Adam) state streams.
        if (ir.name == "AlexNet") {
            compile(ir, no_ndp, nn::OptimizerKind::SGD, "SGD");
            compile(ir, no_ndp, nn::OptimizerKind::Adam, "Adam");
        }
    }

    std::string table;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const PinnedDigest &g = got[i];
        char row[160];
        std::snprintf(row, sizeof row,
                      "    {\"%s\", \"%s\", \"%s\", %zu, 0x%08xu},%s\n",
                      g.network.c_str(), g.target.c_str(),
                      g.optimizer.c_str(), g.size, g.crc,
                      i < kPinnedDigests.size() && kPinnedDigests[i] == g
                          ? ""
                          : " // changed");
        table += row;
    }
    EXPECT_TRUE(got == kPinnedDigests)
        << "compiled programs differ from the pinned digests; after a "
           "deliberate change, replace kPinnedDigests with:\n"
        << table;
}

/**
 * generateProgram asserts that the plan pass's closed-form size equals
 * the number of instructions emitted. Compile the two tiny networks
 * for every target, width and optimizer, and the Table VI networks on
 * the throughput configs the pinned digests leave out, so that every
 * loop order, store kind and update width meets that assert.
 */
TEST(Compiler, PlannedSizeHoldsOnEveryTargetWidthAndOptimizer)
{
    struct Target
    {
        const char *name;
        arch::CambriconQConfig config;
        CodegenOptions::Target target;
    };
    using CodegenTarget = CodegenOptions::Target;
    const Target targets[] = {
        {"CQ", arch::CambriconQConfig::edge(), CodegenTarget::CambriconQ},
        {"CQ-noNDP", arch::CambriconQConfig::edgeNoNdp(),
         CodegenTarget::CambriconQ},
        {"TPU", baseline::tpuConfig(), CodegenTarget::Tpu},
        {"CQ-T", arch::CambriconQConfig::throughputT(),
         CodegenTarget::CambriconQ},
        {"CQ-V", arch::CambriconQConfig::throughputV(),
         CodegenTarget::CambriconQ},
    };
    std::set<Opcode> emitted;
    const auto compile = [&emitted](const WorkloadIR &ir, const Target &t,
                                    int bits, nn::OptimizerKind optimizer) {
        CodegenOptions opts;
        opts.target = t.target;
        opts.bits = bits;
        opts.optimizer = optimizer;
        const arch::Program prog = generateProgram(ir, t.config, opts);
        EXPECT_GT(prog.size(), 0u) << ir.name << " on " << t.name;
        for (const auto &ins : prog)
            emitted.insert(ins.op);
    };
    for (const WorkloadIR &ir : {buildTinyCnn(), buildTinyMlp()}) {
        for (const Target &t : targets) {
            for (int bits : {4, 8, 16}) {
                for (nn::OptimizerKind optimizer :
                     {nn::OptimizerKind::SGD, nn::OptimizerKind::RMSProp,
                      nn::OptimizerKind::Adam})
                    compile(ir, t, bits, optimizer);
            }
        }
    }
    for (const WorkloadIR &ir : allBenchmarks()) {
        for (const Target &t : {targets[3], targets[4]})
            compile(ir, t, 8, nn::OptimizerKind::RMSProp);
    }
    // Every kind of instruction the plan counts was emitted.
    for (Opcode op : {Opcode::CROSET, Opcode::QLOAD, Opcode::SLOAD,
                      Opcode::QMOVE, Opcode::QSTORE, Opcode::WGSTORE,
                      Opcode::HMUL, Opcode::VMUL, Opcode::SFU})
        EXPECT_EQ(emitted.count(op), 1u) << arch::opcodeName(op);
}

} // namespace
} // namespace cq::compiler
