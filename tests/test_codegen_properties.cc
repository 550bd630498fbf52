/**
 * @file
 * Property tests of the code generator and the energy/ISA
 * infrastructure: for swept GEMM shapes and targets, emitted programs
 * must validate, move at least the operand footprints, keep every
 * tile within the double-buffered on-chip capacities, and simulate
 * deterministically. Metamorphic timing tests check the simulator
 * against itself: more of a resource never makes a training minibatch
 * slower. Plus ISA encode/decode round trips and energy model unit
 * tests.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "arch/accelerator.h"
#include "arch/isa.h"
#include "baseline/tpu_sim.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "dram/dram_config.h"
#include "energy/energy_model.h"

namespace cq {
namespace {

using compiler::CodegenOptions;
using compiler::GemmTask;
using compiler::Task;
using compiler::WorkloadIR;

WorkloadIR
singleGemmWorkload(std::uint64_t m, std::uint64_t n, std::uint64_t k)
{
    WorkloadIR ir;
    ir.name = "one-gemm";
    ir.batch = 1;
    GemmTask g;
    g.layer = "L";
    g.m = m;
    g.n = n;
    g.k = k;
    g.aTensor = "input";
    g.bTensor = "w:L";
    g.freshWeightElems = k * n;
    g.cTensor = "act:L";
    ir.tasks.push_back(Task::make(g));
    ir.finalize();
    return ir;
}

// ------------------------------------------------- codegen shape sweep

struct GemmShape
{
    std::uint64_t m, n, k;
};

class CodegenShapes
    : public ::testing::TestWithParam<std::tuple<GemmShape, int>>
{
};

TEST_P(CodegenShapes, ProgramValidatesAndCoversOperands)
{
    const auto [shape, target] = GetParam();
    const WorkloadIR ir =
        singleGemmWorkload(shape.m, shape.n, shape.k);
    const arch::CambriconQConfig cfg =
        target == 0 ? arch::CambriconQConfig::edge()
                    : baseline::tpuConfig();
    CodegenOptions opts;
    opts.target = target == 0 ? CodegenOptions::Target::CambriconQ
                              : CodegenOptions::Target::Tpu;
    const arch::Program prog =
        compiler::generateProgram(ir, cfg, opts);

    // Loads must cover at least one pass over each operand (A once,
    // quantized B once); stores at least the output.
    const auto traffic = compiler::summarizeTraffic(prog);
    EXPECT_GE(traffic.loadBytes, shape.m * shape.k + shape.k * shape.n);
    EXPECT_GE(traffic.storeBytes, shape.m * shape.n);

    // All MM tiles must fit the double-buffered capacities.
    for (const auto &ins : prog) {
        if (ins.op != arch::Opcode::MM &&
            ins.op != arch::Opcode::CONV)
            continue;
        EXPECT_LE(static_cast<Bytes>(ins.m) * ins.k * ins.bitsA / 8,
                  cfg.nbinBytes / 2)
            << ins.toString();
        EXPECT_LE(static_cast<Bytes>(ins.k) * ins.n * ins.bitsB / 8,
                  cfg.sbBytes / 2)
            << ins.toString();
        EXPECT_LE(static_cast<Bytes>(ins.m) * ins.n * 4,
                  cfg.nboutBytes)
            << ins.toString();
    }

    // The emitted MM tiles cover exactly the full GEMM volume.
    std::uint64_t macs = 0;
    for (const auto &ins : prog) {
        if (ins.op == arch::Opcode::MM ||
            ins.op == arch::Opcode::CONV)
            macs += static_cast<std::uint64_t>(ins.m) * ins.n * ins.k;
    }
    EXPECT_EQ(macs, shape.m * shape.n * shape.k);
}

TEST_P(CodegenShapes, SimulationDeterministicAndFinite)
{
    const auto [shape, target] = GetParam();
    const WorkloadIR ir =
        singleGemmWorkload(shape.m, shape.n, shape.k);
    const arch::CambriconQConfig cfg =
        target == 0 ? arch::CambriconQConfig::edge()
                    : baseline::tpuConfig();
    CodegenOptions opts;
    opts.target = target == 0 ? CodegenOptions::Target::CambriconQ
                              : CodegenOptions::Target::Tpu;
    const arch::Program prog =
        compiler::generateProgram(ir, cfg, opts);
    const Tick t1 = arch::Accelerator(cfg).run(prog).totalTicks;
    const Tick t2 = arch::Accelerator(cfg).run(prog).totalTicks;
    EXPECT_EQ(t1, t2);
    EXPECT_GT(t1, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTargets, CodegenShapes,
    ::testing::Combine(
        ::testing::Values(GemmShape{1, 1, 1}, GemmShape{7, 13, 17},
                          GemmShape{512, 64, 576},
                          GemmShape{64, 1000, 4096},
                          GemmShape{4096, 64, 64},
                          GemmShape{33, 4097, 129}),
        ::testing::Values(0, 1)),
    [](const auto &info) {
        const auto &s = std::get<0>(info.param);
        return std::string(std::get<1>(info.param) == 0 ? "cq" : "tpu") +
               "_m" + std::to_string(s.m) + "n" + std::to_string(s.n) +
               "k" + std::to_string(s.k);
    });

// ---------------------------------------------- metamorphic timing

/** A network simulated on variants of the edge Cambricon-Q config. */
class TimingMetamorphic : public ::testing::TestWithParam<std::string>
{
  protected:
    /** Modeled ticks of one minibatch on @p cfg at @p bits. */
    Tick
    ticks(const arch::CambriconQConfig &cfg, int bits = 8) const
    {
        CodegenOptions opts;
        opts.bits = bits;
        const arch::Program prog =
            compiler::generateProgram(ir_, cfg, opts);
        return arch::Accelerator(cfg).run(prog).totalTicks;
    }

    /**
     * Ticks over @p steps variants, each of the edge config edited by
     * @p edit(cfg, step), must never rise from one step to the next.
     */
    void
    expectNeverSlower(
        const std::vector<std::string> &steps,
        const std::function<void(arch::CambriconQConfig &, std::size_t)>
            &edit) const
    {
        Tick prev = 0;
        for (std::size_t i = 0; i < steps.size(); ++i) {
            arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
            edit(cfg, i);
            const Tick t = ticks(cfg);
            EXPECT_GT(t, 0u) << steps[i];
            if (i > 0) {
                EXPECT_LE(t, prev) << steps[i - 1] << " -> " << steps[i];
            }
            prev = t;
        }
    }

    const WorkloadIR ir_ = GetParam() == "tinycnn"
                               ? compiler::buildTinyCnn()
                               : compiler::buildResNet18();
};

TEST_P(TimingMetamorphic, MoreDramChannelsNeverSlower)
{
    // 1, 2 and 4 channels: each count takes its own row-window path in
    // the DRAM controller.
    constexpr unsigned kChannels[] = {1, 2, 4};
    expectNeverSlower({"1 channel", "2 channels", "4 channels"},
                      [&](arch::CambriconQConfig &cfg, std::size_t i) {
                          cfg.dram = dram::DramConfig::scaled(kChannels[i]);
                      });
}

TEST_P(TimingMetamorphic, WiderSquNeverSlower)
{
    constexpr unsigned kWidths[] = {16, 32, 64, 128};
    expectNeverSlower({"16 B/cycle", "32 B/cycle", "64 B/cycle",
                       "128 B/cycle"},
                      [&](arch::CambriconQConfig &cfg, std::size_t i) {
                          cfg.squStatBytesPerCycle = kWidths[i];
                          cfg.squQuantBytesPerCycle = kWidths[i];
                      });
}

TEST_P(TimingMetamorphic, NarrowerOperandsNeverSlower)
{
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    const Tick int16 = ticks(cfg, 16);
    const Tick int8 = ticks(cfg, 8);
    const Tick int4 = ticks(cfg, 4);
    EXPECT_LE(int8, int16);
    EXPECT_LE(int4, int8);
}

TEST_P(TimingMetamorphic, NdpNeverSlower)
{
    EXPECT_LE(ticks(arch::CambriconQConfig::edge()),
              ticks(arch::CambriconQConfig::edgeNoNdp()));
}

INSTANTIATE_TEST_SUITE_P(Networks, TimingMetamorphic,
                         ::testing::Values("tinycnn", "resnet18"),
                         [](const auto &info) { return info.param; });

// --------------------------------------------------- ISA round trip

/** Every architectural field of @p got equals that of @p want. */
void
expectSameFields(const arch::Instr &got, const arch::Instr &want)
{
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.phase, want.phase);
    EXPECT_EQ(got.buf, want.buf);
    EXPECT_EQ(got.addr, want.addr);
    EXPECT_EQ(got.addr2, want.addr2);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.bytes2, want.bytes2);
    EXPECT_EQ(got.m, want.m);
    EXPECT_EQ(got.n, want.n);
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.bitsA, want.bitsA);
    EXPECT_EQ(got.bitsB, want.bitsB);
    EXPECT_EQ(got.elems, want.elems);
    EXPECT_EQ(got.ways, want.ways);
}

TEST(IsaEncoding, RoundTripsEveryField)
{
    arch::Instr ins;
    ins.op = arch::Opcode::WGSTORE;
    ins.phase = arch::Phase::WU;
    ins.addr = 0x123456789abcull;
    ins.bytes = 0x11223344ull;
    ins.addr2 = 0xdeadbeefull;
    ins.bytes2 = 77;
    ins.buf = arch::BufId::NBout;
    ins.m = 123;
    ins.n = 456;
    ins.k = 789;
    ins.bitsA = 12;
    ins.bitsB = 16;
    ins.elems = (1ull << 40) + 5;
    ins.ways = 4;

    expectSameFields(arch::decodeInstr(arch::encodeInstr(ins)), ins);
}

TEST(IsaEncoding, WholeProgramRoundTrips)
{
    const auto ir = compiler::buildTinyCnn();
    CodegenOptions tpu;
    tpu.target = CodegenOptions::Target::Tpu;
    const arch::Program progs[] = {
        compiler::generateProgram(ir, arch::CambriconQConfig::edge(),
                                  CodegenOptions{}),
        compiler::generateProgram(ir, baseline::tpuConfig(), tpu)};
    for (const arch::Program &prog : progs) {
        ASSERT_GT(prog.size(), 0u);
        for (std::size_t i = 0; i < prog.size(); ++i) {
            SCOPED_TRACE("instr " + std::to_string(i));
            const arch::EncodedInstr enc = arch::encodeInstr(prog[i]);
            const arch::Instr back = arch::decodeInstr(enc);
            expectSameFields(back, prog[i]);
            const arch::EncodedInstr again = arch::encodeInstr(back);
            for (int w = 0; w < 8; ++w)
                EXPECT_EQ(again.words[w], enc.words[w]) << "word " << w;
        }
    }
}

// --------------------------------------------------- energy model

TEST(EnergyModel, SramEnergyGrowsWithCapacity)
{
    EXPECT_LT(energy::sramAccessPjPerByte(4 * 1024),
              energy::sramAccessPjPerByte(512 * 1024));
}

TEST(EnergyModel, BreakdownUsesActivityCounters)
{
    StatGroup act;
    act.counter("pe.macs.int8") = 1e6;
    act.counter("sfu.ops") = 1e3;
    act.counter("buf.NBin.capacity") = 256 * 1024;
    act.counter("buf.NBin.readBytes") = 1e6;
    const auto e = energy::buildBreakdown(act, 123.0, 456.0);
    EXPECT_GT(e.accPj, 1e6 * energy::op::kInt8Mul);
    EXPECT_GT(e.bufPj, 0.0);
    EXPECT_EQ(e.ddrDynamicPj, 123.0);
    EXPECT_EQ(e.ddrStandbyPj, 456.0);
    EXPECT_NEAR(e.totalPj(),
                e.accPj + e.bufPj + 123.0 + 456.0 + e.chipStaticPj,
                1e-9);
}

TEST(EnergyModel, EmptyActivityOnlyDram)
{
    StatGroup act;
    const auto e = energy::buildBreakdown(act, 10.0, 20.0);
    EXPECT_EQ(e.accPj, 0.0);
    EXPECT_EQ(e.bufPj, 0.0);
    EXPECT_EQ(e.totalPj(), 30.0);
}

TEST(EnergyModel, Int4MacsCheaperThanInt8)
{
    StatGroup a4, a8;
    a4.counter("pe.macs.int4") = 1e6;
    a8.counter("pe.macs.int8") = 1e6;
    EXPECT_LT(energy::buildBreakdown(a4, 0, 0).accPj,
              energy::buildBreakdown(a8, 0, 0).accPj);
}

TEST(EnergyModel, TableVIITotalsMatchPaper)
{
    const auto hw = energy::HwCharacteristics::cambriconQ();
    EXPECT_NEAR(hw.coreAreaMm2(), 8.69, 0.02);
    EXPECT_NEAR(hw.corePowerMw(), 891.37, 0.1);
    EXPECT_NEAR(hw.ndpAreaMm2(), 0.49, 0.001);
    EXPECT_NEAR(hw.ndpPowerMw(), 138.94, 0.01);
}

TEST(EnergyModel, DramAccessScalesWithWidth)
{
    EXPECT_GT(energy::op::dramAccess(32), energy::op::dramAccess(16));
    EXPECT_GT(energy::op::dramAccess(16), energy::op::dramAccess(8));
}

} // namespace
} // namespace cq
