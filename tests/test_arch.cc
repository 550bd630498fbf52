/**
 * @file
 * Tests of the architecture models: PE-array bit-serial datapath,
 * SQU timing, QBC requantization, NDP engine functional equivalence,
 * ISA helpers, and end-to-end executor smoke tests.
 */

#include <gtest/gtest.h>

#include "arch/accelerator.h"
#include "arch/config.h"
#include "arch/isa.h"
#include "arch/ndp_engine.h"
#include "arch/pe_array.h"
#include "arch/qbc.h"
#include "arch/squ.h"
#include "common/rng.h"
#include "nn/optimizer.h"

namespace cq::arch {
namespace {

// ---------------------------------------------------------------- PE array

TEST(PeArray, BitSerialMultiplyMatchesExact)
{
    Rng rng(1);
    for (int trial = 0; trial < 2000; ++trial) {
        const int bits_a = 4 << (trial % 3);      // 4, 8, 16
        const int bits_b = 4 << ((trial / 3) % 3);
        const std::int32_t max_a = (1 << (bits_a - 1)) - 1;
        const std::int32_t max_b = (1 << (bits_b - 1)) - 1;
        const std::int32_t a = static_cast<std::int32_t>(
            rng.below(2 * max_a + 1)) - max_a;
        const std::int32_t b = static_cast<std::int32_t>(
            rng.below(2 * max_b + 1)) - max_b;
        EXPECT_EQ(PeArray::bitSerialMultiply(a, bits_a, b, bits_b),
                  static_cast<std::int64_t>(a) * b)
            << a << " * " << b << " @ " << bits_a << "x" << bits_b;
    }
}

TEST(PeArray, BitSerialHandles12Bit)
{
    EXPECT_EQ(PeArray::bitSerialMultiply(2047, 12, -2047, 12),
              -2047ll * 2047);
}

TEST(PeArray, DotProductMatchesReference)
{
    Rng rng(2);
    std::vector<std::int32_t> a(64), b(64);
    std::int64_t expect = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<std::int32_t>(rng.below(255)) - 127;
        b[i] = static_cast<std::int32_t>(rng.below(255)) - 127;
        expect += static_cast<std::int64_t>(a[i]) * b[i];
    }
    EXPECT_EQ(PeArray::dotProduct(a, 8, b, 8), expect);
}

TEST(PeArray, DequantizeAppliesBothScales)
{
    EXPECT_FLOAT_EQ(PeArray::dequantize(1000, 0.5, 0.25), 125.0f);
}

TEST(PeArray, MmCyclesInt8FullTile)
{
    CambriconQConfig cfg; // 64x64 4-bit
    PeArray pe(cfg);
    // One full 64x64 tile at INT8: m=1, passes=4 -> 4 cycles + fill.
    EXPECT_EQ(pe.mmCycles(1, 64, 64, 8, 8), 4u + kPeFill);
}

TEST(PeArray, MmCyclesScalesWithM)
{
    CambriconQConfig cfg;
    PeArray pe(cfg);
    const Tick t1 = pe.mmCycles(100, 64, 64, 8, 8);
    const Tick t2 = pe.mmCycles(200, 64, 64, 8, 8);
    EXPECT_EQ(t2 - kPeFill, 2 * (t1 - kPeFill));
}

TEST(PeArray, Int4IsFourTimesFasterThanInt8)
{
    CambriconQConfig cfg;
    PeArray pe(cfg);
    const Tick t8 = pe.mmCycles(512, 512, 512, 8, 8) - kPeFill;
    const Tick t4 = pe.mmCycles(512, 512, 512, 4, 4) - kPeFill;
    EXPECT_EQ(t8, 4 * t4);
}

TEST(PeArray, PeakMacsPerCycle)
{
    CambriconQConfig cfg;
    // 64*64/4 = 1024 INT8 MACs/cycle -> ~2 Tops @ 1 GHz.
    EXPECT_DOUBLE_EQ(cfg.peakMacsPerCycleInt8(), 1024.0);
}

TEST(PeArray, UtilizationHighForLargeSquare)
{
    CambriconQConfig cfg;
    PeArray pe(cfg);
    EXPECT_GT(pe.utilization(4096, 512, 512, 8, 8), 0.9);
}

TEST(PeArray, SystolicSlowerDueFillDrain)
{
    CambriconQConfig tree;
    CambriconQConfig sys = tree;
    sys.systolicDataflow = true;
    sys.peRows = 32;
    sys.peCols = 32;
    sys.peBits = 8;
    PeArray a(tree), b(sys);
    // Same INT8 peak (1024 macs/cycle vs 1024); systolic pays the
    // fill/drain per tile, so small-m GEMMs are slower there.
    EXPECT_GT(b.mmCycles(8, 512, 512, 8, 8),
              a.mmCycles(8, 512, 512, 8, 8));
}

TEST(PeArray, MeshSplitsWork)
{
    CambriconQConfig cfg = CambriconQConfig::throughputV(); // 8x8 mesh
    PeArray pe(cfg);
    CambriconQConfig base;
    PeArray single(base);
    const Tick t_mesh = pe.mmCycles(4096, 4096, 512, 8, 8);
    const Tick t_one = single.mmCycles(4096, 4096, 512, 8, 8);
    EXPECT_LT(64 * t_mesh, 2 * t_one); // ~64x faster, allow slack
}

// ---------------------------------------------------------------- SQU

TEST(Squ, OneWayKeepsUpWithDram)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    // Statistic rate 32 B/cycle > DRAM's ~17 B/cycle, so one-way
    // streaming cannot be the bottleneck.
    EXPECT_GE(squ.bytesPerCycle(1), dram::kPeakBytesPerTick);
}

TEST(Squ, FourWayHalvesThroughput)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    EXPECT_DOUBLE_EQ(squ.bytesPerCycle(4),
                     cfg.squQuantBytesPerCycle / 4.0);
}

TEST(Squ, StreamLatencyMonotonicInBytes)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    EXPECT_LT(squ.streamCycles(4096, 1), squ.streamCycles(65536, 1));
}

TEST(Squ, StreamLatencyMonotonicInWays)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    EXPECT_LE(squ.streamCycles(65536, 1), squ.streamCycles(65536, 4));
}

TEST(Squ, ZeroBytesZeroCycles)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    EXPECT_EQ(squ.streamCycles(0, 1), 0u);
}

// ---------------------------------------------------------------- QBC

TEST(Qbc, WholeLineWriteKeepsTag)
{
    Qbc qbc(1024, 32);
    quant::IntFormat fmt{8, 0.5};
    std::vector<std::int16_t> levels(32, 3);
    qbc.writeLine(0, levels, fmt);
    EXPECT_EQ(qbc.readLine(0).tag, fmt);
    EXPECT_DOUBLE_EQ(qbc.readValue(0, 5), 1.5);
    EXPECT_EQ(qbc.requantCount(), 0u);
}

TEST(Qbc, SameTagWordWriteNoRequant)
{
    Qbc qbc(1024, 32);
    quant::IntFormat fmt{8, 0.5};
    qbc.writeLine(0, std::vector<std::int16_t>(32, 4), fmt);
    qbc.writeWord(0, 3, 10, fmt);
    EXPECT_EQ(qbc.requantCount(), 0u);
    EXPECT_DOUBLE_EQ(qbc.readValue(0, 3), 5.0);
}

TEST(Qbc, MixedTagWriteTriggersRequantToMaxTag)
{
    Qbc qbc(1024, 32);
    quant::IntFormat fine{8, 0.25};
    quant::IntFormat wide{8, 1.0};
    qbc.writeLine(0, std::vector<std::int16_t>(32, 8), fine); // 2.0 each
    // Incoming word quantized with the wide scale.
    qbc.writeWord(0, 0, 50, wide); // value 50.0
    EXPECT_EQ(qbc.requantCount(), 1u);
    // The whole line now shares the wide (max) tag.
    EXPECT_EQ(qbc.readLine(0).tag.scale, 1.0);
    // Resident values were requantized and preserved.
    EXPECT_DOUBLE_EQ(qbc.readValue(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(qbc.readValue(0, 0), 50.0);
}

TEST(Qbc, RequantPreservesValuesWithinNewResolution)
{
    Qbc qbc(1024, 32);
    quant::IntFormat fine{8, 0.01};
    quant::IntFormat wide{8, 0.04};
    std::vector<std::int16_t> levels(32);
    for (int i = 0; i < 32; ++i)
        levels[i] = static_cast<std::int16_t>(i * 4 - 64);
    qbc.writeLine(0, levels, fine);
    qbc.writeWord(0, 31, 100, wide);
    // Every resident value must be within half a wide LSB.
    for (int i = 0; i < 31; ++i) {
        const double orig = (i * 4 - 64) * 0.01;
        EXPECT_NEAR(qbc.readValue(0, i), orig, 0.02 + 1e-9);
    }
}

TEST(Qbc, CapacitySetsLineCount)
{
    Qbc qbc(256 * 1024, 32);
    EXPECT_EQ(qbc.numLines(), 8192u);
}

// ---------------------------------------------------------------- NDP

TEST(NdpEngine, MatchesSoftwareOptimizerSgd)
{
    nn::OptimizerConfig cfg;
    cfg.kind = nn::OptimizerKind::SGD;
    cfg.lr = 0.1;
    NdpEngine ndp;
    ndp.configure(nn::NdpoConstants::fromConfig(cfg));

    std::vector<float> w{1.0f, -2.0f}, m(2, 0.0f), v(2, 0.0f);
    ndp.weightGradientStore(w, m, v, {0.5f, -0.5f});
    EXPECT_FLOAT_EQ(w[0], 1.0f - 0.1f * 0.5f);
    EXPECT_FLOAT_EQ(w[1], -2.0f + 0.1f * 0.5f);
}

TEST(NdpEngine, MatchesSoftwareOptimizerAllKinds)
{
    Rng rng(77);
    for (auto kind :
         {nn::OptimizerKind::SGD, nn::OptimizerKind::AdaGrad,
          nn::OptimizerKind::RMSProp, nn::OptimizerKind::Adam}) {
        nn::OptimizerConfig ocfg;
        ocfg.kind = kind;
        ocfg.lr = 0.01;

        // Software reference path.
        nn::Param p("w", {64});
        p.value.fillGaussian(rng, 0.0f, 1.0f);
        std::vector<float> w(p.value.vec());
        std::vector<float> m(64, 0.0f), v(64, 0.0f);

        nn::Optimizer opt(ocfg);
        opt.attach({&p});

        NdpEngine ndp;
        for (int step = 1; step <= 5; ++step) {
            Rng grad_rng(100 + step);
            for (std::size_t i = 0; i < 64; ++i)
                p.grad[i] =
                    static_cast<float>(grad_rng.gaussian(0.0, 0.1));
            opt.step();
            // The NDP engine is reconfigured per step (exact Adam
            // bias correction arrives via CROSET).
            ndp.configure(nn::NdpoConstants::forStep(
                ocfg, static_cast<std::size_t>(step)));
            std::vector<float> g(p.grad.vec());
            ndp.weightGradientStore(w, m, v, g);
        }
        for (std::size_t i = 0; i < 64; ++i) {
            EXPECT_FLOAT_EQ(w[i], p.value[i])
                << "kind=" << nn::optimizerKindName(kind) << " i=" << i;
        }
    }
}

TEST(NdpEngine, CountsElements)
{
    NdpEngine ndp;
    ndp.configure(nn::NdpoConstants::fromConfig({}));
    std::vector<float> w(10, 0.0f), m(10, 0.0f), v(10, 0.0f),
        g(10, 1.0f);
    ndp.weightGradientStore(w, m, v, g);
    ndp.weightGradientStore(w, m, v, g);
    EXPECT_EQ(ndp.elementsProcessed(), 20u);
}

// ---------------------------------------------------------------- ISA

TEST(Isa, OpcodeNamesUnique)
{
    EXPECT_STREQ(opcodeName(Opcode::WGSTORE), "WGSTORE");
    EXPECT_STREQ(opcodeName(Opcode::QMOVE), "QMOVE");
    EXPECT_STREQ(opcodeName(Opcode::CROSET), "CROSET");
}

TEST(Isa, InstrToStringMentionsFields)
{
    Instr ins;
    ins.op = Opcode::MM;
    ins.phase = Phase::WG;
    ins.m = 3;
    ins.n = 5;
    ins.k = 7;
    const std::string s = ins.toString();
    EXPECT_NE(s.find("MM"), std::string::npos);
    EXPECT_NE(s.find("WG"), std::string::npos);
    EXPECT_NE(s.find("m=3"), std::string::npos);
    // The tag text lives in the program's table, not the instruction.
    EXPECT_EQ(s.find(';'), std::string::npos);
    EXPECT_NE(ins.toString("fc1").find(" ; fc1"), std::string::npos);
}

TEST(Isa, ProgramInternsEachTagOnce)
{
    Program prog;
    EXPECT_EQ(prog.numTags(), 1u); // id 0: the empty tag
    const std::uint32_t b = prog.internTag("conv1.B");
    const std::uint32_t a = prog.internTag("conv1.A");
    EXPECT_EQ(prog.internTag("conv1.B"), b);
    EXPECT_EQ(prog.internTag("conv1.A"), a);
    EXPECT_EQ(prog.internTag(""), 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(prog.numTags(), 3u);

    Instr ins;
    ins.tagId = a;
    prog.append(ins);
    ins.tagId = b;
    prog.append(ins, {0});
    prog.append(Instr{}, {0, 1});
    EXPECT_EQ(prog.tag(0), "conv1.A");
    EXPECT_EQ(prog.tag(1), "conv1.B");
    EXPECT_EQ(prog.tag(2), "");
    EXPECT_TRUE(prog.deps(0).empty());
    ASSERT_EQ(prog.deps(2).size(), 2u);
    EXPECT_EQ(prog.deps(2)[0], 0u);
    EXPECT_EQ(prog.deps(2)[1], 1u);
}

// Program::append validates each instruction as it is added: every
// dependence strictly earlier, the tag id in the table.
TEST(Isa, ValidateRejectsForwardDeps)
{
    Program prog;
    prog.append(Instr{});
    EXPECT_DEATH(prog.append(Instr{}, {1}),
                 "instr 1 depends on 1 \\(not strictly earlier\\)");
    EXPECT_DEATH(prog.append(Instr{}, {0, 2}),
                 "instr 1 depends on 2 \\(not strictly earlier\\)");
}

TEST(Isa, ValidateAcceptsBackwardDeps)
{
    Program prog;
    EXPECT_EQ(prog.append(Instr{}), 0u);
    EXPECT_EQ(prog.append(Instr{}), 1u);
    EXPECT_EQ(prog.append(Instr{}, {0, 1}), 2u);
    ASSERT_EQ(prog.size(), 3u);
    EXPECT_EQ(prog.deps(2).size(), 2u);
}

TEST(Isa, ValidateRejectsTagIdOutsideTable)
{
    Program prog;
    Instr ins;
    ins.tagId = prog.internTag("fc1");
    EXPECT_EQ(prog.append(ins), 0u);
    ins.tagId = static_cast<std::uint32_t>(prog.numTags());
    EXPECT_DEATH(prog.append(ins),
                 "instr 1 has tag id 2 outside the table of 2");
}

// ---------------------------------------------------------------- Executor

Instr
load(Addr addr, Bytes bytes)
{
    Instr i;
    i.op = Opcode::VLOAD;
    i.addr = addr;
    i.bytes = bytes;
    i.buf = BufId::NBin;
    return i;
}

/** A program of @p instrs in order, none depending on another. */
Program
independent(std::initializer_list<Instr> instrs)
{
    Program prog;
    for (const Instr &ins : instrs)
        prog.append(ins);
    return prog;
}

TEST(Accelerator, EmptyProgramZeroTime)
{
    Accelerator acc(CambriconQConfig::edge());
    const PerfReport r = acc.run({});
    EXPECT_EQ(r.totalTicks, 0u);
}

TEST(Accelerator, SingleLoadTakesBandwidthTime)
{
    Accelerator acc(CambriconQConfig::edge());
    const Program prog = independent({load(0, 1 << 20)});
    const PerfReport r = acc.run(prog);
    // 1 MiB at 17.06 GB/s is ~61 us; allow generous bounds.
    EXPECT_GT(r.totalTicks, 55000u);
    EXPECT_LT(r.totalTicks, 80000u);
}

TEST(Accelerator, DependentComputeSerializes)
{
    Accelerator acc(CambriconQConfig::edge());
    Program prog;
    prog.append(load(0, 4096));
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 64;
    mm.n = 64;
    mm.k = 64;
    prog.append(mm, {0});
    const PerfReport r = acc.run(prog);
    // The MM can only start after the load.
    PeArray pe(acc.config());
    EXPECT_GE(r.totalTicks, pe.mmCycles(64, 64, 64, 8, 8));
}

TEST(Accelerator, IndependentUnitsOverlap)
{
    Accelerator acc(CambriconQConfig::edge());
    // A load and an equally-long second load on the same unit
    // serialize; a compute overlaps with a load.
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 4096;
    mm.n = 64;
    mm.k = 64;

    const Program serial =
        independent({load(0, 1 << 20), load(1 << 20, 1 << 20)});
    const Program overlap = independent({load(0, 1 << 20), mm});

    const Tick t_serial = Accelerator(acc.config()).run(serial).totalTicks;
    const Tick t_overlap =
        Accelerator(acc.config()).run(overlap).totalTicks;
    EXPECT_LT(t_overlap, t_serial);
}

TEST(Accelerator, WgstoreUsesNdpUnit)
{
    Accelerator acc(CambriconQConfig::edge());
    Instr wgs;
    wgs.op = Opcode::WGSTORE;
    wgs.elems = 100000;
    wgs.bytes = 400000;
    const Program prog = independent({wgs});
    const PerfReport r = acc.run(prog);
    EXPECT_GT(r.unitBusy[static_cast<std::size_t>(Unit::Ndp)], 0.0);
    EXPECT_EQ(r.activity.get("ndpo.elements"), 100000.0);
}

TEST(Accelerator, PhaseAttributionRecorded)
{
    Accelerator acc(CambriconQConfig::edge());
    Instr l = load(0, 65536);
    l.phase = Phase::NG;
    const Program prog = independent({l});
    const PerfReport r = acc.run(prog);
    EXPECT_GT(r.phaseBusy[static_cast<std::size_t>(Phase::NG)], 0.0);
    EXPECT_EQ(r.phaseBusy[static_cast<std::size_t>(Phase::FW)], 0.0);
}

TEST(Accelerator, EnergyBreakdownPopulated)
{
    Accelerator acc(CambriconQConfig::edge());
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 512;
    mm.n = 512;
    mm.k = 512;
    const Program prog = independent({load(0, 1 << 18), mm});
    const PerfReport r = acc.run(prog);
    EXPECT_GT(r.energy.accPj, 0.0);
    EXPECT_GT(r.energy.ddrDynamicPj, 0.0);
    EXPECT_GT(r.energy.ddrStandbyPj, 0.0);
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 128;
    mm.n = 128;
    mm.k = 128;
    Program prog;
    prog.append(load(0, 1 << 16));
    prog.append(mm, {0});
    const Tick t1 =
        Accelerator(CambriconQConfig::edge()).run(prog).totalTicks;
    const Tick t2 =
        Accelerator(CambriconQConfig::edge()).run(prog).totalTicks;
    EXPECT_EQ(t1, t2);
}


TEST(Accelerator, StridedLoadSlowerThanContiguous)
{
    // Same bytes, but stripes jump across DRAM rows: the command-level
    // model must charge the row misses.
    Instr contiguous = load(0, 256 * 1024);

    Instr strided;
    strided.op = Opcode::SLOAD;
    strided.bytes = 256 * 1024;
    strided.elems = 128;              // stripes
    strided.bytes2 = 8 * 2048;        // one stride = a full bank row set
    strided.buf = BufId::SB;

    const Tick t_c = Accelerator(CambriconQConfig::edge())
                         .run(independent({contiguous}))
                         .totalTicks;
    const Tick t_s = Accelerator(CambriconQConfig::edge())
                         .run(independent({strided}))
                         .totalTicks;
    EXPECT_GT(t_s, t_c);
}

TEST(Accelerator, TraceCoversEveryInstruction)
{
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 128;
    mm.n = 128;
    mm.k = 128;
    Program prog;
    prog.append(load(0, 1 << 16));
    prog.append(mm, {0});
    const PerfReport r =
        Accelerator(CambriconQConfig::edge()).run(prog, true);
    ASSERT_EQ(r.trace.size(), prog.size());
    for (const auto &e : r.trace) {
        EXPECT_LE(e.start, e.end);
        EXPECT_LE(e.end, r.totalTicks);
    }
}

TEST(Accelerator, TraceUnitsNeverOverlap)
{
    // Property: on any single unit, busy intervals are disjoint --
    // the executor must serialize each unit's instructions.
    const auto ir = [] {
        // Use a real compiled program for coverage.
        return CambriconQConfig::edge();
    }();
    (void)ir;
    Program prog;
    // Alternate loads/stores/computes with dependencies.
    for (int i = 0; i < 20; ++i) {
        Instr l = load(static_cast<Addr>(i) * 4096, 4096);
        const std::uint32_t l_idx = prog.append(l);
        Instr mm;
        mm.op = Opcode::MM;
        mm.m = 64;
        mm.n = 64;
        mm.k = 64;
        const std::uint32_t mm_idx = prog.append(mm, {l_idx});
        Instr st;
        st.op = Opcode::QSTORE;
        st.addr = 0x100000 + static_cast<Addr>(i) * 4096;
        st.bytes = 4096;
        st.elems = 4096;
        prog.append(st, {mm_idx});
    }
    const PerfReport r =
        Accelerator(CambriconQConfig::edge()).run(prog, true);
    ASSERT_EQ(r.trace.size(), prog.size());

    std::array<std::vector<std::pair<Tick, Tick>>, kNumUnits> spans;
    for (const auto &e : r.trace)
        spans[static_cast<std::size_t>(e.unit)].push_back(
            {e.start, e.end});
    for (auto &v : spans) {
        std::sort(v.begin(), v.end());
        for (std::size_t i = 1; i < v.size(); ++i)
            EXPECT_LE(v[i - 1].second, v[i].first);
    }
}

TEST(Accelerator, TraceDependenciesRespected)
{
    Instr l = load(0, 1 << 16);
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 32;
    mm.n = 32;
    mm.k = 32;
    Program prog;
    prog.append(l);
    prog.append(mm, {0});
    const PerfReport r =
        Accelerator(CambriconQConfig::edge()).run(prog, true);
    Tick load_end = 0, mm_start = 0;
    for (const auto &e : r.trace) {
        if (e.instr == 0)
            load_end = e.end;
        if (e.instr == 1)
            mm_start = e.start;
    }
    EXPECT_GE(mm_start, load_end);
}

TEST(Accelerator, SameTickCompletionsRunInStartOrder)
{
    // The SFU op starts at tick 0; the vector op waits for a 4-cycle
    // CROSET and starts later, on a lower-numbered unit. Both finish
    // on tick T. The one that started first (the SFU op) must
    // complete first, so its dependent load starts, and is traced,
    // before the vector op's dependent store, although both start
    // at T.
    const CambriconQConfig cfg = CambriconQConfig::edge();
    const std::uint64_t vecElems = 1000;
    const Tick t = 4 + PeArray(cfg).vectorCycles(vecElems);

    Instr croset; // 0: Ndp, ticks 0..4
    Instr sfu;    // 1: Sfu, ticks 0..T
    sfu.op = Opcode::SFU;
    sfu.elems = t * cfg.sfuElemsPerCycle;
    Instr vadd;   // 2: Pe, ticks 4..T, after the CROSET
    vadd.op = Opcode::VADD;
    vadd.elems = vecElems;
    Instr ld = load(0, 4096); // 3: DmaLoad, after the SFU op
    Instr st;                 // 4: DmaStore, after the vector op
    st.op = Opcode::VSTORE;
    st.addr = 1 << 20;
    st.bytes = 4096;
    Program prog;
    prog.append(croset);
    prog.append(sfu);
    prog.append(vadd, {0});
    prog.append(ld, {1});
    prog.append(st, {2});
    const PerfReport r = Accelerator(cfg).run(prog, true);

    ASSERT_EQ(r.trace.size(), 5u);
    std::size_t at[5] = {};
    for (std::size_t i = 0; i < r.trace.size(); ++i)
        at[r.trace[i].instr] = i;
    EXPECT_EQ(r.trace[at[1]].end, t);
    EXPECT_EQ(r.trace[at[2]].end, t);
    EXPECT_LT(at[1], at[2]); // the SFU op started first
    EXPECT_EQ(r.trace[at[3]].start, t);
    EXPECT_EQ(r.trace[at[4]].start, t);
    EXPECT_LT(at[3], at[4]); // ...so it completed first
}

TEST(Accelerator, QbcRequantsCountedOnWgGemms)
{
    Instr mm;
    mm.op = Opcode::MM;
    mm.phase = Phase::WG;
    mm.m = 64;
    mm.n = 64;
    mm.k = 64;
    const PerfReport r =
        Accelerator(CambriconQConfig::edge()).run(independent({mm}));
    EXPECT_GT(r.activity.get("qbc.requants"), 0.0);

    Instr fw = mm;
    fw.phase = Phase::FW;
    const PerfReport r2 =
        Accelerator(CambriconQConfig::edge()).run(independent({fw}));
    EXPECT_EQ(r2.activity.get("qbc.requants"), 0.0);
}

} // namespace
} // namespace cq::arch
