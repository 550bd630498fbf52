/**
 * @file
 * Implementation of the code generator.
 *
 * generateProgram runs two passes. The plan pass picks every GEMM's
 * tiling and counts every task's instructions in closed form; the
 * emit pass then writes the program into arrays sized once from that
 * count and allocates nothing per instruction. generateProgram checks
 * that the two passes agree.
 */

#include "compiler/codegen.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"

namespace cq::compiler {

using arch::BufId;
using arch::Instr;
using arch::Opcode;
using arch::Phase;
using arch::Program;

namespace {

/** Address-space regions (top nibble selects the region). */
enum class Region : Addr
{
    Weights = 0x0,
    StateM = 0x1,
    StateV = 0x2,
    QuantWeights = 0x3,
    Activations = 0x4,
    Gradients = 0x8,
    WeightGrads = 0xC,
};

/** Elements per chunk of a stream task's load -> SFU -> store pipeline. */
constexpr std::uint64_t kStreamChunk = 128 * 1024;
/** Weights per chunk of a non-NDP update. */
constexpr std::uint64_t kUpdateChunk = 256 * 1024;

/**
 * Most dependences of any instruction: an update's VMUL waits for its
 * dW, w, m and v loads. Every other instruction has at most two.
 */
constexpr std::size_t kMaxDeps = 4;

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

Bytes
toBytes(std::uint64_t elems, int width)
{
    return static_cast<Bytes>((elems * width + 7) / 8);
}

std::uint64_t
streamChunks(const StreamTask &task)
{
    return std::max<std::uint64_t>(1, ceilDiv(task.inElems, kStreamChunk));
}

std::uint64_t
updateChunks(const UpdateTask &task)
{
    return std::max<std::uint64_t>(1,
                                   ceilDiv(task.numWeights, kUpdateChunk));
}

/** A dependence list held in place, so emitting allocates nothing. */
class DepList
{
  public:
    DepList() = default;
    DepList(std::initializer_list<std::uint32_t> deps)
    {
        for (std::uint32_t d : deps)
            push(d);
    }

    void
    push(std::uint32_t d)
    {
        CQ_ASSERT(size_ < kMaxDeps);
        idx_[size_++] = d;
    }

    /** Sort the list and drop repeats; returns what is left. */
    std::span<const std::uint32_t>
    sorted()
    {
        const auto first = idx_.begin();
        std::sort(first, first + size_);
        return {first, std::unique(first, first + size_)};
    }

  private:
    std::array<std::uint32_t, kMaxDeps> idx_{};
    std::size_t size_ = 0;
};

/**
 * GEMM loop orders; they differ in which operand is re-streamed:
 *  NMK: C tile per (m,n); A re-read per n-tile, B per m-tile.
 *  NKM: C resident for all m rows of one n-tile; B read once.
 *  MKN: C resident for all n cols of one m-tile; A read once.
 */
enum class Order { NMK, NKM, MKN };

/** What the plan pass decided for one GEMM task. */
struct GemmPlan
{
    /** Operand stream sizes in bytes. */
    Bytes aBytes = 0, bBytes = 0, cBytes = 0;
    Order order = Order::NMK;
    /** Tile sizes and tile counts. */
    std::uint64_t mT = 1, nT = 1, kT = 1;
    std::uint64_t mTiles = 1, nTiles = 1, kTiles = 1;
    /** First use of the layer's weights: quantize them first. */
    bool quantizeWeights = false;
};

/** What the plan pass decided for a whole program. */
struct ProgramPlan
{
    /** One per GEMM task, in task order. */
    std::vector<GemmPlan> gemms;
    /** The program's exact instruction count. */
    std::size_t instrs = 0;
    /** An upper bound on its dependences. */
    std::size_t deps = 0;
};

class Codegen
{
  public:
    Codegen(const WorkloadIR &ir, const arch::CambriconQConfig &config,
            const CodegenOptions &options)
        : ir_(ir), cfg_(config), opt_(options)
    {
        for (int r = 0; r < 16; ++r)
            regionNext_[r] = static_cast<Addr>(r) << 32;
    }

    ProgramPlan plan() const;
    Program emitProgram(const ProgramPlan &plan);

  private:
    bool
    useNdp() const
    {
        return opt_.target == CodegenOptions::Target::CambriconQ &&
               cfg_.ndpEnabled;
    }

    bool
    isTpu() const
    {
        return opt_.target == CodegenOptions::Target::Tpu;
    }

    /** Number of optimizer state tensors moved by a non-NDP update. */
    unsigned
    stateTensors() const
    {
        switch (opt_.optimizer) {
          case nn::OptimizerKind::SGD:     return 0;
          case nn::OptimizerKind::AdaGrad:
          case nn::OptimizerKind::RMSProp: return 1;
          case nn::OptimizerKind::Adam:    return 2;
        }
        return 1;
    }

    /**
     * Instructions storeOutput() emits per output tile: 3 for a
     * quantized store on the TPU (its S and Q passes plus the store),
     * 1 otherwise.
     */
    std::uint64_t
    storesPerTile(bool weightGradient) const
    {
        return !weightGradient && isTpu() ? 3 : 1;
    }

    GemmPlan planGemm(const GemmTask &task) const;

    std::uint32_t
    emit(const Instr &ins, DepList deps)
    {
        return prog_.append(ins, deps.sorted());
    }

    /** Allocate (or look up) the base address of a tensor. */
    Addr
    tensorAddr(const std::string &name, Bytes bytes, Region region)
    {
        auto it = addrs_.find(name);
        if (it != addrs_.end())
            return it->second;
        const auto r = static_cast<std::size_t>(region);
        Addr base = regionNext_[r];
        // Align to DRAM bursts.
        regionNext_[r] = base + ((bytes + 63) / 64) * 64;
        addrs_.emplace(name, base);
        return base;
    }

    /**
     * Writers a reader of @p tensor must wait for. Stores to one
     * tensor are all issued on the same unit (DMA-store or NDP) and
     * complete in issue order, so waiting for the *latest* writer is
     * timing-equivalent to waiting for all of them -- this keeps the
     * dependence graph linear in the instruction count.
     */
    DepList
    readersDeps(const std::string &tensor) const
    {
        auto it = lastWriter_.find(tensor);
        if (it == lastWriter_.end())
            return {};
        return {it->second};
    }

    /**
     * Note @p idx as a writer of @p tensor; returns the tensor's
     * lastWriter_ slot, which stays put (map nodes do not move).
     */
    std::uint32_t *
    noteWrite(const std::string &tensor, std::uint32_t idx)
    {
        auto [it, inserted] = lastWriter_.try_emplace(tensor, idx);
        if (!inserted)
            it->second = std::max(it->second, idx);
        return &it->second;
    }

    void
    aliasTensor(const AliasTask &task)
    {
        std::uint32_t latest = 0;
        bool any = false;
        for (const auto &in : task.inTensors) {
            auto it = lastWriter_.find(in);
            if (it != lastWriter_.end()) {
                latest = std::max(latest, it->second);
                any = true;
            }
        }
        if (any)
            noteWrite(task.outTensor, latest);
    }

    /**
     * Quantize the FP32 master weights of @p layer into "wq:<layer>"
     * (plain DQ); the plan calls for it once per layer and minibatch.
     * Readers wait on its last writer.
     */
    void
    quantizeWeights(const std::string &layer, std::uint64_t elems)
    {
        const std::string wq = "wq:" + layer;
        const Bytes fp32_bytes = elems * 4;
        const Bytes q_bytes = elems * opt_.bits / 8;
        const Addr src =
            tensorAddr("w:" + layer, fp32_bytes, Region::Weights);
        const Addr dst =
            tensorAddr(wq, q_bytes, Region::QuantWeights);

        if (!isTpu()) {
            // Fused one-pass statistic + quantization through the SQU.
            Instr mv;
            mv.op = Opcode::QMOVE;
            mv.phase = Phase::Quant;
            mv.addr = src;
            mv.bytes = fp32_bytes;
            mv.addr2 = dst;
            mv.bytes2 = q_bytes;
            mv.elems = elems;
            mv.tagId = prog_.internTag(wq);
            noteWrite(wq, emit(mv, {}));
            return;
        }

        // TPU (Fig. 4(c)): a statistic pass over the data, then a
        // separate quantization pass (read again, write quantized) --
        // the "two-pass data access" of Sec. II-B.
        Instr st;
        st.op = Opcode::VLOAD;
        st.phase = Phase::Stat;
        st.addr = src;
        st.bytes = fp32_bytes;
        st.tagId = prog_.internTag(wq + ".stat");
        const auto stat_idx = emit(st, {});

        Instr ql;
        ql.op = Opcode::VLOAD;
        ql.phase = Phase::Quant;
        ql.addr = src;
        ql.bytes = fp32_bytes;
        ql.tagId = prog_.internTag(wq + ".qread");
        const auto qread_idx = emit(ql, {stat_idx});

        Instr qs;
        qs.op = Opcode::VSTORE;
        qs.phase = Phase::Quant;
        qs.addr = dst;
        qs.bytes = q_bytes;
        qs.tagId = prog_.internTag(wq + ".qwrite");
        noteWrite(wq, emit(qs, {qread_idx}));
    }

    /** The output stream of one GEMM or stream task. */
    struct Output
    {
        const std::string &layer;
        const std::string &tensor;
        Phase phase;
        unsigned ways;
        /** FP32 weight gradient feeding the update of `layer`. */
        bool weightGradient;
        /** Elements of the whole output (sizes the NDP weight rows). */
        std::uint64_t elems;
        Addr base;
        /** Tag of the VSTORE or QSTORE; the TPU's S, Q and store
         *  passes append ".stat", ".quant" and ".qwrite", and the
         *  WGSTORE is tagged "<layer>.wgstore" instead. */
        std::string tag;
        /** Ids of the store tags, interned by the first storeOutput()
         *  (0 until then); on the TPU's quantized store also those of
         *  its S and Q passes. */
        std::uint32_t tagId = 0, statTagId = 0, quantTagId = 0;
        /** Base address of "w:<layer>", looked up by the first
         *  WGSTORE. */
        Addr weightBase = 0;
        /** `tensor`'s lastWriter_ slot, from the first store on. */
        std::uint32_t *lastWriter = nullptr;
    };

    /** Note @p idx as the latest writer of @p out's tensor. */
    void
    noteWrite(Output &out, std::uint32_t idx)
    {
        if (out.lastWriter)
            *out.lastWriter = std::max(*out.lastWriter, idx);
        else
            out.lastWriter = noteWrite(out.tensor, idx);
    }

    /**
     * Emit the store of @p elems output elements at byte @p offset of
     * @p out, after instruction @p dep. A weight gradient stays FP32:
     * a WGSTORE to the NDP engine, which updates w/m/v in place, or a
     * VSTORE for the on-core update. Anything else is quantized: one
     * QSTORE through the SQU on Cambricon-Q; on the TPU an FP32 tile
     * plus the statistic and quantization passes. storesPerTile()
     * counts what this emits.
     */
    void
    storeOutput(Output &out, Bytes offset, std::uint64_t elems,
                std::uint32_t dep)
    {
        if (out.weightGradient && useNdp()) {
            if (!out.tagId) {
                out.tagId = prog_.internTag(out.layer + ".wgstore");
                out.weightBase = tensorAddr(
                    "w:" + out.layer, out.elems * 4, Region::Weights);
            }
            Instr wgs;
            wgs.op = Opcode::WGSTORE;
            wgs.phase = Phase::WU;
            wgs.addr = out.weightBase + offset;
            wgs.bytes = elems * 4;
            wgs.elems = elems;
            wgs.tagId = out.tagId;
            noteWrite(out, emit(wgs, {dep, crosetIdx_}));
            return;
        }
        if (out.weightGradient) {
            if (!out.tagId)
                out.tagId = prog_.internTag(out.tag);
            Instr vs;
            vs.op = Opcode::VSTORE;
            vs.phase = out.phase;
            vs.addr = out.base + offset;
            vs.bytes = elems * 4;
            vs.buf = BufId::NBout;
            vs.tagId = out.tagId;
            noteWrite(out, emit(vs, {dep}));
            return;
        }
        const Bytes q_bytes =
            std::max<Bytes>(1, elems * opt_.bits / 8);
        if (!isTpu()) {
            if (!out.tagId)
                out.tagId = prog_.internTag(out.tag);
            Instr qs;
            qs.op = Opcode::QSTORE;
            qs.phase = out.phase;
            qs.addr = out.base + offset;
            qs.bytes = q_bytes;
            qs.elems = elems;
            qs.ways = static_cast<std::uint8_t>(out.ways);
            qs.buf = BufId::NBout;
            qs.tagId = out.tagId;
            noteWrite(out, emit(qs, {dep}));
            return;
        }

        // TPU running HQT (the paper's fair-comparison setup): the
        // tile is still in NBout, so the statistic and quantization
        // passes run as *compute* kernels on the vector units -- one
        // pass over the tile for the statistic, `ways` passes for the
        // E2BQM candidates -- serializing with the array's GEMMs
        // (this is the S/Q time visible in the paper's Fig. 12(b)),
        // before the quantized result is finally stored.
        if (!out.tagId) {
            out.statTagId = prog_.internTag(out.tag + ".stat");
            out.quantTagId = prog_.internTag(out.tag + ".quant");
            out.tagId = prog_.internTag(out.tag + ".qwrite");
        }
        Instr st;
        st.op = Opcode::HMUL; // max-reduction pass
        st.phase = Phase::Stat;
        st.elems = elems;
        st.tagId = out.statTagId;
        const auto stat_idx = emit(st, {dep});

        Instr qk;
        qk.op = Opcode::VMUL; // candidate quantization passes
        qk.phase = Phase::Quant;
        qk.elems = elems * out.ways;
        qk.tagId = out.quantTagId;
        const auto quant_idx = emit(qk, {stat_idx});

        Instr qw;
        qw.op = Opcode::VSTORE;
        qw.phase = out.phase;
        qw.addr = out.base + offset;
        qw.bytes = q_bytes;
        qw.buf = BufId::NBout;
        qw.tagId = out.tagId;
        noteWrite(out, emit(qw, {quant_idx}));
    }

    void gemm(const GemmTask &task, const GemmPlan &plan);
    void stream(const StreamTask &task);
    void update(const UpdateTask &task);

    const WorkloadIR &ir_;
    const arch::CambriconQConfig &cfg_;
    const CodegenOptions &opt_;
    Program prog_;
    std::map<std::string, Addr> addrs_;
    std::array<Addr, 16> regionNext_{};
    std::map<std::string, std::uint32_t> lastWriter_;
    std::uint32_t crosetIdx_ = 0;
};

/**
 * The plan pass: every GEMM's tiling, and the program's instruction
 * count in closed form. With S the stores per output tile
 * (storesPerTile(), plus 1 for a fused activation) and n, m and k
 * tiles, a GEMM emits n·m·(3k + S) in NMK order, n·(k·(1 + 2m) + m·S)
 * in NKM and m·(k·(1 + 2n) + n·S) in MKN, plus 1 QMOVE (3 passes on
 * the TPU) the first time a layer's weights are used. A stream task
 * emits 2 per chunk (load, SFU), 1 more with a second input, plus S.
 * A non-NDP update emits 2·(2 + state tensors) per chunk: the loads,
 * the VMUL and the stores of all but dW. The NDP engine adds one
 * CROSET.
 */
ProgramPlan
Codegen::plan() const
{
    ProgramPlan plan;
    const bool ndp = useNdp();
    std::uint64_t instrs = ndp ? 1 : 0;
    std::uint64_t update_vmuls = 0;
    std::set<std::string_view> quantized;
    for (const auto &task : ir_.tasks) {
        switch (task.kind) {
          case Task::Kind::Gemm: {
            const GemmTask &t = task.gemm;
            GemmPlan g = planGemm(t);
            g.quantizeWeights = t.freshWeightElems > 0 &&
                                quantized.insert(t.layer).second;
            const std::uint64_t s = storesPerTile(t.isWeightGradient) +
                                    (t.fusedActivation ? 1 : 0);
            const std::uint64_t m = g.mTiles, n = g.nTiles, k = g.kTiles;
            switch (g.order) {
              case Order::NMK:
                instrs += n * m * (3 * k + s);
                break;
              case Order::NKM:
                instrs += n * (k * (1 + 2 * m) + m * s);
                break;
              case Order::MKN:
                instrs += m * (k * (1 + 2 * n) + n * s);
                break;
            }
            if (g.quantizeWeights)
                instrs += isTpu() ? 3 : 1;
            plan.gemms.push_back(g);
            break;
          }
          case Task::Kind::Stream: {
            const StreamTask &t = task.stream;
            instrs += streamChunks(t) *
                      (2 + (t.inTensor2.empty() ? 0 : 1) +
                       storesPerTile(t.isWeightGradient));
            break;
          }
          case Task::Kind::Update:
            if (!ndp) {
                const std::uint64_t chunks = updateChunks(task.update);
                instrs += chunks * 2 * (2 + stateTensors());
                update_vmuls += chunks;
            }
            break;
          case Task::Kind::Alias:
            break;
        }
    }
    plan.instrs = instrs;
    plan.deps = 2 * instrs + (kMaxDeps - 2) * update_vmuls;
    return plan;
}

GemmPlan
Codegen::planGemm(const GemmTask &task) const
{
    const int bits = opt_.bits;
    const int bits_a = task.aIsFp32 ? 32 : bits;
    GemmPlan plan;

    // ---- Double-buffered on-chip capacities ----
    const Bytes half_nbin = cfg_.nbinBytes / 2;
    const Bytes half_sb = cfg_.sbBytes / 2;
    const Bytes half_nbout = cfg_.nboutBytes / 2;

    // ---- Operand stream sizes in bytes ----
    plan.aBytes = toBytes(task.aElems(), bits_a);
    plan.bBytes = toBytes(task.bElems(), bits);
    plan.cBytes = task.isWeightGradient ? task.cElems() * 4
                                        : toBytes(task.cElems(), bits);

    // ---- Tiling search ----
    // The compiler picks the (kT, order) pair minimizing DRAM traffic,
    // which is what a real tiling pass optimizes for on a
    // bandwidth-bound accelerator.
    struct Candidate
    {
        std::uint64_t kT = 1, mT = 1, nT = 1;
        Order order = Order::NMK;
        double traffic = 1e300;
    };
    Candidate best;
    const auto consider = [&best](Candidate c) {
        if (c.traffic < best.traffic)
            best = c;
    };
    const double a_d = static_cast<double>(plan.aBytes);
    const double b_d = static_cast<double>(plan.bBytes);
    const double c_d = static_cast<double>(plan.cBytes);

    const std::uint64_t kt_cands[] = {task.k, 8192, 4096, 2048,
                                      1024,   512,  256};
    for (std::uint64_t kt_raw : kt_cands) {
        const std::uint64_t kt = std::min(kt_raw, task.k);
        if (kt == 0)
            continue;
        const std::uint64_t m_cap = std::min<std::uint64_t>(
            {task.m, half_nbin * 8 / (kt * bits_a), 512});
        const std::uint64_t n_cap = std::min<std::uint64_t>(
            task.n, half_sb * 8 / (kt * bits));
        if (m_cap == 0 || n_cap == 0)
            continue;

        // NMK
        {
            const std::uint64_t mt = m_cap;
            const std::uint64_t nt =
                std::min(n_cap, half_nbout / (4 * mt));
            if (nt > 0) {
                consider({kt, mt, nt, Order::NMK,
                          a_d * static_cast<double>(
                                    ceilDiv(task.n, nt)) +
                              b_d * static_cast<double>(
                                        ceilDiv(task.m, mt)) +
                              c_d});
            }
        }
        // NKM: whole-m C column resident in NBout.
        {
            const std::uint64_t nt =
                std::min(n_cap, half_nbout / (4 * task.m));
            if (nt > 0) {
                consider({kt, m_cap, nt, Order::NKM,
                          a_d * static_cast<double>(
                                    ceilDiv(task.n, nt)) +
                              b_d + c_d});
            }
        }
        // MKN: whole-n C row resident in NBout.
        {
            const std::uint64_t mt =
                std::min(m_cap, half_nbout / (4 * task.n));
            if (mt > 0) {
                consider({kt, mt, n_cap, Order::MKN,
                          a_d +
                              b_d * static_cast<double>(
                                        ceilDiv(task.m, mt)) +
                              c_d});
            }
        }
    }
    CQ_ASSERT_MSG(best.traffic < 1e300,
                  "no feasible tiling for GEMM %s (m=%llu n=%llu "
                  "k=%llu)",
                  task.layer.c_str(),
                  static_cast<unsigned long long>(task.m),
                  static_cast<unsigned long long>(task.n),
                  static_cast<unsigned long long>(task.k));

    plan.order = best.order;
    plan.mT = best.mT;
    plan.nT = best.nT;
    plan.kT = best.kT;
    plan.mTiles = ceilDiv(task.m, best.mT);
    plan.nTiles = ceilDiv(task.n, best.nT);
    plan.kTiles = ceilDiv(task.k, best.kT);
    return plan;
}

/** The emit pass: write the program @p plan describes. */
Program
Codegen::emitProgram(const ProgramPlan &plan)
{
    prog_.reserve(plan.instrs, plan.deps);
    const bool ndp = useNdp();
    if (ndp) {
        // Program the NDPO constant registers once.
        Instr cro;
        cro.op = Opcode::CROSET;
        cro.phase = Phase::WU;
        cro.tagId = prog_.internTag("ndpo-config");
        crosetIdx_ = emit(cro, {});
    }
    auto gemm_plan = plan.gemms.begin();
    for (const auto &task : ir_.tasks) {
        switch (task.kind) {
          case Task::Kind::Gemm:
            gemm(task.gemm, *gemm_plan++);
            break;
          case Task::Kind::Stream:
            stream(task.stream);
            break;
          case Task::Kind::Update:
            if (!ndp)
                update(task.update);
            break;
          case Task::Kind::Alias:
            aliasTensor(task.alias);
            break;
        }
    }
    return std::move(prog_);
}

void
Codegen::gemm(const GemmTask &task, const GemmPlan &plan)
{
    const int bits = opt_.bits;
    const bool b_is_weights = task.freshWeightElems > 0 ||
                              task.bTensor.rfind("wq:", 0) == 0;

    if (plan.quantizeWeights)
        quantizeWeights(task.layer, task.freshWeightElems);

    const Bytes a_bytes = plan.aBytes, b_bytes = plan.bBytes,
                c_bytes = plan.cBytes;
    const std::uint64_t m_t = plan.mT, n_t = plan.nT, k_t = plan.kT;
    const std::uint64_t m_tiles = plan.mTiles, n_tiles = plan.nTiles,
                        k_tiles = plan.kTiles;

    // ---- Addresses ----
    const std::string &a_name = task.aTensor;
    const std::string b_name =
        task.freshWeightElems > 0 ? "wq:" + task.layer : task.bTensor;
    const Addr a_base = tensorAddr(
        a_name, std::max<Bytes>(a_bytes, 64), Region::Activations);
    const Addr b_base = tensorAddr(
        b_name, std::max<Bytes>(b_bytes, 64),
        b_is_weights ? Region::QuantWeights : Region::Gradients);
    const Region c_region = task.isWeightGradient
                                ? Region::WeightGrads
                                : (task.phase == Phase::FW
                                       ? Region::Activations
                                       : Region::Gradients);
    const Addr c_base = tensorAddr(
        task.cTensor, std::max<Bytes>(c_bytes, 64), c_region);

    // Per-tile traffic: spread the operand stream totals evenly.
    const Bytes a_tile_bytes =
        std::max<Bytes>(64, a_bytes / (m_tiles * k_tiles));
    const Bytes b_tile_bytes =
        std::max<Bytes>(64, b_bytes / (n_tiles * k_tiles));
    const Bytes c_tile_bytes =
        std::max<Bytes>(64, c_bytes / (m_tiles * n_tiles));
    const std::uint64_t c_tile_elems = std::max<std::uint64_t>(
        1, task.cElems() / (m_tiles * n_tiles));

    const DepList a_deps = readersDeps(a_name);
    const DepList b_deps = readersDeps(b_name);
    const std::uint32_t a_tag = prog_.internTag(task.layer + ".A");
    const std::uint32_t b_tag = prog_.internTag(task.layer + ".B");
    const std::uint32_t mm_tag = prog_.internTag(task.layer);
    const std::uint32_t act_tag =
        task.fusedActivation ? prog_.internTag(task.layer + ".act") : 0;

    // ---- Emission helpers ----
    const auto emit_load_a = [&](std::uint64_t mt, std::uint64_t kt) {
        Instr la;
        la.op = task.aIsFp32 ? Opcode::QLOAD : Opcode::VLOAD;
        la.phase = task.phase;
        la.addr = a_base + ((mt * k_tiles + kt) * a_tile_bytes) %
                               std::max<Bytes>(a_bytes, 64);
        la.bytes = a_tile_bytes;
        la.elems = task.aIsFp32 ? a_tile_bytes / 4 : 0;
        la.buf = BufId::NBin;
        la.tagId = a_tag;
        return emit(la, a_deps);
    };
    const auto emit_load_b = [&](std::uint64_t nt, std::uint64_t kt) {
        Instr lb;
        lb.phase = task.phase;
        lb.addr = b_base + ((nt * k_tiles + kt) * b_tile_bytes) %
                               std::max<Bytes>(b_bytes, 64);
        lb.bytes = b_tile_bytes;
        lb.buf = BufId::SB;
        lb.tagId = b_tag;
        if (n_tiles > 1) {
            // A (k_t x n_t) sub-tile of the row-major (k x n) tensor
            // is strided: one stripe of n_t elements per k row. The
            // stripe count is capped to model DMA descriptor
            // coalescing over adjacent rows.
            const std::uint64_t k_cur =
                std::min<std::uint64_t>(k_t, task.k - kt * k_t);
            lb.op = Opcode::SLOAD;
            lb.elems = std::min<std::uint64_t>(k_cur, 128);
            lb.bytes2 = std::max<Bytes>(
                toBytes(task.n, bits), lb.bytes / lb.elems);
        } else {
            lb.op = Opcode::VLOAD;
        }
        return emit(lb, b_deps);
    };
    const auto emit_mm = [&](std::uint64_t mt, std::uint64_t nt,
                             std::uint64_t kt, std::uint32_t dep_a,
                             std::uint32_t dep_b) {
        const std::uint64_t m_cur =
            std::min<std::uint64_t>(m_t, task.m - mt * m_t);
        const std::uint64_t n_cur =
            std::min<std::uint64_t>(n_t, task.n - nt * n_t);
        const std::uint64_t k_cur =
            std::min<std::uint64_t>(k_t, task.k - kt * k_t);
        Instr mm;
        mm.op = task.phase == Phase::FW && task.aElemsTotal > 0
                    ? Opcode::CONV
                    : Opcode::MM;
        mm.phase = task.phase;
        mm.m = static_cast<std::uint32_t>(m_cur);
        mm.n = static_cast<std::uint32_t>(n_cur);
        mm.k = static_cast<std::uint32_t>(k_cur);
        mm.bitsA = static_cast<std::uint8_t>(bits);
        mm.bitsB = static_cast<std::uint8_t>(bits);
        mm.tagId = mm_tag;
        return emit(mm, {dep_a, dep_b});
    };
    Output out{task.layer, task.cTensor, task.phase, task.waysOut,
               task.isWeightGradient, task.cElems(), c_base,
               task.layer + ".C"};
    Bytes c_offset = 0;
    const auto emit_store = [&](std::uint64_t mt, std::uint64_t nt,
                                std::uint32_t mm_dep) {
        std::uint32_t store_dep = mm_dep;
        if (task.fusedActivation) {
            const std::uint64_t m_cur =
                std::min<std::uint64_t>(m_t, task.m - mt * m_t);
            const std::uint64_t n_cur =
                std::min<std::uint64_t>(n_t, task.n - nt * n_t);
            Instr act;
            act.op = Opcode::SFU;
            act.phase = task.phase;
            act.elems = m_cur * n_cur;
            act.tagId = act_tag;
            store_dep = emit(act, {mm_dep});
        }
        storeOutput(out, c_offset, c_tile_elems, store_dep);
        c_offset += c_tile_bytes;
    };

    // ---- Loop nests ----
    switch (plan.order) {
      case Order::NMK:
        for (std::uint64_t nt = 0; nt < n_tiles; ++nt) {
            for (std::uint64_t mt = 0; mt < m_tiles; ++mt) {
                std::uint32_t last_mm = 0;
                for (std::uint64_t kt = 0; kt < k_tiles; ++kt) {
                    const auto a_idx = emit_load_a(mt, kt);
                    const auto b_idx = emit_load_b(nt, kt);
                    last_mm = emit_mm(mt, nt, kt, a_idx, b_idx);
                }
                emit_store(mt, nt, last_mm);
            }
        }
        break;
      case Order::NKM: {
        // Every k-tile rewrites each entry, so one array serves all
        // n-tiles.
        std::vector<std::uint32_t> last_mm(m_tiles);
        for (std::uint64_t nt = 0; nt < n_tiles; ++nt) {
            for (std::uint64_t kt = 0; kt < k_tiles; ++kt) {
                const auto b_idx = emit_load_b(nt, kt);
                for (std::uint64_t mt = 0; mt < m_tiles; ++mt) {
                    const auto a_idx = emit_load_a(mt, kt);
                    last_mm[mt] = emit_mm(mt, nt, kt, a_idx, b_idx);
                }
            }
            for (std::uint64_t mt = 0; mt < m_tiles; ++mt)
                emit_store(mt, nt, last_mm[mt]);
        }
        break;
      }
      case Order::MKN: {
        std::vector<std::uint32_t> last_mm(n_tiles);
        for (std::uint64_t mt = 0; mt < m_tiles; ++mt) {
            for (std::uint64_t kt = 0; kt < k_tiles; ++kt) {
                const auto a_idx = emit_load_a(mt, kt);
                for (std::uint64_t nt = 0; nt < n_tiles; ++nt) {
                    const auto b_idx = emit_load_b(nt, kt);
                    last_mm[nt] = emit_mm(mt, nt, kt, a_idx, b_idx);
                }
            }
            for (std::uint64_t nt = 0; nt < n_tiles; ++nt)
                emit_store(mt, nt, last_mm[nt]);
        }
        break;
      }
    }
}

void
Codegen::stream(const StreamTask &task)
{
    // Chunked load -> SFU -> store pipeline; inputs are quantized,
    // one byte per element.
    const std::uint64_t chunk = kStreamChunk;
    const std::uint64_t chunks = streamChunks(task);

    const Addr in_base = tensorAddr(
        task.inTensor,
        std::max<Bytes>(task.inElems, 64),
        Region::Activations);
    Addr in2_base = 0;
    if (!task.inTensor2.empty()) {
        in2_base = tensorAddr(
            task.inTensor2,
            std::max<Bytes>(task.inElems2, 64),
            Region::Activations);
    }
    const Region out_region = task.isWeightGradient
                                  ? Region::WeightGrads
                                  : Region::Activations;
    const Bytes out_elem_bytes = task.isWeightGradient ? 4 : 1;
    Output out{task.layer, task.outTensor, task.phase, task.waysOut,
               task.isWeightGradient, task.outElems,
               tensorAddr(task.outTensor,
                          std::max<Bytes>(task.outElems * out_elem_bytes,
                                          64),
                          out_region),
               task.layer + ".out"};

    const DepList in_deps = readersDeps(task.inTensor);
    const DepList in2_deps = task.inTensor2.empty()
                                 ? DepList{}
                                 : readersDeps(task.inTensor2);
    const std::uint32_t in_tag = prog_.internTag(task.layer + ".in");
    const std::uint32_t in2_tag =
        task.inTensor2.empty() ? 0 : prog_.internTag(task.layer + ".in2");
    const std::uint32_t sfu_tag = prog_.internTag(task.layer + ".sfu");

    for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::uint64_t in_elems =
            std::min<std::uint64_t>(chunk,
                                    task.inElems - c * chunk);
        const std::uint64_t out_elems = std::max<std::uint64_t>(
            1, task.outElems / chunks);
        const std::uint64_t sfu_ops = std::max<std::uint64_t>(
            1, task.sfuOps / chunks);

        Instr li;
        li.op = Opcode::VLOAD;
        li.phase = task.phase;
        li.addr = in_base + c * chunk;
        li.bytes = std::max<Bytes>(in_elems, 1);
        li.buf = BufId::NBin;
        li.tagId = in_tag;
        DepList sfu_deps{emit(li, in_deps)};
        if (!task.inTensor2.empty()) {
            Instr l2;
            l2.op = Opcode::VLOAD;
            l2.phase = task.phase;
            l2.addr = in2_base + c * chunk;
            l2.bytes = std::max<Bytes>(task.inElems2 / chunks, 1);
            l2.buf = BufId::NBin;
            l2.tagId = in2_tag;
            sfu_deps.push(emit(l2, in2_deps));
        }

        Instr sf;
        sf.op = Opcode::SFU;
        sf.phase = task.phase;
        sf.elems = sfu_ops;
        sf.tagId = sfu_tag;
        const auto sf_idx = emit(sf, sfu_deps);

        storeOutput(out, c * chunk * out_elem_bytes, out_elems, sf_idx);
    }
}

void
Codegen::update(const UpdateTask &task)
{
    // Non-NDP weight update: stream dW, w and the optimizer state
    // through the core, compute, and write w and the state back -- the
    // full-precision traffic the NDP engine exists to eliminate.
    static constexpr struct
    {
        const char *prefix;
        Region region;
        const char *tag;
    } kStreams[kMaxDeps] = {
        {"wg:", Region::WeightGrads, ".dW"},
        {"w:", Region::Weights, ".w"},
        {"m:", Region::StateM, ".m"},
        {"v:", Region::StateV, ".v"},
    };
    // dW, w and the optimizer state are loaded; all but dW are stored.
    const unsigned state = stateTensors();
    const unsigned used = 2 + state;
    Addr base[kMaxDeps] = {};
    DepList deps[kMaxDeps];
    std::uint32_t load_tag[kMaxDeps] = {}, store_tag[kMaxDeps] = {};
    for (unsigned i = 0; i < used; ++i) {
        const std::string tensor = kStreams[i].prefix + task.layer;
        base[i] =
            tensorAddr(tensor, task.numWeights * 4, kStreams[i].region);
        deps[i] = readersDeps(tensor);
        const std::string tag = task.layer + kStreams[i].tag;
        load_tag[i] = prog_.internTag(tag);
        if (i > 0)
            store_tag[i] = prog_.internTag(tag + "'");
    }
    const std::uint32_t opt_tag = prog_.internTag(task.layer + ".opt");

    const std::uint64_t chunk = kUpdateChunk;
    const std::uint64_t chunks = updateChunks(task);
    for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::uint64_t elems = std::min<std::uint64_t>(
            chunk, task.numWeights - c * chunk);
        DepList loads;
        for (unsigned i = 0; i < used; ++i) {
            Instr ld;
            ld.op = Opcode::VLOAD;
            ld.phase = Phase::WU;
            ld.addr = base[i] + c * chunk * 4;
            ld.bytes = elems * 4;
            ld.buf = BufId::NBin;
            ld.tagId = load_tag[i];
            loads.push(emit(ld, deps[i]));
        }

        // The element-wise optimizer arithmetic on the vector units.
        Instr vm;
        vm.op = Opcode::VMUL;
        vm.phase = Phase::WU;
        vm.elems = elems * (2 + 2 * state);
        vm.tagId = opt_tag;
        const auto vm_idx = emit(vm, loads);

        for (unsigned i = 1; i < used; ++i) {
            Instr st;
            st.op = Opcode::VSTORE;
            st.phase = Phase::WU;
            st.addr = base[i] + c * chunk * 4;
            st.bytes = elems * 4;
            st.buf = BufId::NBout;
            st.tagId = store_tag[i];
            emit(st, {vm_idx});
        }
    }
}

} // namespace

Program
generateProgram(const WorkloadIR &ir,
                const arch::CambriconQConfig &config,
                const CodegenOptions &options)
{
    Codegen cg(ir, config, options);
    const ProgramPlan plan = cg.plan();
    Program prog = cg.emitProgram(plan);
    CQ_ASSERT_MSG(prog.size() == plan.instrs,
                  "%s: planned %zu instructions, emitted %zu",
                  ir.name.c_str(), plan.instrs, prog.size());
    return prog;
}

TrafficSummary
summarizeTraffic(const arch::Program &prog)
{
    TrafficSummary out;
    for (const auto &ins : prog) {
        switch (ins.op) {
          case Opcode::VLOAD:
          case Opcode::SLOAD:
          case Opcode::QLOAD:
            out.loadBytes += ins.bytes;
            if (ins.op == Opcode::QLOAD)
                out.fullPrecisionBytes += ins.bytes;
            break;
          case Opcode::VSTORE:
          case Opcode::SSTORE:
          case Opcode::QSTORE:
            out.storeBytes += ins.bytes;
            break;
          case Opcode::WGSTORE:
            out.storeBytes += ins.bytes;
            out.fullPrecisionBytes += ins.bytes;
            break;
          case Opcode::QMOVE:
            out.loadBytes += ins.bytes;
            out.storeBytes += ins.bytes2;
            out.fullPrecisionBytes += ins.bytes;
            break;
          default:
            break;
        }
    }
    return out;
}

} // namespace cq::compiler
