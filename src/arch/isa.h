/**
 * @file
 * The Cambricon-Q instruction set (paper Table V) and the program
 * representation executed by the timing simulator.
 *
 * Instructions are tensor-granular: one MM covers a whole PE-array
 * tile, one QLOAD streams a tile through the SQU into an on-chip
 * buffer. The compiler tags every instruction with the training phase
 * it belongs to (FW / NG / WG / WU plus the statistic and quantization
 * attribution buckets) so the simulator can reproduce the paper's
 * Fig. 12(b) breakdown.
 */

#ifndef CQ_ARCH_ISA_H
#define CQ_ARCH_ISA_H

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace cq::arch {

/** Opcodes of Table V (plus SFU ops the paper folds into "vector"). */
enum class Opcode : std::uint8_t
{
    // Control
    CROSET,   ///< set NDP/DDR constant register
    // Data I/O
    VLOAD,    ///< vector load (unquantized)
    VSTORE,   ///< vector store (unquantized)
    SLOAD,    ///< strided (stripe) load
    SSTORE,   ///< strided (stripe) store
    QLOAD,    ///< load with on-the-fly statistic+quantization (SQU)
    QSTORE,   ///< store with on-the-fly statistic+quantization (SQU)
    QMOVE,    ///< on-chip move with requantization (SQU + QBC)
    WGSTORE,  ///< store weight gradients and trigger NDP optimize
    // Compute
    MM,       ///< matrix multiply on the PE array
    CONV,     ///< 2-d convolution (im2col-lowered onto the PE array)
    VMUL,     ///< elementwise vector multiply
    VADD,     ///< elementwise vector add
    VFMUL,    ///< vector-scalar multiply
    HMUL,     ///< horizontal (reduction) multiply
    SFU,      ///< scalar-function-unit op (activation, softmax, ...)
};

const char *opcodeName(Opcode op);

/** Training-phase attribution buckets (paper Fig. 12(b)). */
enum class Phase : std::uint8_t
{
    FW,    ///< forward pass
    NG,    ///< computing gradients on neurons
    WG,    ///< computing gradients on weights
    WU,    ///< updating weights
    Stat,  ///< statistic analysis (separate pass on baselines)
    Quant, ///< quantization (separate pass on baselines)
};

const char *phaseName(Phase phase);
inline constexpr std::size_t kNumPhases = 6;

/** On-chip buffer targeted by a data instruction. */
enum class BufId : std::uint8_t { None, NBin, SB, NBout };

const char *bufIdName(BufId buf);

/**
 * One decoded instruction: 64 bytes that own no heap memory. Fields
 * are a union-of-needs across opcodes; unused fields stay zero. The
 * instruction's dependences and the text of its tag live in the
 * Program that holds it.
 */
struct Instr
{
    /** @name Memory operands (loads/stores) */
    /** @{ */
    Addr addr = 0;
    Bytes bytes = 0;
    /** Second operand address (QMOVE destination, WGSTORE rows). */
    Addr addr2 = 0;
    /** Second operand size (QMOVE quantized write bytes). */
    Bytes bytes2 = 0;
    /** @} */

    /** Element count for vector/SFU/WGSTORE ops. */
    std::uint64_t elems = 0;

    /** @name Compute operands (MM/CONV: result m x n, reduction k) */
    /** @{ */
    std::uint32_t m = 0, n = 0, k = 0;
    /** @} */

    /** Origin label (layer name) for diagnostics: an index into the
     *  holding Program's tag table; id 0 is the empty tag. */
    std::uint32_t tagId = 0;

    Opcode op = Opcode::CROSET;
    Phase phase = Phase::FW;
    BufId buf = BufId::None;
    /** Operand widths in bits (bit-serial passes = product / 16). */
    std::uint8_t bitsA = 8, bitsB = 8;

    /** E2BQM ways for Q* instructions (1 = plain DQ). */
    std::uint8_t ways = 1;

    /** Render as assembly-like text, ending in @p tag if not empty. */
    std::string toString(std::string_view tag = {}) const;
};

static_assert(sizeof(Instr) == 64, "Instr must stay 64 bytes");
static_assert(std::is_trivially_copyable_v<Instr>,
              "Instr must own no heap memory");

/**
 * A complete instruction stream, built by appending. It holds three
 * arrays: the 64-byte instructions, their dependences in CSR form
 * (instruction i depends on `depIdx_[depStart_[i] .. depStart_[i+1])`)
 * and a tag table that holds each distinct tag once. A const Program
 * has no lazily built state, so threads may share one.
 */
class Program
{
  public:
    /**
     * Size the arrays once for @p instrs instructions holding at most
     * @p deps dependences in all, so that appending that many
     * neither copies nor grows them.
     */
    void reserve(std::size_t instrs, std::size_t deps);

    /** Id of @p tag in the tag table; adds it if it is new. */
    std::uint32_t internTag(std::string_view tag);

    /**
     * Append @p ins (its `tagId` from internTag()) after the
     * instructions @p deps; returns the new instruction's index.
     * Panics unless every dependence is strictly earlier and the tag
     * id is in the table: the executor relies on both, so a Program
     * holds them from the moment it is built.
     */
    std::uint32_t append(const Instr &ins,
                         std::span<const std::uint32_t> deps = {});
    std::uint32_t
    append(const Instr &ins, std::initializer_list<std::uint32_t> deps)
    {
        return append(ins, std::span(deps.begin(), deps.size()));
    }

    std::size_t size() const { return instrs_.size(); }
    const Instr &operator[](std::size_t i) const { return instrs_[i]; }
    std::vector<Instr>::const_iterator begin() const
    {
        return instrs_.begin();
    }
    std::vector<Instr>::const_iterator end() const
    {
        return instrs_.end();
    }

    /** Indices of the instructions instruction @p i depends on. */
    std::span<const std::uint32_t>
    deps(std::size_t i) const
    {
        return std::span(depIdx_).subspan(
            depStart_[i], depStart_[i + 1] - depStart_[i]);
    }

    /** Number of tags in the table (id 0, the empty tag, included). */
    std::size_t numTags() const { return tags_.size(); }
    /** Tag text of instruction @p i (its id must be in the table). */
    const std::string &tag(std::size_t i) const
    {
        return tags_[instrs_[i].tagId];
    }

  private:
    std::vector<Instr> instrs_;
    std::vector<std::uint32_t> depStart_{0};
    std::vector<std::uint32_t> depIdx_;
    std::vector<std::string> tags_{std::string()};
    /** Tag ids in name order, for internTag()'s binary search. */
    std::vector<std::uint32_t> tagsByName_{0};
};

/**
 * Fixed-width binary encoding of one instruction (dependences travel
 * out of band in the instruction buffer's scoreboard, so they are not
 * part of the architectural encoding). Eight 64-bit words:
 *
 *   word0: opcode(8) | phase(4) | buf(4) | bitsA(8) | bitsB(8) |
 *          ways(8) -- packed low to high
 *   word1: m(32) | n(32)      word2: k(32) | reserved
 *   word3: addr               word4: addr2
 *   word5: bytes              word6: bytes2
 *   word7: elems
 *
 * Dependences and tags are compiler metadata that live in the Program,
 * not in the instruction, and are not encoded; the layout is an
 * implementation contract checked by round-trip tests.
 */
struct EncodedInstr
{
    std::uint64_t words[8] = {};
};

/** Encode the architectural fields of @p instr. */
EncodedInstr encodeInstr(const Instr &instr);

/** Decode an instruction (its tag id comes back 0, the empty tag). */
Instr decodeInstr(const EncodedInstr &encoded);

} // namespace cq::arch

#endif // CQ_ARCH_ISA_H
