/**
 * @file
 * Implementation of ISA helpers.
 */

#include "arch/isa.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace cq::arch {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::CROSET:  return "CROSET";
      case Opcode::VLOAD:   return "VLOAD";
      case Opcode::VSTORE:  return "VSTORE";
      case Opcode::SLOAD:   return "SLOAD";
      case Opcode::SSTORE:  return "SSTORE";
      case Opcode::QLOAD:   return "QLOAD";
      case Opcode::QSTORE:  return "QSTORE";
      case Opcode::QMOVE:   return "QMOVE";
      case Opcode::WGSTORE: return "WGSTORE";
      case Opcode::MM:      return "MM";
      case Opcode::CONV:    return "CONV";
      case Opcode::VMUL:    return "VMUL";
      case Opcode::VADD:    return "VADD";
      case Opcode::VFMUL:   return "VFMUL";
      case Opcode::HMUL:    return "HMUL";
      case Opcode::SFU:     return "SFU";
    }
    return "?";
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::FW:    return "FW";
      case Phase::NG:    return "NG";
      case Phase::WG:    return "WG";
      case Phase::WU:    return "WU";
      case Phase::Stat:  return "S";
      case Phase::Quant: return "Q";
    }
    return "?";
}

const char *
bufIdName(BufId buf)
{
    switch (buf) {
      case BufId::None:  return "-";
      case BufId::NBin:  return "NBin";
      case BufId::SB:    return "SB";
      case BufId::NBout: return "NBout";
    }
    return "?";
}

std::string
Instr::toString(std::string_view tag) const
{
    std::ostringstream os;
    os << opcodeName(op) << " [" << phaseName(phase) << "]";
    if (bytes > 0) {
        os << " addr=0x" << std::hex << addr << std::dec
           << " bytes=" << bytes << " buf=" << bufIdName(buf);
    }
    if (m > 0)
        os << " m=" << m << " n=" << n << " k=" << k
           << " bits=" << int(bitsA) << "x" << int(bitsB);
    if (elems > 0)
        os << " elems=" << elems;
    if (ways > 1)
        os << " ways=" << int(ways);
    if (!tag.empty())
        os << " ; " << tag;
    return os.str();
}

EncodedInstr
encodeInstr(const Instr &instr)
{
    EncodedInstr e;
    e.words[0] = static_cast<std::uint64_t>(instr.op) |
                 (static_cast<std::uint64_t>(instr.phase) & 0xF) << 8 |
                 (static_cast<std::uint64_t>(instr.buf) & 0xF) << 12 |
                 static_cast<std::uint64_t>(instr.bitsA) << 16 |
                 static_cast<std::uint64_t>(instr.bitsB) << 24 |
                 static_cast<std::uint64_t>(instr.ways) << 32;
    e.words[1] = static_cast<std::uint64_t>(instr.m) |
                 static_cast<std::uint64_t>(instr.n) << 32;
    e.words[2] = static_cast<std::uint64_t>(instr.k);
    e.words[3] = instr.addr;
    e.words[4] = instr.addr2;
    e.words[5] = instr.bytes;
    e.words[6] = instr.bytes2;
    e.words[7] = instr.elems;
    return e;
}

Instr
decodeInstr(const EncodedInstr &encoded)
{
    Instr ins;
    const std::uint64_t w0 = encoded.words[0];
    ins.op = static_cast<Opcode>(w0 & 0xFF);
    ins.phase = static_cast<Phase>((w0 >> 8) & 0xF);
    ins.buf = static_cast<BufId>((w0 >> 12) & 0xF);
    ins.bitsA = static_cast<std::uint8_t>((w0 >> 16) & 0xFF);
    ins.bitsB = static_cast<std::uint8_t>((w0 >> 24) & 0xFF);
    ins.ways = static_cast<std::uint8_t>((w0 >> 32) & 0xFF);
    ins.m = static_cast<std::uint32_t>(encoded.words[1]);
    ins.n = static_cast<std::uint32_t>(encoded.words[1] >> 32);
    ins.k = static_cast<std::uint32_t>(encoded.words[2]);
    ins.addr = encoded.words[3];
    ins.addr2 = encoded.words[4];
    ins.bytes = encoded.words[5];
    ins.bytes2 = encoded.words[6];
    ins.elems = encoded.words[7];
    return ins;
}

void
Program::reserve(std::size_t instrs, std::size_t deps)
{
    instrs_.reserve(instrs);
    depStart_.reserve(instrs + 1);
    depIdx_.reserve(deps);
}

std::uint32_t
Program::internTag(std::string_view tag)
{
    const auto at = std::lower_bound(
        tagsByName_.begin(), tagsByName_.end(), tag,
        [this](std::uint32_t id, std::string_view t) {
            return tags_[id] < t;
        });
    if (at != tagsByName_.end() && tags_[*at] == tag)
        return *at;
    const auto id = static_cast<std::uint32_t>(tags_.size());
    tags_.emplace_back(tag);
    tagsByName_.insert(at, id);
    return id;
}

std::uint32_t
Program::append(const Instr &ins, std::span<const std::uint32_t> deps)
{
    const std::size_t index = instrs_.size();
    CQ_ASSERT(index < UINT32_MAX &&
              deps.size() <= UINT32_MAX - depIdx_.size());
    CQ_ASSERT_MSG(ins.tagId < tags_.size(),
                  "instr %zu has tag id %u outside the table of %zu",
                  index, ins.tagId, tags_.size());
    for (std::uint32_t d : deps)
        CQ_ASSERT_MSG(d < index,
                      "instr %zu depends on %u (not strictly earlier)",
                      index, d);
    instrs_.push_back(ins);
    depIdx_.insert(depIdx_.end(), deps.begin(), deps.end());
    depStart_.push_back(static_cast<std::uint32_t>(depIdx_.size()));
    return static_cast<std::uint32_t>(instrs_.size() - 1);
}

} // namespace cq::arch
