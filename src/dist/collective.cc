/**
 * @file
 * Implementation of the LDQ ring all-reduce.
 */

#include "dist/collective.h"

#include <cstring>

#include "common/logging.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "quant/block_quant.h"

namespace cq::dist {

namespace {

constexpr std::uint32_t kChunkMagic = 0x43514C44; // "CQLD"

/** Bytes per level on the wire: ceil(bits / 8), so INT8 packs 1:1. */
std::size_t
levelBytes(std::uint32_t bits)
{
    return (bits + 7) / 8;
}

void
put32(std::vector<std::uint8_t> &b, std::uint32_t v)
{
    const std::size_t off = b.size();
    b.resize(off + 4);
    std::memcpy(b.data() + off, &v, 4);
}

void
put64(std::vector<std::uint8_t> &b, std::uint64_t v)
{
    const std::size_t off = b.size();
    b.resize(off + 8);
    std::memcpy(b.data() + off, &v, 8);
}

bool
get32(const std::vector<std::uint8_t> &b, std::size_t &pos,
      std::uint32_t &v)
{
    if (pos + 4 > b.size())
        return false;
    std::memcpy(&v, b.data() + pos, 4);
    pos += 4;
    return true;
}

bool
get64(const std::vector<std::uint8_t> &b, std::size_t &pos,
      std::uint64_t &v)
{
    if (pos + 8 > b.size())
        return false;
    std::memcpy(&v, b.data() + pos, 8);
    pos += 8;
    return true;
}

} // namespace

const char *
collectiveStatusName(CollectiveStatus status)
{
    switch (status) {
      case CollectiveStatus::Ok:         return "ok";
      case CollectiveStatus::ChipFailed: return "chipFailed";
      case CollectiveStatus::Cancelled:  return "cancelled";
    }
    return "?";
}

std::vector<std::uint8_t>
encodeLdqChunk(const float *x, std::size_t n, std::size_t blockSize,
               int bits)
{
    std::vector<std::uint8_t> out;
    if (n == 0) {
        // Degenerate chunk (fewer elements than ring slots): an
        // empty body keeps the ring rounds uniform.
        put32(out, kChunkMagic);
        put32(out, static_cast<std::uint32_t>(bits));
        put64(out, 0);
        put64(out, blockSize);
        put64(out, 0);
        return out;
    }
    const quant::BlockQuantized q = quant::ldqQuantize(
        Tensor({n}, std::vector<float>(x, x + n)), blockSize, bits);
    const std::size_t width = levelBytes(static_cast<std::uint32_t>(bits));
    out.reserve(32 + q.numBlocks() * 8 + n * width);
    put32(out, kChunkMagic);
    put32(out, static_cast<std::uint32_t>(bits));
    put64(out, n);
    put64(out, blockSize);
    put64(out, q.numBlocks());
    // Every block shares the header's width; only its scale travels.
    for (const quant::IntFormat &f : q.formats()) {
        std::uint64_t scaleBits;
        std::memcpy(&scaleBits, &f.scale, 8);
        put64(out, scaleBits);
    }
    // Each level's low `width` bytes, little-endian; a level fits
    // them because |level| <= 2^(bits-1) - 1.
    const std::size_t off = out.size();
    out.resize(off + n * width);
    for (std::size_t i = 0; i < n; ++i) {
        const auto level = static_cast<std::uint16_t>(q.levels()[i]);
        for (std::size_t b = 0; b < width; ++b)
            out[off + i * width + b] =
                static_cast<std::uint8_t>(level >> (8 * b));
    }
    return out;
}

bool
decodeLdqChunk(const std::vector<std::uint8_t> &bytes,
               std::vector<float> &out)
{
    out.clear();
    std::size_t pos = 0;
    std::uint32_t magic = 0, bits = 0;
    std::uint64_t n = 0, blockSize = 0, nblocks = 0;
    if (!get32(bytes, pos, magic) || magic != kChunkMagic ||
        !get32(bytes, pos, bits) || !get64(bytes, pos, n) ||
        !get64(bytes, pos, blockSize) || !get64(bytes, pos, nblocks))
        return false;
    if (blockSize == 0 || bits < 2 || bits > 16 ||
        nblocks != (n == 0 ? 0 : (n + blockSize - 1) / blockSize) ||
        n > (1ull << 32))
        return false;
    std::vector<quant::IntFormat> formats(nblocks);
    for (std::uint64_t b = 0; b < nblocks; ++b) {
        std::uint64_t scaleBits = 0;
        if (!get64(bytes, pos, scaleBits))
            return false;
        formats[b].bits = static_cast<int>(bits);
        std::memcpy(&formats[b].scale, &scaleBits, 8);
    }
    const std::size_t width = levelBytes(bits);
    if (pos + n * width != bytes.size())
        return false;
    out.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint8_t *p = bytes.data() + pos + i * width;
        std::uint16_t raw = 0;
        for (std::size_t b = 0; b < width; ++b)
            raw |= static_cast<std::uint16_t>(p[b] << (8 * b));
        // Sign-extend from the level's width.
        const std::int32_t level =
            width == 1 ? static_cast<std::int8_t>(raw)
                       : static_cast<std::int16_t>(raw);
        out[i] = static_cast<float>(quant::dequantizeValue(
            level, formats[i / blockSize]));
    }
    return true;
}

CollectiveOutcome
ringAllReduceLdq(const std::vector<std::vector<float> *> &grads,
                 const std::vector<std::size_t> &ring,
                 Interconnect &net, const CollectiveConfig &config,
                 CancelToken *cancel)
{
    CQ_TRACE_SCOPE("dist.allreduce");
    CollectiveOutcome out;
    const std::size_t R = ring.size();
    CQ_ASSERT_MSG(grads.size() == R,
                  "one gradient per ring slot: %zu vs %zu",
                  grads.size(), R);
    if (R <= 1)
        return out; // a single survivor reduces to itself
    const std::size_t n = grads[0]->size();
    for (const std::vector<float> *g : grads)
        CQ_ASSERT_MSG(g->size() == n, "gradient length mismatch");

    // Chunk c of the flat gradient is [chunkLo(c), chunkHi(c)).
    const auto chunkLo = [&](std::size_t c) {
        return c * n / R;
    };
    const auto chunkHi = [&](std::size_t c) {
        return (c + 1) * n / R;
    };

    std::vector<std::uint8_t> wire;
    // Charge one failed message (plus classification) and abort; the
    // caller retries on the survivors.
    const auto deliver = [&](std::size_t fromSlot, std::size_t toSlot,
                             const std::vector<std::uint8_t> &payload)
        -> bool {
        // The hop span lands on the *sending* chip's Perfetto track,
        // so a loaded trace shows each ring round as a diagonal of
        // per-chip hops. Scope order matters: the context must
        // outlive the span's destructor-time record().
        obs::ObsContextScope hopCtx(static_cast<int>(ring[fromSlot]));
        CQ_TRACE_SCOPE("dist.allreduce.hop");
        const SendOutcome s = net.send(ring[fromSlot], ring[toSlot],
                                       payload, wire, cancel);
        out.simUs += s.simUs;
        out.bytesOnWire += s.bytesOnWire;
        out.retransmits += s.retransmits;
        if (s.cancelled) {
            out.status = CollectiveStatus::Cancelled;
            return false;
        }
        if (!s.delivered) {
            out.status = CollectiveStatus::ChipFailed;
            out.failed.push_back(ring[fromSlot]);
            out.failureKind = "silent";
            return false;
        }
        if (config.deadlineUs > 0.0 && s.simUs > config.deadlineUs) {
            // Delivered, but so late the step deadline is blown: a
            // persistent straggler. Evict the sender.
            out.status = CollectiveStatus::ChipFailed;
            out.failed.push_back(ring[fromSlot]);
            out.failureKind = "straggler";
            return false;
        }
        return true;
    };

    // Phase 1 — reduce-scatter: after R-1 rounds, slot i holds the
    // complete sum of chunk (i + 1) % R. Each hop quantizes the
    // sender's running partial sum (LDQ on the wire), and the
    // receiver dequantizes and accumulates in FP32.
    std::vector<float> decoded;
    for (std::size_t round = 0; round + 1 < R; ++round) {
        for (std::size_t slot = 0; slot < R; ++slot) {
            const std::size_t toSlot = (slot + 1) % R;
            const std::size_t c = (slot + R - round) % R;
            const std::size_t lo = chunkLo(c), hi = chunkHi(c);
            const std::vector<std::uint8_t> payload = encodeLdqChunk(
                grads[slot]->data() + lo, hi - lo, config.blockSize,
                config.bits);
            out.fp32Bytes += (hi - lo) * sizeof(float);
            if (!deliver(slot, toSlot, payload))
                return out;
            if (!decodeLdqChunk(wire, decoded) ||
                decoded.size() != hi - lo) {
                // CRC passed but the body does not parse: treat the
                // sender like a corrupt-silent peer.
                out.status = CollectiveStatus::ChipFailed;
                out.failed.push_back(ring[slot]);
                out.failureKind = "silent";
                return out;
            }
            float *dst = grads[toSlot]->data() + lo;
            for (std::size_t i = 0; i < decoded.size(); ++i)
                dst[i] += decoded[i];
        }
    }

    // Phase 2 — all-gather: chunk c's owner quantizes its final sum
    // exactly once; those bytes travel the ring and *every* replica,
    // the owner included, installs the dequantized copy. Identical
    // bytes in, identical floats out — the replicas stay bitwise
    // equal.
    for (std::size_t c = 0; c < R; ++c) {
        const std::size_t owner = (c + R - 1) % R;
        const std::size_t lo = chunkLo(c), hi = chunkHi(c);
        std::vector<std::uint8_t> payload = encodeLdqChunk(
            grads[owner]->data() + lo, hi - lo, config.blockSize,
            config.bits);
        // An FP32 ring would pay the raw chunk on every forwarding
        // hop, so the compression numerator counts all R-1 of them.
        out.fp32Bytes += (R - 1) * (hi - lo) * sizeof(float);
        if (!decodeLdqChunk(payload, decoded) ||
            decoded.size() != hi - lo) {
            out.status = CollectiveStatus::ChipFailed;
            out.failed.push_back(ring[owner]);
            out.failureKind = "silent";
            return out;
        }
        std::memcpy(grads[owner]->data() + lo, decoded.data(),
                    (hi - lo) * sizeof(float));
        // Forward the owner's bytes hop by hop around the ring.
        for (std::size_t hop = 0; hop + 1 < R; ++hop) {
            const std::size_t fromSlot = (owner + hop) % R;
            const std::size_t toSlot = (owner + hop + 1) % R;
            if (!deliver(fromSlot, toSlot, payload))
                return out;
            if (!decodeLdqChunk(wire, decoded) ||
                decoded.size() != hi - lo) {
                out.status = CollectiveStatus::ChipFailed;
                out.failed.push_back(ring[fromSlot]);
                out.failureKind = "silent";
                return out;
            }
            std::memcpy(grads[toSlot]->data() + lo, decoded.data(),
                        (hi - lo) * sizeof(float));
            payload = wire; // forward verbatim, never re-quantize
        }
    }
    return out;
}

} // namespace cq::dist
