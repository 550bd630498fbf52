/**
 * @file
 * Implementation of the modeled interconnect.
 */

#include "dist/interconnect.h"

#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"

namespace cq::dist {

namespace {

/** Frame header preceding the payload on the wire. */
struct FrameHeader
{
    std::uint32_t magic = 0x4351464D; // "CQFM"
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t length = 0;
    std::uint32_t payloadCrc = 0;
};

sim::FaultConfig
linkFaultConfig(const LinkConfig &link)
{
    sim::FaultConfig f;
    f.seed = link.seed ^ 0xC0FFEEull;
    f.bitFlipsPerMbit = link.corruptFlipsPerMbit;
    f.targetLinkPayload = true;
    f.targetMasterWeights = false;
    return f;
}

} // namespace

Interconnect::Interconnect(std::size_t chips, LinkConfig config)
    : chips_(chips), config_(config), rng_(config.seed),
      faults_(linkFaultConfig(config)), silent_(chips, 0),
      sendDelayUs_(chips, 0.0)
{
    CQ_ASSERT_MSG(chips >= 2, "interconnect needs >= 2 chips, got %zu",
                  chips);
}

void
Interconnect::setSilent(std::size_t chip, bool silent)
{
    CQ_ASSERT(chip < chips_);
    silent_[chip] = silent ? 1 : 0;
}

bool
Interconnect::silent(std::size_t chip) const
{
    CQ_ASSERT(chip < chips_);
    return silent_[chip] != 0;
}

void
Interconnect::setSendDelay(std::size_t chip, double delayUs)
{
    CQ_ASSERT(chip < chips_);
    sendDelayUs_[chip] = delayUs;
}

double
Interconnect::sendDelay(std::size_t chip) const
{
    CQ_ASSERT(chip < chips_);
    return sendDelayUs_[chip];
}

double
Interconnect::attemptCostUs(std::size_t src, std::size_t bytes) const
{
    // 1 GB/s == 1000 bytes per microsecond.
    return config_.latencyUs +
           static_cast<double>(bytes) / (config_.gbPerSec * 1000.0) +
           sendDelayUs_[src];
}

SendOutcome
Interconnect::send(std::size_t src, std::size_t dst,
                   const std::vector<std::uint8_t> &payload,
                   std::vector<std::uint8_t> &received,
                   CancelToken *cancel)
{
    CQ_ASSERT(src < chips_ && dst < chips_ && src != dst);
    SendOutcome out;
    received.clear();
    stats_.add("link.sends", 1.0);

    const std::size_t frameBytes =
        sizeof(FrameHeader) + payload.size();
    for (unsigned attempt = 0;
         attempt <= config_.maxRetransmits; ++attempt) {
        // Collective wait loops must stay cancellable: a deadline or
        // SIGTERM drain fires here, mid-all-reduce, instead of
        // waiting for the step boundary.
        if (cancel != nullptr && cancel->cancelled()) {
            out.cancelled = true;
            break;
        }
        if (attempt > 0) {
            ++out.retransmits;
            stats_.add("link.retransmits", 1.0);
        }
        if (silent_[src]) {
            // Nothing reaches the wire; the receiver burns a full
            // timeout window before giving up on this attempt.
            out.simUs += config_.timeoutUs;
            continue;
        }
        // Serialize a fresh frame per attempt: a corrupted buffer
        // never feeds the next retransmission.
        FrameHeader h;
        h.src = static_cast<std::uint32_t>(src);
        h.dst = static_cast<std::uint32_t>(dst);
        h.length = payload.size();
        h.payloadCrc = crc32(payload.data(), payload.size());
        std::vector<std::uint8_t> frame(frameBytes);
        std::memcpy(frame.data(), &h, sizeof(h));
        if (!payload.empty())
            std::memcpy(frame.data() + sizeof(h), payload.data(),
                        payload.size());

        out.simUs += attemptCostUs(src, frameBytes);
        out.bytesOnWire += frameBytes;

        if (config_.dropProb > 0.0 &&
            rng_.uniform() < config_.dropProb) {
            // The frame vanishes; detection is by receiver timeout.
            stats_.add("link.drops", 1.0);
            out.simUs += config_.timeoutUs;
            continue;
        }
        faults_.maybeCorruptBytes(frame.data(), frame.size(),
                                  sim::FaultSite::LinkPayload);

        FrameHeader rh;
        std::memcpy(&rh, frame.data(), sizeof(rh));
        const std::uint8_t *body = frame.data() + sizeof(rh);
        const bool headerOk = rh.magic == h.magic &&
                              rh.length == payload.size();
        if (!headerOk ||
            crc32(body, payload.size()) != rh.payloadCrc) {
            // Receiver NACKs the torn frame; sender goes again.
            stats_.add("link.crc_rejects", 1.0);
            ++out.crcRejects;
            continue;
        }
        received.assign(body, body + payload.size());
        out.delivered = true;
        break;
    }
    totalSimUs_ += out.simUs;
    totalBytes_ += out.bytesOnWire;
    if (!out.delivered && !out.cancelled)
        stats_.add("link.delivery_failures", 1.0);
    return out;
}

} // namespace cq::dist
