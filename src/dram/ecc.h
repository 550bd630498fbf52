/**
 * @file
 * SEC-DED ECC over 64-bit DRAM words (Hamming(72,64)).
 *
 * Cambricon-Q keeps the FP32 master weights (and the adjacent Adam
 * m/v rows) resident in DRAM for the whole training run and updates
 * them in place through the NDP engine, so a transient upset there
 * silently poisons every later step. Real training silicon stores
 * those rows in x72 devices: every 64-bit word carries 8 check bits
 * of an extended Hamming code, the read path corrects any single-bit
 * error on the fly, and a background scrubber sweeps the array so
 * single-bit errors are repaired before a second hit in the same word
 * turns them into an uncorrectable double-bit error.
 *
 * This module is the functional model of that protection layer:
 *
 *  - eccEncodeWord() / eccDecodeWord(): the (72,64) codec itself.
 *    Seven Hamming check bits locate any single flipped bit (data or
 *    check); an eighth overall-parity bit separates single-bit
 *    (correctable) from double-bit (detectable, uncorrectable)
 *    errors.
 *  - EccProtectedArray: sideband check bytes for a float buffer (two
 *    floats per coded word), with demand correction, full-array
 *    correction, and a deterministic wrap-around scrub cursor.
 *
 * Double-bit errors are never "corrected" into a third value: the
 * decoder reports DoubleDetected and leaves the word untouched so the
 * caller can escalate to checkpoint rollback (DESIGN.md §5.4).
 */

#ifndef CQ_DRAM_ECC_H
#define CQ_DRAM_ECC_H

#include <cstddef>
#include <cstdint>

#include <vector>

namespace cq::dram {

/** Coded word geometry: 64 data bits + 8 check bits. */
constexpr std::size_t kEccDataBits = 64;
constexpr std::size_t kEccCheckBits = 8;
constexpr std::size_t kEccCodedBits = kEccDataBits + kEccCheckBits;

/** Outcome of decoding one coded word. */
enum class EccStatus
{
    Ok,               ///< syndrome clean, word untouched
    CorrectedSingle,  ///< one flipped bit located and repaired
    DoubleDetected,   ///< two flips: detected, NOT corrected
};

/** Decode result: corrected word plus what the decoder did. */
struct EccDecode
{
    EccStatus status = EccStatus::Ok;
    std::uint64_t data = 0;
    std::uint8_t check = 0;
    /**
     * Coded-bit index of the corrected flip (0..63 data, 64..71
     * check), or -1 when nothing was corrected.
     */
    int correctedBit = -1;
};

/** Compute the 8 check bits protecting @p data. */
std::uint8_t eccEncodeWord(std::uint64_t data);

/**
 * Decode (data, check): returns the corrected word when exactly one
 * bit (data or check) flipped since encoding, flags a double flip as
 * DoubleDetected with the operands passed through unmodified.
 */
EccDecode eccDecodeWord(std::uint64_t data, std::uint8_t check);

/**
 * Sideband SEC-DED check bits for a float buffer. Word w covers
 * floats 2w and 2w+1 (a missing odd tail is padded with +0.0f, which
 * has an all-zero bit pattern). The array never owns the float data:
 * callers pass the buffer to each operation, so the protected tensor
 * can reallocate (e.g. Tensor copy-assignment) without re-attaching.
 */
class EccProtectedArray
{
  public:
    EccProtectedArray() = default;
    /** Cover @p num_floats elements; check bits start all-zero and
     *  must be initialized with encodeAll() before decoding. */
    explicit EccProtectedArray(std::size_t num_floats);

    std::size_t numFloats() const { return numFloats_; }
    std::size_t numWords() const { return check_.size(); }

    /** Raw check bytes (one per coded word), the injection surface
     *  for post-encode fault models. */
    std::uint8_t *checkBits() { return check_.data(); }
    const std::uint8_t *checkBits() const { return check_.data(); }

    /** Recompute every check byte from @p data (call after the buffer
     *  was rewritten, e.g. an optimizer step or a rollback). */
    void encodeAll(const float *data);

    /** Outcome of a correction pass. */
    struct Report
    {
        std::size_t scanned = 0;        ///< words decoded
        std::size_t corrected = 0;      ///< single-bit repairs
        std::size_t uncorrectable = 0;  ///< double-bit detections

        void
        merge(const Report &other)
        {
            scanned += other.scanned;
            corrected += other.corrected;
            uncorrectable += other.uncorrectable;
        }
    };

    /** Decode-correct word @p w of @p data in place (both the float
     *  payload and the check byte are repaired). */
    EccStatus correctWord(float *data, std::size_t w);

    /** Correct words [first, first+count) of @p data (clamped). */
    Report correctRange(float *data, std::size_t first,
                        std::size_t count);

    /** Demand path: correct every word (a full read sweep). */
    Report correctAll(float *data);

    /**
     * Background scrubber: correct the next @p words_per_sweep words
     * after the internal cursor, wrapping at the end of the array.
     * Deterministic: the cursor advances by exactly the swept count.
     */
    Report scrub(float *data, std::size_t words_per_sweep);

  private:
    std::size_t numFloats_ = 0;
    std::vector<std::uint8_t> check_;
    std::size_t cursor_ = 0;
};

} // namespace cq::dram

#endif // CQ_DRAM_ECC_H
