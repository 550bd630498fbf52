/**
 * @file
 * Implementation of the SEC-DED Hamming(72,64) codec.
 *
 * Layout: the 64 data bits occupy the non-power-of-two Hamming
 * positions 3,5,6,7,9,...,71; the seven Hamming check bits c0..c6 sit
 * at positions 1,2,4,8,16,32,64 and are stored in check-byte bits
 * 0..6; check-byte bit 7 is the overall parity over the data bits and
 * c0..c6. The syndrome (recomputed c XOR stored c) of a single flipped
 * bit equals its Hamming position, and the overall parity separates
 * odd-weight (correctable) from even-weight (double, uncorrectable)
 * error patterns.
 */

#include "dram/ecc.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace cq::dram {

namespace {

/** Hamming position (1..71) of data bit i, and the inverse map. */
struct CodecTables
{
    int posOfData[kEccDataBits];
    /** Data-bit index at Hamming position p, or -1. */
    int dataAtPos[kEccCodedBits];
    /** dataMask[j]: data bits whose Hamming position has bit j set. */
    std::uint64_t dataMask[7];

    CodecTables()
    {
        for (auto &d : dataAtPos)
            d = -1;
        for (auto &m : dataMask)
            m = 0;
        int i = 0;
        for (int pos = 1; pos < static_cast<int>(kEccCodedBits) &&
                          i < static_cast<int>(kEccDataBits);
             ++pos) {
            if ((pos & (pos - 1)) == 0)
                continue; // power of two: check-bit slot
            posOfData[i] = pos;
            dataAtPos[pos] = i;
            for (int j = 0; j < 7; ++j)
                if ((pos >> j) & 1)
                    dataMask[j] |= 1ull << i;
            ++i;
        }
        CQ_ASSERT_MSG(i == static_cast<int>(kEccDataBits),
                      "Hamming(72,64) layout ran out of positions "
                      "at data bit %d",
                      i);
    }
};

const CodecTables &
tables()
{
    static const CodecTables t;
    return t;
}

int
parity64(std::uint64_t x)
{
    return static_cast<int>(__builtin_parityll(x));
}

/** The seven Hamming check bits of @p data. */
std::uint8_t
hammingBits(std::uint64_t data)
{
    const CodecTables &t = tables();
    std::uint8_t c = 0;
    for (int j = 0; j < 7; ++j)
        c |= static_cast<std::uint8_t>(parity64(data & t.dataMask[j]))
             << j;
    return c;
}

} // namespace

std::uint8_t
eccEncodeWord(std::uint64_t data)
{
    std::uint8_t c = hammingBits(data);
    const int overall =
        parity64(data) ^ parity64(static_cast<std::uint64_t>(c));
    c |= static_cast<std::uint8_t>(overall) << 7;
    return c;
}

EccDecode
eccDecodeWord(std::uint64_t data, std::uint8_t check)
{
    const CodecTables &t = tables();
    EccDecode out;
    out.data = data;
    out.check = check;

    const std::uint8_t stored_c = check & 0x7f;
    const std::uint8_t recomputed_c = hammingBits(data);
    const int syndrome = stored_c ^ recomputed_c; // Hamming position
    // Overall parity across data, c0..c6 and the parity bit itself:
    // zero for a clean or even-weight (double) error pattern.
    const int overall =
        parity64(data) ^
        parity64(static_cast<std::uint64_t>(check));

    if (syndrome == 0 && overall == 0) {
        out.status = EccStatus::Ok;
        return out;
    }
    if (overall == 0) {
        // Nonzero syndrome with even overall parity: two flips.
        out.status = EccStatus::DoubleDetected;
        return out;
    }
    // Odd overall parity: exactly one flip (or an undetectable >= 3
    // pattern, outside the model). Locate and repair it.
    out.status = EccStatus::CorrectedSingle;
    if (syndrome == 0) {
        // The overall-parity bit itself flipped.
        out.check = check ^ 0x80;
        out.correctedBit = static_cast<int>(kEccDataBits) + 7;
        return out;
    }
    if ((syndrome & (syndrome - 1)) == 0) {
        // Syndrome is a power of two: a stored check bit flipped.
        int j = 0;
        while ((syndrome >> j) != 1)
            ++j;
        out.check = check ^ static_cast<std::uint8_t>(1u << j);
        out.correctedBit = static_cast<int>(kEccDataBits) + j;
        return out;
    }
    const int data_idx =
        syndrome < static_cast<int>(kEccCodedBits)
            ? t.dataAtPos[syndrome]
            : -1;
    if (data_idx < 0) {
        // A syndrome pointing at no stored bit cannot come from one
        // flip; classify as uncorrectable rather than miscorrect.
        out.status = EccStatus::DoubleDetected;
        return out;
    }
    out.data = data ^ (1ull << data_idx);
    out.correctedBit = data_idx;
    return out;
}

EccProtectedArray::EccProtectedArray(std::size_t num_floats)
    : numFloats_(num_floats), check_((num_floats + 1) / 2, 0)
{
}

namespace {

/** Pack floats 2w, 2w+1 (0-padded past @p n) into one 64-bit word. */
std::uint64_t
packWord(const float *data, std::size_t n, std::size_t w)
{
    std::uint32_t lo = 0, hi = 0;
    const std::size_t i = 2 * w;
    std::memcpy(&lo, &data[i], sizeof(lo));
    if (i + 1 < n)
        std::memcpy(&hi, &data[i + 1], sizeof(hi));
    return static_cast<std::uint64_t>(lo) |
           (static_cast<std::uint64_t>(hi) << 32);
}

void
unpackWord(float *data, std::size_t n, std::size_t w,
           std::uint64_t word)
{
    const std::uint32_t lo = static_cast<std::uint32_t>(word);
    const std::uint32_t hi = static_cast<std::uint32_t>(word >> 32);
    const std::size_t i = 2 * w;
    std::memcpy(&data[i], &lo, sizeof(lo));
    if (i + 1 < n)
        std::memcpy(&data[i + 1], &hi, sizeof(hi));
}

} // namespace

void
EccProtectedArray::encodeAll(const float *data)
{
    for (std::size_t w = 0; w < check_.size(); ++w)
        check_[w] = eccEncodeWord(packWord(data, numFloats_, w));
}

EccStatus
EccProtectedArray::correctWord(float *data, std::size_t w)
{
    CQ_ASSERT_MSG(w < check_.size(),
                  "ECC word %zu out of range (%zu words)", w,
                  check_.size());
    const std::uint64_t word = packWord(data, numFloats_, w);
    const EccDecode dec = eccDecodeWord(word, check_[w]);
    if (dec.status == EccStatus::CorrectedSingle) {
        // Write-back repair of both the payload and the check byte.
        if (dec.data != word)
            unpackWord(data, numFloats_, w, dec.data);
        check_[w] = dec.check;
    }
    return dec.status;
}

EccProtectedArray::Report
EccProtectedArray::correctRange(float *data, std::size_t first,
                                std::size_t count)
{
    Report rep;
    const std::size_t end = std::min(first + count, check_.size());
    for (std::size_t w = first; w < end; ++w) {
        ++rep.scanned;
        switch (correctWord(data, w)) {
          case EccStatus::Ok:
            break;
          case EccStatus::CorrectedSingle:
            ++rep.corrected;
            break;
          case EccStatus::DoubleDetected:
            ++rep.uncorrectable;
            break;
        }
    }
    return rep;
}

EccProtectedArray::Report
EccProtectedArray::correctAll(float *data)
{
    return correctRange(data, 0, check_.size());
}

EccProtectedArray::Report
EccProtectedArray::scrub(float *data, std::size_t words_per_sweep)
{
    Report rep;
    if (check_.empty() || words_per_sweep == 0)
        return rep;
    const std::size_t sweep =
        std::min(words_per_sweep, check_.size());
    for (std::size_t k = 0; k < sweep; ++k) {
        rep.merge(correctRange(data, cursor_, 1));
        cursor_ = (cursor_ + 1) % check_.size();
    }
    return rep;
}

} // namespace cq::dram
