/**
 * @file
 * Implementation of the SQU timing model.
 */

#include "arch/squ.h"

#include <algorithm>

#include "common/logging.h"

namespace cq::arch {

Squ::Squ(const CambriconQConfig &config)
    : statRate_(config.squStatBytesPerCycle),
      quantRate_(config.squQuantBytesPerCycle)
{
    CQ_ASSERT(statRate_ > 0 && quantRate_ > 0);
}

Tick
Squ::streamCycles(Bytes bytes, unsigned ways) const
{
    CQ_ASSERT(ways >= 1);
    if (bytes == 0)
        return 0;
    const double rate = bytesPerCycle(ways);
    // One block of fill before the first quantized output appears
    // (statistic must close over block 0 before its quantization).
    const double fill =
        static_cast<double>(std::min<Bytes>(bytes, kSquBufBytes)) /
        static_cast<double>(statRate_);
    return static_cast<Tick>(static_cast<double>(bytes) / rate + fill) +
           1;
}

double
Squ::bytesPerCycle(unsigned ways) const
{
    // Double buffering overlaps the statistic pass of block i+1 with
    // the quantization passes of block i; throughput is the minimum
    // of the stage rates.
    const double stat = static_cast<double>(statRate_);
    const double quant =
        static_cast<double>(quantRate_) / static_cast<double>(ways);
    return std::min(stat, quant);
}

} // namespace cq::arch
