/**
 * @file
 * Statistic Quantization Unit model (paper Sec. IV-B1, Fig. 8).
 *
 * The SQU owns two 4 KB buffers operated in a double-buffering manner:
 * while block i+1 streams in (and through the Statistic Unit), block i
 * -- whose statistic is already closed -- is quantized by the Quant
 * Unit, possibly several times for E2BQM candidates, and the Arbiter
 * picks the winner. The timing model exposes the streaming latency of
 * a transfer through the SQU; the functional behaviour is the quant
 * library itself (ldqQuantize / e2bqmQuantize), which tests compose
 * with this class.
 */

#ifndef CQ_ARCH_SQU_H
#define CQ_ARCH_SQU_H

#include "arch/config.h"
#include "common/types.h"

namespace cq::arch {

/** Size of each of the two SQU buffers: the block (slice) the
 *  statistics close over. */
inline constexpr Bytes kSquBufBytes = 4096;

/** Timing model of one SQU instance. */
class Squ
{
  public:
    explicit Squ(const CambriconQConfig &config);

    /**
     * Latency in cycles to stream @p bytes of (unquantized-side) data
     * through statistic + @p ways-way quantization with double
     * buffering: the steady-state rate is the slower of the two
     * stages, plus one block of pipeline fill.
     */
    Tick streamCycles(Bytes bytes, unsigned ways) const;

    /**
     * Steady-state throughput in bytes/cycle for @p ways candidates
     * (what the DMA path is limited by when quantizing on the fly).
     */
    double bytesPerCycle(unsigned ways) const;

  private:
    unsigned statRate_;
    unsigned quantRate_;
};

} // namespace cq::arch

#endif // CQ_ARCH_SQU_H
