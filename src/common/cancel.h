/**
 * @file
 * Cooperative cancellation token.
 *
 * Stopping a running training leg without tearing its state: a
 * deadline reduces to "please stop at the next safe point". A
 * CancelToken carries that request. The producer (the fault sweep's
 * per-trial deadline) arms a wall-clock deadline, or a caller
 * cancels outright; the consumer (the QuantTrainer step loop) polls
 * cancelled() at step boundaries only. Because the poll sites are
 * step boundaries, a cancelled training run stops exactly where a
 * checkpoint is consistent — cancellation never produces a torn
 * snapshot, and the work done before the stop is bitwise identical
 * to the same prefix of an uncancelled run. Signals do not go
 * through the token: the trainer polls shutdownRequested()
 * (common/signal_flag.h) beside it.
 *
 * Thread safety: all members are lock-free atomics; any thread may
 * cancel, any thread may poll. The first cancel latches, so reports
 * stay stable.
 */

#ifndef CQ_COMMON_CANCEL_H
#define CQ_COMMON_CANCEL_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace cq {

/** Why a token was cancelled (first reason latches). */
enum class CancelReason : int
{
    None = 0,
    /** The token's wall-clock deadline passed. */
    Deadline,
};

inline const char *
cancelReasonName(CancelReason r)
{
    switch (r) {
    case CancelReason::None:
        return "none";
    case CancelReason::Deadline:
        return "deadline";
    }
    return "?";
}

class CancelToken
{
  public:
    CancelToken() = default;
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Request cancellation. The first reason to land wins. */
    void cancel(CancelReason reason)
    {
        int expected = 0;
        reason_.compare_exchange_strong(
            expected, static_cast<int>(reason),
            std::memory_order_relaxed);
    }

    /**
     * Arm a deadline @p ms milliseconds from now on the steady clock
     * (0 disarms). Once now() passes it, cancelled() reports true
     * with reason Deadline.
     */
    void setDeadlineInMs(std::uint64_t ms)
    {
        if (ms == 0) {
            deadlineNs_.store(0, std::memory_order_relaxed);
            return;
        }
        deadlineNs_.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                (std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms))
                    .time_since_epoch())
                .count(),
            std::memory_order_relaxed);
    }

    /**
     * Poll site. Checks the latched reason first, then the deadline
     * (latching Deadline on first observation so the reported reason
     * never flaps).
     */
    bool cancelled() const
    {
        if (reason_.load(std::memory_order_relaxed) != 0)
            return true;
        const std::int64_t d =
            deadlineNs_.load(std::memory_order_relaxed);
        if (d != 0) {
            const std::int64_t now =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now()
                        .time_since_epoch())
                    .count();
            if (now >= d) {
                int expected = 0;
                reason_.compare_exchange_strong(
                    expected,
                    static_cast<int>(CancelReason::Deadline),
                    std::memory_order_relaxed);
                return true;
            }
        }
        return false;
    }

    CancelReason reason() const
    {
        return static_cast<CancelReason>(
            reason_.load(std::memory_order_relaxed));
    }

  private:
    /** CancelReason, or 0 while not cancelled. Mutable: cancelled()
     *  latches a passed deadline from const poll sites. */
    mutable std::atomic<int> reason_{0};
    /** Steady-clock deadline in ns since epoch; 0 = no deadline. */
    std::atomic<std::int64_t> deadlineNs_{0};
};

} // namespace cq

#endif // CQ_COMMON_CANCEL_H
