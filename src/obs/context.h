/**
 * @file
 * Cross-layer trace context: thread-local attribution labels (chipId,
 * step) that every span and telemetry record picks up implicitly, so a
 * Perfetto trace of an N-chip run can answer "which chip did this?".
 *
 * A context is a small integer (0 = no context, else chipId + 1), so
 * the hot tracing path stores 8 extra bytes per span instead of
 * strings. `parallelFor` transfers the caller's frame (ctxId + step)
 * to pool workers so `pool.chunk` spans stay attributed.
 *
 * Like the rest of src/obs, this is observation-only state: scopes
 * never feed back into training math, so the bitwise obs-on/off
 * invariant is unaffected.
 */
#pragma once

#include <cstdint>

namespace cq::obs {

namespace detail {
extern thread_local std::uint32_t tlsCtxId;
extern thread_local std::uint32_t tlsStep;
} // namespace detail

/** Id of the calling thread's context: chipId + 1; 0 = none. */
inline std::uint32_t
currentContextId()
{
    return detail::tlsCtxId;
}

/** Chip index of a context id; -1 for 0 ("not chip work"). */
inline int
chipOfContext(std::uint32_t ctxId)
{
    return static_cast<int>(ctxId) - 1;
}

/** The calling thread's current training step (0 before any step). */
inline std::uint32_t
currentObsStep()
{
    return detail::tlsStep;
}

/** Set the calling thread's step label (picked up by future spans). */
inline void
setObsStep(std::uint64_t step)
{
    detail::tlsStep = static_cast<std::uint32_t>(step);
}

/** Caller's (ctxId, step) packed for hand-off to another thread. */
std::uint64_t currentObsFrame();

/** RAII: adopt a packed frame (pool workers running caller chunks). */
class ObsFrameScope {
  public:
    explicit ObsFrameScope(std::uint64_t frame);
    ~ObsFrameScope();
    ObsFrameScope(const ObsFrameScope &) = delete;
    ObsFrameScope &operator=(const ObsFrameScope &) = delete;

  private:
    std::uint32_t prevCtx_;
    std::uint32_t prevStep_;
};

/**
 * RAII attribution scope: labels everything on this thread with a
 * chipId (used per chip inside dist_trainer / the collective). The
 * step label is left alone.
 */
class ObsContextScope {
  public:
    explicit ObsContextScope(int chipId);
    ~ObsContextScope();
    ObsContextScope(const ObsContextScope &) = delete;
    ObsContextScope &operator=(const ObsContextScope &) = delete;

  private:
    std::uint32_t prevCtx_;
};

} // namespace cq::obs
