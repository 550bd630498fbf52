#include "obs/context.h"

namespace cq::obs {

namespace detail {
thread_local std::uint32_t tlsCtxId = 0;
thread_local std::uint32_t tlsStep = 0;
} // namespace detail

std::uint64_t
currentObsFrame()
{
    return (static_cast<std::uint64_t>(detail::tlsCtxId) << 32) |
           detail::tlsStep;
}

ObsFrameScope::ObsFrameScope(std::uint64_t frame)
    : prevCtx_(detail::tlsCtxId), prevStep_(detail::tlsStep)
{
    detail::tlsCtxId = static_cast<std::uint32_t>(frame >> 32);
    detail::tlsStep = static_cast<std::uint32_t>(frame & 0xffffffffu);
}

ObsFrameScope::~ObsFrameScope()
{
    detail::tlsCtxId = prevCtx_;
    detail::tlsStep = prevStep_;
}

ObsContextScope::ObsContextScope(int chipId)
    : prevCtx_(detail::tlsCtxId)
{
    detail::tlsCtxId = static_cast<std::uint32_t>(chipId + 1);
}

ObsContextScope::~ObsContextScope()
{
    detail::tlsCtxId = prevCtx_;
}

} // namespace cq::obs
