/**
 * @file
 * Implementation of activation layers.
 */

#include "nn/activation.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace cq::nn {

const char *
actKindName(ActKind kind)
{
    switch (kind) {
      case ActKind::ReLU:    return "relu";
      case ActKind::Tanh:    return "tanh";
      case ActKind::Sigmoid: return "sigmoid";
      case ActKind::Gelu:    return "gelu";
    }
    return "?";
}

Activation::Activation(std::string name, ActKind kind)
    : name_(std::move(name)), kind_(kind)
{
}

namespace {

/** GELU's tanh approximation: sqrt(2/pi) and the cubic coefficient. */
constexpr float kGeluC = 0.7978845608f;
constexpr float kGeluA = 0.044715f;

/**
 * @p v when @p keep, else +0, without a branch: the compare result
 * widened to an all-ones or all-zeros mask and ANDed into the bits.
 */
inline float
keepOrZero(float v, bool keep)
{
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) &
                                (0u - static_cast<std::uint32_t>(keep)));
}

} // namespace

Tensor
Activation::forward(const Tensor &input)
{
    Tensor out(input.shape());
    const std::size_t n = input.numel();
    const float *x = input.data();
    float *y = out.data();
    // One switch per call, not one per element.
    switch (kind_) {
      case ActKind::ReLU:
        // x > 0 ? x : +0, for NaN and -0 too.
        for (std::size_t i = 0; i < n; ++i)
            y[i] = keepOrZero(x[i], x[i] > 0.0f);
        break;
      case ActKind::Tanh:
        for (std::size_t i = 0; i < n; ++i)
            y[i] = std::tanh(x[i]);
        break;
      case ActKind::Sigmoid:
        for (std::size_t i = 0; i < n; ++i)
            y[i] = 1.0f / (1.0f + std::exp(-x[i]));
        break;
      case ActKind::Gelu:
        for (std::size_t i = 0; i < n; ++i) {
            const float v = x[i];
            const float inner = kGeluC * (v + kGeluA * v * v * v);
            y[i] = 0.5f * v * (1.0f + std::tanh(inner));
        }
        break;
    }
    // Backward reads x for GELU and y for the rest (ReLU's y > 0
    // exactly when x > 0), so only that tensor is kept. Assigning it
    // reuses the cache's buffer from the previous step.
    if (kind_ == ActKind::Gelu)
        cached_ = input;
    else
        cached_ = out;
    return out;
}

Tensor
Activation::backward(const Tensor &grad_output)
{
    CQ_ASSERT(grad_output.shape() == cached_.shape());
    Tensor grad_in(grad_output.shape());
    const std::size_t n = grad_output.numel();
    const float *dy = grad_output.data();
    const float *c = cached_.data();
    float *dx = grad_in.data();
    switch (kind_) {
      case ActKind::ReLU:
        for (std::size_t i = 0; i < n; ++i)
            dx[i] = keepOrZero(dy[i], c[i] > 0.0f);
        break;
      case ActKind::Tanh:
        for (std::size_t i = 0; i < n; ++i)
            dx[i] = dy[i] * (1.0f - c[i] * c[i]);
        break;
      case ActKind::Sigmoid:
        for (std::size_t i = 0; i < n; ++i)
            dx[i] = dy[i] * c[i] * (1.0f - c[i]);
        break;
      case ActKind::Gelu:
        for (std::size_t i = 0; i < n; ++i) {
            const float v = c[i];
            const float x3 = kGeluA * v * v * v;
            const float t = std::tanh(kGeluC * (v + x3));
            const float dt =
                (1.0f - t * t) * kGeluC * (1.0f + 3.0f * kGeluA * v * v);
            dx[i] = dy[i] * (0.5f * (1.0f + t) + 0.5f * v * dt);
        }
        break;
    }
    return grad_in;
}

} // namespace cq::nn
