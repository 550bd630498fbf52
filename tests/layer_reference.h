/**
 * @file
 * Test oracle for the per-element layers around the trainer's GEMMs:
 * the plain loops they replaced.
 *
 * Activation switches on its kind once per call and masks ReLU's bits
 * instead of branching, keeping only the tensor its backward reads;
 * MaxPool2d and GlobalAvgPool index raw pointers. Each stays bitwise
 * equal to the straightforward formulation kept here: a switch per
 * element, and bounds-checked at4/at2 reads and writes. The
 * differential tests in test_nn.cc (LayerDiff.*) compare them.
 * Test-only and deliberately unoptimized, like tensor_reference.h.
 */

#ifndef CQ_TESTS_LAYER_REFERENCE_H
#define CQ_TESTS_LAYER_REFERENCE_H

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "nn/activation.h"
#include "tensor/tensor.h"

namespace cq::test {

/** act(x) for one element. */
inline float
referenceActForward(nn::ActKind kind, float x)
{
    switch (kind) {
      case nn::ActKind::ReLU:
        return x > 0.0f ? x : 0.0f;
      case nn::ActKind::Tanh:
        return std::tanh(x);
      case nn::ActKind::Sigmoid:
        return 1.0f / (1.0f + std::exp(-x));
      case nn::ActKind::Gelu: {
        // tanh approximation of GELU
        const float c = 0.7978845608f; // sqrt(2/pi)
        const float inner = c * (x + 0.044715f * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(inner));
      }
    }
    return x;
}

/** dL/dx for one element from its input x, output y and dL/dy. */
inline float
referenceActBackward(nn::ActKind kind, float x, float y, float dy)
{
    switch (kind) {
      case nn::ActKind::ReLU:
        return x > 0.0f ? dy : 0.0f;
      case nn::ActKind::Tanh:
        return dy * (1.0f - y * y);
      case nn::ActKind::Sigmoid:
        return dy * y * (1.0f - y);
      case nn::ActKind::Gelu: {
        const float c = 0.7978845608f;
        const float x3 = 0.044715f * x * x * x;
        const float t = std::tanh(c * (x + x3));
        const float dt = (1.0f - t * t) *
                         c * (1.0f + 3.0f * 0.044715f * x * x);
        return dy * (0.5f * (1.0f + t) + 0.5f * x * dt);
      }
    }
    return dy;
}

/** Activation forward: the kind switched on per element. */
inline Tensor
referenceActivation(nn::ActKind kind, const Tensor &x)
{
    Tensor y(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i)
        y[i] = referenceActForward(kind, x[i]);
    return y;
}

/** Activation backward from the cached input @p x and output @p y. */
inline Tensor
referenceActivationBackward(nn::ActKind kind, const Tensor &x,
                            const Tensor &y, const Tensor &dy)
{
    Tensor dx(dy.shape());
    for (std::size_t i = 0; i < dy.numel(); ++i)
        dx[i] = referenceActBackward(kind, x[i], y[i], dy[i]);
    return dx;
}

/** MaxPool2d's forward output and, per output, its input's index. */
struct ReferenceMaxPool
{
    Tensor out;
    std::vector<std::size_t> argmax;
};

/**
 * Max pooling through at4: taps in (ky, kx) order, the first maximum
 * wins, and a window with nothing above -inf (all NaN or -inf)
 * outputs -inf with its own first tap as the argmax.
 */
inline ReferenceMaxPool
referenceMaxPool(const Tensor &x, std::size_t window, std::size_t stride)
{
    const std::size_t n = x.dim(0), c = x.dim(1);
    const std::size_t h = x.dim(2), w = x.dim(3);
    const std::size_t p = (h - window) / stride + 1;
    const std::size_t q = (w - window) / stride + 1;
    ReferenceMaxPool r{Tensor({n, c, p, q}), {}};
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t ic = 0; ic < c; ++ic)
            for (std::size_t oy = 0; oy < p; ++oy)
                for (std::size_t ox = 0; ox < q; ++ox) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::size_t best_idx =
                        ((in * c + ic) * h + oy * stride) * w + ox * stride;
                    for (std::size_t ky = 0; ky < window; ++ky)
                        for (std::size_t kx = 0; kx < window; ++kx) {
                            const std::size_t iy = oy * stride + ky;
                            const std::size_t ix = ox * stride + kx;
                            const float v = x.at4(in, ic, iy, ix);
                            if (v > best) {
                                best = v;
                                best_idx =
                                    ((in * c + ic) * h + iy) * w + ix;
                            }
                        }
                    r.out.at4(in, ic, oy, ox) = best;
                    r.argmax.push_back(best_idx);
                }
    return r;
}

/** MaxPool2d backward: each output's gradient added at its argmax. */
inline Tensor
referenceMaxPoolBackward(const ReferenceMaxPool &pool,
                         const Shape &inputShape, const Tensor &dy)
{
    Tensor dx(inputShape);
    for (std::size_t i = 0; i < dy.numel(); ++i)
        dx[pool.argmax[i]] += dy[i];
    return dx;
}

/** Global average pooling: a double sum per plane through at4. */
inline Tensor
referenceGlobalAvgPool(const Tensor &x)
{
    const std::size_t n = x.dim(0), c = x.dim(1);
    const std::size_t h = x.dim(2), w = x.dim(3);
    Tensor out({n, c});
    const float inv = 1.0f / static_cast<float>(h * w);
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t ic = 0; ic < c; ++ic) {
            double s = 0.0;
            for (std::size_t iy = 0; iy < h; ++iy)
                for (std::size_t ix = 0; ix < w; ++ix)
                    s += x.at4(in, ic, iy, ix);
            out.at2(in, ic) = static_cast<float>(s) * inv;
        }
    return out;
}

/** GlobalAvgPool backward: dy / (h * w) spread over each plane. */
inline Tensor
referenceGlobalAvgPoolBackward(const Shape &inputShape, const Tensor &dy)
{
    const std::size_t n = inputShape[0], c = inputShape[1];
    const std::size_t h = inputShape[2], w = inputShape[3];
    Tensor dx(inputShape);
    const float inv = 1.0f / static_cast<float>(h * w);
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t ic = 0; ic < c; ++ic) {
            const float g = dy.at2(in, ic) * inv;
            for (std::size_t iy = 0; iy < h; ++iy)
                for (std::size_t ix = 0; ix < w; ++ix)
                    dx.at4(in, ic, iy, ix) = g;
        }
    return dx;
}

} // namespace cq::test

#endif // CQ_TESTS_LAYER_REFERENCE_H
