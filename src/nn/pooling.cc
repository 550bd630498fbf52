/**
 * @file
 * Implementation of pooling layers.
 */

#include "nn/pooling.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cq::nn {

MaxPool2d::MaxPool2d(std::string name, std::size_t window,
                     std::size_t stride)
    : name_(std::move(name)), window_(window), stride_(stride)
{
    CQ_ASSERT(window_ > 0 && stride_ > 0);
}

Tensor
MaxPool2d::forward(const Tensor &input)
{
    CQ_ASSERT(input.ndim() == 4);
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    CQ_ASSERT(h >= window_ && w >= window_);
    const std::size_t p = (h - window_) / stride_ + 1;
    const std::size_t q = (w - window_) / stride_ + 1;

    cachedInputShape_ = input.shape();
    Tensor out({n, c, p, q});
    argmax_.resize(out.numel());

    const float *src = input.data();
    float *dst = out.data();
    std::size_t oi = 0;
    for (std::size_t plane = 0; plane < n * c; ++plane) {
        const std::size_t base = plane * h * w;
        const float *img = src + base;
        for (std::size_t oy = 0; oy < p; ++oy)
            for (std::size_t ox = 0; ox < q; ++ox, ++oi) {
                // Taps in (ky, kx) order, first maximum wins. A window
                // with nothing above -inf (all NaN or -inf) outputs
                // -inf and routes its gradient to its own first tap.
                const std::size_t first = oy * stride_ * w + ox * stride_;
                float best = -std::numeric_limits<float>::infinity();
                std::size_t best_off = first;
                for (std::size_t ky = 0; ky < window_; ++ky) {
                    const std::size_t line = first + ky * w;
                    for (std::size_t kx = 0; kx < window_; ++kx) {
                        const float v = img[line + kx];
                        if (v > best) {
                            best = v;
                            best_off = line + kx;
                        }
                    }
                }
                dst[oi] = best;
                argmax_[oi] = base + best_off;
            }
    }
    return out;
}

Tensor
MaxPool2d::backward(const Tensor &grad_output)
{
    CQ_ASSERT(grad_output.numel() == argmax_.size());
    Tensor grad_in(cachedInputShape_);
    const float *dy = grad_output.data();
    float *dx = grad_in.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i)
        dx[argmax_[i]] += dy[i];
    return grad_in;
}

GlobalAvgPool::GlobalAvgPool(std::string name) : name_(std::move(name)) {}

Tensor
GlobalAvgPool::forward(const Tensor &input)
{
    CQ_ASSERT(input.ndim() == 4);
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    cachedInputShape_ = input.shape();
    Tensor out({n, c});
    const float inv = 1.0f / static_cast<float>(h * w);
    const float *src = input.data();
    float *dst = out.data();
    for (std::size_t plane = 0; plane < n * c; ++plane) {
        const float *img = src + plane * h * w;
        double s = 0.0;
        for (std::size_t i = 0; i < h * w; ++i)
            s += img[i];
        dst[plane] = static_cast<float>(s) * inv;
    }
    return out;
}

Tensor
GlobalAvgPool::backward(const Tensor &grad_output)
{
    const std::size_t n = cachedInputShape_[0], c = cachedInputShape_[1];
    const std::size_t h = cachedInputShape_[2], w = cachedInputShape_[3];
    CQ_ASSERT(grad_output.ndim() == 2 && grad_output.dim(0) == n &&
              grad_output.dim(1) == c);
    Tensor grad_in(cachedInputShape_);
    const float inv = 1.0f / static_cast<float>(h * w);
    const float *dy = grad_output.data();
    float *dx = grad_in.data();
    for (std::size_t plane = 0; plane < n * c; ++plane)
        std::fill_n(dx + plane * h * w, h * w, dy[plane] * inv);
    return grad_in;
}

MergeLeading::MergeLeading(std::string name) : name_(std::move(name)) {}

Tensor
MergeLeading::forward(const Tensor &input)
{
    CQ_ASSERT(input.ndim() >= 2);
    cachedInputShape_ = input.shape();
    const std::size_t last = input.dim(input.ndim() - 1);
    Tensor out = input;
    out.reshape({input.numel() / last, last});
    return out;
}

Tensor
MergeLeading::backward(const Tensor &grad_output)
{
    Tensor grad_in = grad_output;
    grad_in.reshape(cachedInputShape_);
    return grad_in;
}

Flatten::Flatten(std::string name) : name_(std::move(name)) {}

Tensor
Flatten::forward(const Tensor &input)
{
    CQ_ASSERT(input.ndim() >= 2);
    cachedInputShape_ = input.shape();
    Tensor out = input;
    out.reshape({input.dim(0), input.numel() / input.dim(0)});
    return out;
}

Tensor
Flatten::backward(const Tensor &grad_output)
{
    Tensor grad_in = grad_output;
    grad_in.reshape(cachedInputShape_);
    return grad_in;
}

} // namespace cq::nn
