/**
 * @file
 * Implementation of the convolution layer.
 */

#include "nn/conv2d.h"

#include <cmath>

#include "common/logging.h"

namespace cq::nn {

Conv2d::Conv2d(std::string name, Conv2dGeometry geometry, Rng &rng,
               bool bias)
    : name_(std::move(name)),
      geom_(geometry),
      hasBias_(bias),
      weight_(name_ + ".weight",
              {geometry.inChannels * geometry.kernelH * geometry.kernelW,
               geometry.outChannels}),
      bias_(name_ + ".bias", {geometry.outChannels})
{
    const std::size_t fan_in =
        geom_.inChannels * geom_.kernelH * geom_.kernelW;
    const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
    weight_.value.fillUniform(rng, -bound, bound);
}

Tensor
Conv2d::forward(const Tensor &input)
{
    CQ_ASSERT_MSG(input.ndim() == 4 && input.dim(1) == geom_.inChannels,
                  "%s: bad input shape %s", name_.c_str(),
                  shapeToString(input.shape()).c_str());
    const std::size_t n = input.dim(0);
    const std::size_t p = geom_.outH(input.dim(2));
    const std::size_t q = geom_.outW(input.dim(3));

    cachedInputShape_ = input.shape();
    cachedCols_ = im2col(input, geom_);

    // (N*P*Q, CRS) x (CRS, K) -> (N*P*Q, K)
    const Tensor flat = matmul(cachedCols_, weight_.value);

    // Rearrange (N*P*Q, K) -> (N, K, P, Q), adding the bias on the way.
    const std::size_t kout = geom_.outChannels;
    const std::size_t pq = p * q;
    Tensor out({n, kout, p, q});
    const float *src = flat.data();
    const float *bias = bias_.value.data();
    float *dst = out.data();
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t pos = 0; pos < pq; ++pos) {
            const float *row = src + (in * pq + pos) * kout;
            float *col = dst + in * kout * pq + pos;
            for (std::size_t k = 0; k < kout; ++k)
                col[k * pq] = hasBias_ ? row[k] + bias[k] : row[k];
        }
    return out;
}

Tensor
Conv2d::backward(const Tensor &grad_output)
{
    CQ_ASSERT(grad_output.ndim() == 4);
    CQ_ASSERT(cachedCols_.numel() > 0);
    const std::size_t n = grad_output.dim(0);
    const std::size_t k = grad_output.dim(1);
    const std::size_t p = grad_output.dim(2);
    const std::size_t q = grad_output.dim(3);
    CQ_ASSERT(k == geom_.outChannels);

    // Flatten dY to (N*P*Q, K) matching the forward layout; the bias
    // gradient sums dY over rows in ascending row order.
    const std::size_t pq = p * q;
    Tensor flat({n * pq, k});
    const float *src = grad_output.data();
    float *dst = flat.data();
    float *dbias = bias_.grad.data();
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t pos = 0; pos < pq; ++pos) {
            const float *col = src + in * k * pq + pos;
            float *row = dst + (in * pq + pos) * k;
            for (std::size_t kk = 0; kk < k; ++kk) {
                row[kk] = col[kk * pq];
                if (hasBias_)
                    dbias[kk] += row[kk];
            }
        }

    // dW = cols^T * dY.
    accumulate(weight_.grad, matmulTransA(cachedCols_, flat));

    // dX = col2im(dY * W^T).
    Tensor dcols = matmulTransB(flat, weight_.value);
    return col2im(dcols, cachedInputShape_, geom_);
}

std::vector<Param *>
Conv2d::params()
{
    if (hasBias_)
        return {&weight_, &bias_};
    return {&weight_};
}

} // namespace cq::nn
