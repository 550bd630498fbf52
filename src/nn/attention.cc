/**
 * @file
 * Implementation of multi-head self-attention and the Transformer
 * encoder block.
 */

#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/activation.h"
#include "nn/softmax.h"
#include "tensor/tensor_ops.h"

namespace cq::nn {

PositionalEncoding::PositionalEncoding(std::string name,
                                       std::size_t seq_len,
                                       std::size_t model_dim,
                                       float scale)
    : name_(std::move(name)),
      seqLen_(seq_len),
      table_({seq_len, model_dim})
{
    for (std::size_t t = 0; t < seq_len; ++t) {
        for (std::size_t d = 0; d < model_dim; ++d) {
            const double rate = std::pow(
                10000.0, -static_cast<double>(d / 2 * 2) /
                             static_cast<double>(model_dim));
            const double angle = static_cast<double>(t) * rate;
            table_.at2(t, d) = scale * static_cast<float>(
                                           d % 2 ? std::cos(angle)
                                                 : std::sin(angle));
        }
    }
}

Tensor
PositionalEncoding::forward(const Tensor &input)
{
    CQ_ASSERT(input.ndim() == 2 && input.dim(1) == table_.dim(1) &&
              input.dim(0) % seqLen_ == 0);
    Tensor out = input;
    for (std::size_t r = 0; r < input.dim(0); ++r) {
        const std::size_t t = r % seqLen_;
        for (std::size_t d = 0; d < input.dim(1); ++d)
            out.at2(r, d) += table_.at2(t, d);
    }
    return out;
}

Tensor
PositionalEncoding::backward(const Tensor &grad_output)
{
    return grad_output; // additive constant: identity gradient
}

MultiHeadSelfAttention::MultiHeadSelfAttention(
    std::string name, std::size_t batch, std::size_t seq_len,
    std::size_t model_dim, std::size_t num_heads, Rng &rng)
    : name_(std::move(name)),
      batch_(batch),
      seqLen_(seq_len),
      modelDim_(model_dim),
      numHeads_(num_heads),
      headDim_(model_dim / num_heads),
      projQ_(name_ + ".q", model_dim, model_dim, rng),
      projK_(name_ + ".k", model_dim, model_dim, rng),
      projV_(name_ + ".v", model_dim, model_dim, rng),
      projOut_(name_ + ".out", model_dim, model_dim, rng)
{
    CQ_ASSERT_MSG(model_dim % num_heads == 0,
                  "model dim %zu not divisible by heads %zu",
                  model_dim, num_heads);
}

Tensor
MultiHeadSelfAttention::forward(const Tensor &input)
{
    CQ_ASSERT(input.ndim() == 2 && input.dim(0) == batch_ * seqLen_ &&
              input.dim(1) == modelDim_);

    cachedQ_ = projQ_.forward(input);
    cachedK_ = projK_.forward(input);
    cachedV_ = projV_.forward(input);

    const float inv_sqrt_d =
        1.0f / std::sqrt(static_cast<float>(headDim_));

    cachedAttn_.clear();
    Tensor context({batch_ * seqLen_, modelDim_});

    // Per (batch, head): scores = Q K^T / sqrt(d); softmax rows;
    // context = attn V.
    for (std::size_t b = 0; b < batch_; ++b) {
        for (std::size_t hh = 0; hh < numHeads_; ++hh) {
            const Tensor q = headBlock(cachedQ_, b, hh);
            const Tensor k = headBlock(cachedK_, b, hh);
            const Tensor v = headBlock(cachedV_, b, hh);
            cachedAttn_.push_back(
                softmax(scale(matmulTransB(q, k), inv_sqrt_d)));
            putHeadBlock(context, b, hh, matmul(cachedAttn_.back(), v));
        }
    }
    return projOut_.forward(context);
}

Tensor
MultiHeadSelfAttention::backward(const Tensor &grad_output)
{
    // Through the output projection first.
    const Tensor dcontext = projOut_.backward(grad_output);

    Tensor dq(cachedQ_.shape());
    Tensor dk(cachedK_.shape());
    Tensor dv(cachedV_.shape());
    const float inv_sqrt_d =
        1.0f / std::sqrt(static_cast<float>(headDim_));

    for (std::size_t b = 0; b < batch_; ++b) {
        for (std::size_t hh = 0; hh < numHeads_; ++hh) {
            const Tensor q = headBlock(cachedQ_, b, hh);
            const Tensor k = headBlock(cachedK_, b, hh);
            const Tensor v = headBlock(cachedV_, b, hh);
            const Tensor dctx = headBlock(dcontext, b, hh);
            const Tensor &attn = cachedAttn_[b * numHeads_ + hh];
            // dAttn = dcontext V^T ; dV = attn^T dcontext.
            const Tensor dattn = matmulTransB(dctx, v);
            putHeadBlock(dv, b, hh, matmulTransA(attn, dctx));
            // Softmax backward per row: ds = attn * (dattn - sum_j
            // dattn*attn).
            Tensor dscores({seqLen_, seqLen_});
            for (std::size_t i = 0; i < seqLen_; ++i) {
                const float *arow = attn.data() + i * seqLen_;
                const float *drow = dattn.data() + i * seqLen_;
                double row_dot = 0.0;
                for (std::size_t j = 0; j < seqLen_; ++j)
                    row_dot += static_cast<double>(arow[j]) * drow[j];
                for (std::size_t j = 0; j < seqLen_; ++j)
                    dscores[i * seqLen_ + j] = static_cast<float>(
                        arow[j] * (drow[j] - row_dot));
            }
            // dQ = dscores K / sqrt(d) ; dK = dscores^T Q / sqrt(d).
            putHeadBlock(dq, b, hh,
                         scale(matmul(dscores, k), inv_sqrt_d));
            putHeadBlock(dk, b, hh,
                         scale(matmulTransA(dscores, q), inv_sqrt_d));
        }
    }

    // Back through the input projections; input gradient sums the
    // three paths.
    Tensor dx = projQ_.backward(dq);
    accumulate(dx, projK_.backward(dk));
    accumulate(dx, projV_.backward(dv));
    return dx;
}

Tensor
MultiHeadSelfAttention::headBlock(const Tensor &x, std::size_t b,
                                  std::size_t hh) const
{
    Tensor block({seqLen_, headDim_});
    for (std::size_t t = 0; t < seqLen_; ++t)
        std::copy_n(x.data() + (b * seqLen_ + t) * modelDim_ +
                        hh * headDim_,
                    headDim_, block.data() + t * headDim_);
    return block;
}

void
MultiHeadSelfAttention::putHeadBlock(Tensor &x, std::size_t b,
                                     std::size_t hh,
                                     const Tensor &block) const
{
    for (std::size_t t = 0; t < seqLen_; ++t)
        std::copy_n(block.data() + t * headDim_, headDim_,
                    x.data() + (b * seqLen_ + t) * modelDim_ +
                        hh * headDim_);
}

std::vector<Param *>
MultiHeadSelfAttention::params()
{
    std::vector<Param *> out;
    for (Layer *l : {static_cast<Layer *>(&projQ_),
                     static_cast<Layer *>(&projK_),
                     static_cast<Layer *>(&projV_),
                     static_cast<Layer *>(&projOut_)}) {
        for (Param *p : l->params())
            out.push_back(p);
    }
    return out;
}

TransformerBlock::TransformerBlock(std::string name, std::size_t batch,
                                   std::size_t seq_len,
                                   std::size_t model_dim,
                                   std::size_t num_heads,
                                   std::size_t ffn_dim, Rng &rng)
    : name_(std::move(name)),
      norm1_(name_ + ".ln1", model_dim),
      attn_(name_ + ".attn", batch, seq_len, model_dim, num_heads, rng),
      norm2_(name_ + ".ln2", model_dim),
      ffn1_(name_ + ".ffn1", model_dim, ffn_dim, rng),
      ffn2_(name_ + ".ffn2", ffn_dim, model_dim, rng),
      gelu_(std::make_unique<Activation>(name_ + ".gelu", ActKind::Gelu))
{
}

Tensor
TransformerBlock::forward(const Tensor &input)
{
    // x1 = x + attn(ln1(x))
    Tensor x1 = input;
    accumulate(x1, attn_.forward(norm1_.forward(input)));
    // x2 = x1 + ffn2(gelu(ffn1(ln2(x1))))
    Tensor x2 = x1;
    accumulate(x2, ffn2_.forward(
                       gelu_->forward(ffn1_.forward(norm2_.forward(x1)))));
    return x2;
}

Tensor
TransformerBlock::backward(const Tensor &grad_output)
{
    // Residual 2: dx1 = dy + ln2.backward(ffn path backward(dy)).
    Tensor dffn = ffn2_.backward(grad_output);
    dffn = gelu_->backward(dffn);
    dffn = ffn1_.backward(dffn);
    Tensor dx1 = grad_output;
    accumulate(dx1, norm2_.backward(dffn));
    // Residual 1: dx = dx1 + ln1.backward(attn.backward(dx1)).
    Tensor dattn = attn_.backward(dx1);
    Tensor dx = dx1;
    accumulate(dx, norm1_.backward(dattn));
    return dx;
}

std::vector<Param *>
TransformerBlock::params()
{
    std::vector<Param *> out;
    for (Param *p : norm1_.params())
        out.push_back(p);
    for (Param *p : attn_.params())
        out.push_back(p);
    for (Param *p : norm2_.params())
        out.push_back(p);
    for (Param *p : ffn1_.params())
        out.push_back(p);
    for (Param *p : ffn2_.params())
        out.push_back(p);
    return out;
}

} // namespace cq::nn
