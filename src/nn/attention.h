/**
 * @file
 * Multi-head self-attention and a Transformer encoder block.
 */

#ifndef CQ_NN_ATTENTION_H
#define CQ_NN_ATTENTION_H

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/layernorm.h"
#include "nn/linear.h"

namespace cq::nn {

/**
 * Sinusoidal positional encoding added to (B*T, D) rows (position =
 * row index mod T). Without it, self-attention is permutation
 * equivariant and cannot learn order-dependent tasks.
 */
class PositionalEncoding : public Layer
{
  public:
    PositionalEncoding(std::string name, std::size_t seq_len,
                       std::size_t model_dim, float scale = 1.0f);

    const std::string &name() const override { return name_; }
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_output) override;

  private:
    std::string name_;
    std::size_t seqLen_;
    Tensor table_; ///< (T, D) encodings
};

/**
 * Multi-head self-attention over an input of shape (B*T, D), where the
 * sequence structure (B sequences of length T) is fixed at
 * construction. Q/K/V/output projections are Linear layers; attention
 * itself is the scaled dot-product with row softmax per head, and its
 * six per-head products (Q K^T, attn V and the four of backward) run
 * on the same GEMMs as every other layer.
 */
class MultiHeadSelfAttention : public Layer
{
  public:
    MultiHeadSelfAttention(std::string name, std::size_t batch,
                           std::size_t seq_len, std::size_t model_dim,
                           std::size_t num_heads, Rng &rng);

    const std::string &name() const override { return name_; }
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_output) override;
    std::vector<Param *> params() override;

  private:
    std::string name_;
    std::size_t batch_;
    std::size_t seqLen_;
    std::size_t modelDim_;
    std::size_t numHeads_;
    std::size_t headDim_;

    Linear projQ_;
    Linear projK_;
    Linear projV_;
    Linear projOut_;

    /** The (T, D/H) block of head @p hh of sequence @p b in @p x. */
    Tensor headBlock(const Tensor &x, std::size_t b,
                     std::size_t hh) const;
    /** Write @p block back as head @p hh of sequence @p b of @p x. */
    void putHeadBlock(Tensor &x, std::size_t b, std::size_t hh,
                      const Tensor &block) const;

    // Caches for backward.
    Tensor cachedQ_, cachedK_, cachedV_;   ///< (B*T, D)
    /** Softmax rows, (T, T) per (batch, head) in b * H + h order. */
    std::vector<Tensor> cachedAttn_;
};

/**
 * One pre-norm Transformer encoder block:
 *   x = x + MHSA(LN(x));  x = x + FFN(LN(x))
 * with FFN = Linear(D, F) -> GELU -> Linear(F, D). Input (B*T, D).
 */
class TransformerBlock : public Layer
{
  public:
    TransformerBlock(std::string name, std::size_t batch,
                     std::size_t seq_len, std::size_t model_dim,
                     std::size_t num_heads, std::size_t ffn_dim,
                     Rng &rng);

    const std::string &name() const override { return name_; }
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_output) override;
    std::vector<Param *> params() override;

  private:
    std::string name_;
    LayerNorm norm1_;
    MultiHeadSelfAttention attn_;
    LayerNorm norm2_;
    Linear ffn1_;
    Linear ffn2_;
    LayerPtr gelu_;
};

} // namespace cq::nn

#endif // CQ_NN_ATTENTION_H
