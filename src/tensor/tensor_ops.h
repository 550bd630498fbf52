/**
 * @file
 * Free-function operations on tensors: BLAS-like kernels, convolution
 * lowering helpers and reductions used by the NN framework and the
 * accelerator functional model.
 */

#ifndef CQ_TENSOR_TENSOR_OPS_H
#define CQ_TENSOR_TENSOR_OPS_H

#include <cstddef>

#include "tensor/tensor.h"

namespace cq {

/** c = a + b (elementwise; shapes must match). */
Tensor add(const Tensor &a, const Tensor &b);

/** c = a - b (elementwise; shapes must match). */
Tensor sub(const Tensor &a, const Tensor &b);

/** c = a * b (elementwise; shapes must match). */
Tensor mul(const Tensor &a, const Tensor &b);

/** c = a * s (scalar multiply). */
Tensor scale(const Tensor &a, float s);

/** a += b * s (axpy-style in-place accumulate). */
void accumulate(Tensor &a, const Tensor &b, float s = 1.0f);

/**
 * Matrix multiply: (m x k) * (k x n) -> (m x n); correctness reference
 * for the accelerator's MM instruction. Each output is a float sum
 * that starts at +0 and adds a[i][kk] * b[kk][j] in ascending kk,
 * skipping every term whose a[i][kk] is zero (+0 or -0), so a zero in
 * a never meets an Inf or NaN in b. Bitwise identical at any thread
 * count; inside an abft::AbftScope the product is checksum-verified.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * Matrix multiply with the left operand transposed: a^T * b for a
 * (k x m). Same kernel and numerics as matmul: float sums in
 * ascending k, terms with a zero element of a skipped.
 */
Tensor matmulTransA(const Tensor &a, const Tensor &b);

/**
 * Matrix multiply with the right operand transposed: a * b^T for b
 * (n x k), bitwise equal to matmul(a, transpose(b)) outside an ABFT
 * scope: the same kernel and numerics, with b packed transposed
 * first. An abft::AbftScope does not reroute it.
 */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

/** 2-d transpose. */
Tensor transpose(const Tensor &a);

/**
 * Parameters of a 2-d convolution (square stride/pad per axis).
 * Input (N, C, H, W), kernel (K, C, R, S), output (N, K, P, Q).
 */
struct Conv2dGeometry
{
    std::size_t inChannels;   ///< C
    std::size_t outChannels;  ///< K
    std::size_t kernelH;      ///< R
    std::size_t kernelW;      ///< S
    std::size_t stride;
    std::size_t pad;

    /** Output spatial height for input height @p h. */
    std::size_t outH(std::size_t h) const;
    /** Output spatial width for input width @p w. */
    std::size_t outW(std::size_t w) const;
};

/**
 * im2col: unfold convolution input patches into a matrix of shape
 * (N*P*Q, C*R*S) so convolution becomes matmul with the (C*R*S, K)
 * reshaped kernel. This mirrors how the compiler lowers CONV onto the
 * PE array.
 */
Tensor im2col(const Tensor &input, const Conv2dGeometry &g);

/**
 * col2im: inverse scatter-add of im2col, used by the convolution
 * backward pass to form input gradients.
 */
Tensor col2im(const Tensor &cols, const Shape &inputShape,
              const Conv2dGeometry &g);

/** Rectilinear (L1) distance between two equal-shape tensors. */
double rectilinearDistance(const Tensor &a, const Tensor &b);

/** Cosine similarity between two equal-shape tensors (flattened). */
double cosineSimilarity(const Tensor &a, const Tensor &b);

/** Mean of (a - b), the "mean bias" statistic of Zhang et al. */
double meanBias(const Tensor &a, const Tensor &b);

/** Max |a[i] - b[i]| over all elements. */
double maxAbsDiff(const Tensor &a, const Tensor &b);

/** Root-mean-square error between two equal-shape tensors. */
double rmse(const Tensor &a, const Tensor &b);

} // namespace cq

#endif // CQ_TENSOR_TENSOR_OPS_H
