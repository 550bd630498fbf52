/**
 * @file
 * Elementwise activation layers.
 */

#ifndef CQ_NN_ACTIVATION_H
#define CQ_NN_ACTIVATION_H

#include "nn/layer.h"

namespace cq::nn {

/** Supported elementwise nonlinearities (executed by the SFU). */
enum class ActKind { ReLU, Tanh, Sigmoid, Gelu };

const char *actKindName(ActKind kind);

/** Elementwise activation y = act(x), any input shape. */
class Activation : public Layer
{
  public:
    Activation(std::string name, ActKind kind);

    const std::string &name() const override { return name_; }
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_output) override;

    ActKind kind() const { return kind_; }

  private:
    std::string name_;
    ActKind kind_;
    /** What backward reads: the input for GELU, else the output. */
    Tensor cached_;
};

} // namespace cq::nn

#endif // CQ_NN_ACTIVATION_H
