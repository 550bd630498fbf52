/**
 * @file
 * LSTM layer with in-layer backpropagation through time.
 */

#ifndef CQ_NN_LSTM_H
#define CQ_NN_LSTM_H

#include "common/rng.h"
#include "nn/layer.h"

namespace cq::nn {

/**
 * A single-direction LSTM over an input of shape (T, B, I), producing
 * hidden states of shape (T, B, H). Initial hidden/cell states are
 * zero. Gates use the standard i/f/g/o parameterization with combined
 * weight matrices Wx (I, 4H) and Wh (H, 4H) plus bias (4H); the gate
 * order inside the 4H axis is [i, f, g, o].
 */
class Lstm : public Layer
{
  public:
    Lstm(std::string name, std::size_t input_size,
         std::size_t hidden_size, Rng &rng);

    const std::string &name() const override { return name_; }
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_output) override;
    std::vector<Param *> params() override;

  private:
    std::string name_;
    std::size_t inputSize_;
    std::size_t hiddenSize_;
    Param wx_;
    Param wh_;
    Param bias_;

    // Per-step caches (filled by forward, consumed by backward).
    Tensor cachedInput_;                 ///< (T, B, I)
    std::vector<Tensor> gateActs_;       ///< per step: (B, 4H) post-act
    std::vector<Tensor> cellStates_;     ///< per step: (B, H) c_t
    std::vector<Tensor> hiddenStates_;   ///< per step: (B, H) h_t
};

} // namespace cq::nn

#endif // CQ_NN_LSTM_H
