/**
 * @file
 * Benchmark network definitions (paper Table VI).
 *
 * Each function lowers one network's training minibatch (forward,
 * gradients on neurons, gradients on weights, weight update) into the
 * target-independent WorkloadIR. Layer dimensions follow the original
 * publications; batch sizes follow Table VI.
 */

#ifndef CQ_COMPILER_WORKLOADS_H
#define CQ_COMPILER_WORKLOADS_H

#include <vector>

#include "compiler/workload_ir.h"

namespace cq::compiler {

/** @name The six benchmarks of Table VI */
/** @{ */
WorkloadIR buildAlexNet(std::size_t batch = 32);
WorkloadIR buildResNet18(std::size_t batch = 32);
WorkloadIR buildGoogLeNet(std::size_t batch = 32);
WorkloadIR buildSqueezeNet(std::size_t batch = 32);
WorkloadIR buildTransformerBase(std::size_t sentences = 260,
                                std::size_t seq_len = 26);
WorkloadIR buildPtbLstm(std::size_t batch = 1000,
                        std::size_t seq_len = 35);
/** @} */

/** A small CNN used by fast unit/integration tests. */
WorkloadIR buildTinyCnn(std::size_t batch = 4);

/** A small MLP used by fast unit tests. */
WorkloadIR buildTinyMlp(std::size_t batch = 8);

/** All Table VI workloads at their paper batch sizes. */
std::vector<WorkloadIR> allBenchmarks();

/**
 * Builder used by the workload definitions; exposed so tests and
 * examples can assemble custom networks.
 *
 * The builder tracks the current activation tensor through a chain of
 * layer calls and, at build() time, emits the forward tasks in order
 * followed by the backward (NG + WG + update) tasks in reverse layer
 * order, reproducing the three-stage backward structure of Fig. 1.
 */
class NetworkBuilder
{
  public:
    NetworkBuilder(std::string name, std::size_t batch);

    /** Declare the network input: NCHW images. */
    void inputImage(std::size_t channels, std::size_t height,
                    std::size_t width);

    /** Declare a flat (already embedded) input of @p features. */
    void inputFlat(std::size_t features);

    /** Convolution (+ optional fused ReLU). */
    void conv(const std::string &name, std::size_t out_channels,
              std::size_t kernel, std::size_t stride, std::size_t pad,
              bool relu = true);

    /** Max/avg pooling (timing-equivalent). */
    void pool(const std::string &name, std::size_t window,
              std::size_t stride);

    /** Global average pool to (batch, channels). */
    void globalPool(const std::string &name);

    /**
     * Fully connected layer on the current flat features. @p rows
     * overrides the GEMM row count (e.g. batch * seq_len for
     * per-timestep heads); 0 means the minibatch size.
     */
    void fc(const std::string &name, std::size_t out_features,
            bool relu = true, std::uint64_t rows = 0);

    /**
     * Embedding lookup of @p rows tokens into @p dim dimensions:
     * gather traffic forward, FP32 scatter-add of gradients backward,
     * and a (vocab x dim) weight update.
     */
    void embedding(const std::string &name, std::size_t vocab,
                   std::size_t dim, std::uint64_t rows);

    /** Concatenate the channel outputs of @p branch_channels
     *  (inception-style); caller emits the branches via convFrom(). */
    struct BranchPoint
    {
        std::string tensor;
        std::size_t channels, height, width;
    };
    BranchPoint branchPoint() const;
    /** Run a conv whose input is @p from instead of the chain head. */
    BranchPoint convFrom(const BranchPoint &from,
                         const std::string &name,
                         std::size_t out_channels, std::size_t kernel,
                         std::size_t stride, std::size_t pad,
                         bool relu = true);
    BranchPoint poolFrom(const BranchPoint &from,
                         const std::string &name, std::size_t window,
                         std::size_t stride, std::size_t pad);
    /** Make the concatenation of branches the new chain head. */
    void concat(const std::string &name,
                const std::vector<BranchPoint> &branches);

    /** Residual add of the current head with @p skip. */
    void residual(const std::string &name, const BranchPoint &skip);

    /** LSTM layer over @p steps timesteps. */
    void lstm(const std::string &name, std::size_t hidden,
              std::size_t steps);

    /** Transformer encoder layer (self-attention + FFN). */
    void transformerEncoder(const std::string &name,
                            std::size_t seq_len, std::size_t model_dim,
                            std::size_t heads, std::size_t ffn_dim);

    /** Transformer decoder layer (adds cross-attention). */
    void transformerDecoder(const std::string &name,
                            std::size_t seq_len, std::size_t model_dim,
                            std::size_t heads, std::size_t ffn_dim);

    /** Finish and return the IR (forward + backward + updates). */
    WorkloadIR build();

    /**
     * Finish as an inference-only workload: forward tasks only, no
     * gradients or weight updates (the Sec. VII-C deployment mode
     * where INT4 yields its full benefit).
     */
    WorkloadIR buildInference();

  private:
    struct PendingBackward
    {
        std::vector<Task> ngTasks;
        std::vector<Task> wgTasks;
        std::vector<Task> updateTasks;
    };

    /**
     * A weighted GEMM layer: FW, then NG (unless @p a_fp32 marks the
     * raw network input, which needs no gradient), WG and the update.
     */
    void addGemmLayer(const std::string &name, std::uint64_t m,
                      std::uint64_t k, std::uint64_t n,
                      const std::string &a_tensor,
                      const std::string &out_tensor, bool a_fp32,
                      bool relu, std::uint64_t raw_in_elems = 0,
                      std::uint64_t raw_out_elems = 0);

    /** Make @p head the chain head (an image). */
    void adopt(const BranchPoint &head);

    WorkloadIR ir_;
    std::vector<PendingBackward> backward_;
    /** Current head tensor + geometry. */
    std::string cur_;
    std::size_t channels_ = 0, height_ = 0, width_ = 0;
    std::size_t features_ = 0;
    bool isImage_ = false;
};

} // namespace cq::compiler

#endif // CQ_COMPILER_WORKLOADS_H
