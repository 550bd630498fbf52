/**
 * @file
 * Benchmark network definitions and the NetworkBuilder.
 */

#include "compiler/workloads.h"

#include "common/logging.h"

namespace cq::compiler {

using arch::Phase;

namespace {

/**
 * Emit the forward stream @p fw and push its NG mirror onto @p ng: the
 * output gradient streams back to the input gradient through the same
 * SFU work, quantized 4-way. The gradient of a second (residual) input
 * aliases the output gradient.
 */
void
emitStream(WorkloadIR &ir, std::vector<Task> &ng, const StreamTask &fw)
{
    ir.tasks.push_back(Task::make(fw));
    StreamTask b;
    b.phase = Phase::NG;
    b.layer = fw.layer;
    b.inTensor = "grad:" + fw.outTensor;
    b.outTensor = "grad:" + fw.inTensor;
    b.inElems = fw.outElems;
    b.outElems = fw.inElems;
    b.sfuOps = fw.sfuOps;
    b.waysOut = 4;
    ng.push_back(Task::make(b));
    if (!fw.inTensor2.empty()) {
        AliasTask al;
        al.outTensor = "grad:" + fw.inTensor2;
        al.inTensors = {b.inTensor};
        ng.push_back(Task::make(al));
    }
}

} // namespace

NetworkBuilder::NetworkBuilder(std::string name, std::size_t batch)
{
    ir_.name = std::move(name);
    ir_.batch = batch;
}

void
NetworkBuilder::inputImage(std::size_t channels, std::size_t height,
                           std::size_t width)
{
    adopt({"input", channels, height, width});
}

void
NetworkBuilder::inputFlat(std::size_t features)
{
    features_ = features;
    isImage_ = false;
    cur_ = "input";
}

void
NetworkBuilder::addGemmLayer(const std::string &name, std::uint64_t m,
                             std::uint64_t k, std::uint64_t n,
                             const std::string &a_tensor,
                             const std::string &out_tensor, bool a_fp32,
                             bool relu, std::uint64_t raw_in_elems,
                             std::uint64_t raw_out_elems)
{
    // Forward: C(m,n) = A(m,k) x W(k,n), on-the-fly quantized output.
    GemmTask fw;
    fw.phase = Phase::FW;
    fw.layer = name;
    fw.m = m;
    fw.k = k;
    fw.n = n;
    fw.aTensor = a_tensor;
    fw.aIsFp32 = a_fp32;
    fw.bTensor = "w:" + name;
    fw.freshWeightElems = k * n;
    fw.cTensor = out_tensor;
    fw.fusedActivation = relu;
    fw.aElemsTotal = raw_in_elems;
    ir_.tasks.push_back(Task::make(fw));

    const std::string grad_out = "grad:" + out_tensor;
    PendingBackward bw;
    if (!a_fp32) {
        // dX(m,k) = dY(m,n) x W^T(n,k); gradients use 4-way E2BQM.
        GemmTask ng;
        ng.phase = Phase::NG;
        ng.layer = name;
        ng.m = m;
        ng.k = n;
        ng.n = k;
        ng.aTensor = grad_out;
        ng.bTensor = "wq:" + name;
        ng.cTensor = "grad:" + a_tensor;
        ng.waysOut = 4;
        ng.aElemsTotal = raw_out_elems; // gradient of the raw output
        ng.cElemsTotal = raw_in_elems;  // col2im'ed on chip
        bw.ngTasks.push_back(Task::make(ng));
    }
    // dW(k,n) = A^T(k,m) x dY(m,n); full-precision output.
    GemmTask wg;
    wg.phase = Phase::WG;
    wg.layer = name;
    wg.m = k;
    wg.k = m;
    wg.n = n;
    wg.aTensor = a_tensor;
    wg.bTensor = grad_out;
    wg.cTensor = "wg:" + name;
    wg.isWeightGradient = true;
    wg.aElemsTotal = raw_in_elems; // activations re-read raw
    wg.bElemsTotal = raw_out_elems;
    bw.wgTasks.push_back(Task::make(wg));

    UpdateTask up;
    up.layer = name;
    up.numWeights = k * n;
    bw.updateTasks.push_back(Task::make(up));
    backward_.push_back(std::move(bw));
}

void
NetworkBuilder::adopt(const BranchPoint &head)
{
    cur_ = head.tensor;
    channels_ = head.channels;
    height_ = head.height;
    width_ = head.width;
    isImage_ = true;
}

void
NetworkBuilder::conv(const std::string &name, std::size_t out_channels,
                     std::size_t kernel, std::size_t stride,
                     std::size_t pad, bool relu)
{
    adopt(convFrom(branchPoint(), name, out_channels, kernel, stride, pad,
                   relu));
}

void
NetworkBuilder::pool(const std::string &name, std::size_t window,
                     std::size_t stride)
{
    adopt(poolFrom(branchPoint(), name, window, stride, 0));
}

void
NetworkBuilder::globalPool(const std::string &name)
{
    // One window over the whole (square) map, then flatten.
    CQ_ASSERT(height_ == width_);
    pool(name, height_, 1);
    isImage_ = false;
    features_ = channels_;
}

void
NetworkBuilder::fc(const std::string &name, std::size_t out_features,
                   bool relu, std::uint64_t rows)
{
    std::uint64_t in_features;
    if (isImage_) {
        in_features = static_cast<std::uint64_t>(channels_) * height_ *
                      width_;
        isImage_ = false;
    } else {
        in_features = features_;
    }
    const std::string out = "act:" + name;
    addGemmLayer(name, rows ? rows : ir_.batch, in_features,
                 out_features, cur_, out, cur_ == "input", relu);
    cur_ = out;
    features_ = out_features;
}

void
NetworkBuilder::embedding(const std::string &name, std::size_t vocab,
                          std::size_t dim, std::uint64_t rows)
{
    const std::string out = "act:" + name;
    StreamTask fw;
    fw.phase = Phase::FW;
    fw.layer = name;
    fw.inTensor = cur_;
    fw.outTensor = out;
    fw.inElems = rows; // token ids
    fw.outElems = rows * dim;
    fw.sfuOps = rows * dim;
    ir_.tasks.push_back(Task::make(fw));

    PendingBackward bw;
    // Gradient scatter-add into the FP32 embedding table.
    StreamTask wg;
    wg.phase = Phase::WG;
    wg.layer = name;
    wg.inTensor = "grad:" + out;
    wg.outTensor = "wg:" + name;
    wg.inElems = rows * dim;
    wg.outElems = rows * dim;
    wg.isWeightGradient = true;
    wg.sfuOps = rows * dim;
    bw.wgTasks.push_back(Task::make(wg));

    UpdateTask up;
    up.layer = name;
    up.numWeights = static_cast<std::uint64_t>(vocab) * dim;
    bw.updateTasks.push_back(Task::make(up));
    backward_.push_back(std::move(bw));

    cur_ = out;
    isImage_ = false;
    features_ = dim;
}

NetworkBuilder::BranchPoint
NetworkBuilder::branchPoint() const
{
    CQ_ASSERT(isImage_);
    return {cur_, channels_, height_, width_};
}

NetworkBuilder::BranchPoint
NetworkBuilder::convFrom(const BranchPoint &from, const std::string &name,
                         std::size_t out_channels, std::size_t kernel,
                         std::size_t stride, std::size_t pad, bool relu)
{
    const std::size_t p =
        (from.height + 2 * pad - kernel) / stride + 1;
    const std::size_t q =
        (from.width + 2 * pad - kernel) / stride + 1;
    const std::uint64_t m =
        static_cast<std::uint64_t>(ir_.batch) * p * q;
    const std::uint64_t k =
        static_cast<std::uint64_t>(from.channels) * kernel * kernel;
    const std::string out = "act:" + name;
    const std::uint64_t raw_in =
        static_cast<std::uint64_t>(ir_.batch) * from.channels *
        from.height * from.width;
    addGemmLayer(name, m, k, out_channels, from.tensor, out,
                 from.tensor == "input", relu, raw_in, m * out_channels);
    return {out, out_channels, p, q};
}

NetworkBuilder::BranchPoint
NetworkBuilder::poolFrom(const BranchPoint &from, const std::string &name,
                         std::size_t window, std::size_t stride,
                         std::size_t pad)
{
    const std::size_t p =
        (from.height + 2 * pad - window) / stride + 1;
    const std::size_t q =
        (from.width + 2 * pad - window) / stride + 1;
    StreamTask fw;
    fw.layer = name;
    fw.inTensor = from.tensor;
    fw.outTensor = "act:" + name;
    fw.inElems = static_cast<std::uint64_t>(ir_.batch) * from.channels *
                 from.height * from.width;
    fw.outElems =
        static_cast<std::uint64_t>(ir_.batch) * from.channels * p * q;
    fw.sfuOps = fw.inElems;
    backward_.emplace_back();
    emitStream(ir_, backward_.back().ngTasks, fw);
    return {fw.outTensor, from.channels, p, q};
}

void
NetworkBuilder::concat(const std::string &name,
                       const std::vector<BranchPoint> &branches)
{
    CQ_ASSERT(!branches.empty());
    const std::string out = "act:" + name;
    AliasTask fw;
    fw.outTensor = out;
    std::size_t channels = 0;
    for (const auto &b : branches) {
        fw.inTensors.push_back(b.tensor);
        channels += b.channels;
        CQ_ASSERT(b.height == branches[0].height &&
                  b.width == branches[0].width);
    }
    ir_.tasks.push_back(Task::make(fw));

    // Backward: the gradient of every branch output is a slice of the
    // concatenated gradient.
    PendingBackward bw;
    for (const auto &b : branches) {
        AliasTask al;
        al.outTensor = "grad:" + b.tensor;
        al.inTensors = {"grad:" + out};
        bw.ngTasks.push_back(Task::make(al));
    }
    backward_.push_back(std::move(bw));

    adopt({out, channels, branches[0].height, branches[0].width});
}

void
NetworkBuilder::residual(const std::string &name, const BranchPoint &skip)
{
    CQ_ASSERT(isImage_ && skip.height == height_ &&
              skip.width == width_ && skip.channels == channels_);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(ir_.batch) * channels_ * height_ *
        width_;
    const std::string out = "act:" + name;

    StreamTask fw;
    fw.phase = Phase::FW;
    fw.layer = name;
    fw.inTensor = cur_;
    fw.inTensor2 = skip.tensor;
    fw.inElems = elems;
    fw.inElems2 = elems;
    fw.outTensor = out;
    fw.outElems = elems;
    fw.sfuOps = elems;
    ir_.tasks.push_back(Task::make(fw));

    // Backward: the gradient fans out to both the main and skip paths
    // (pure aliasing plus the elementwise add's trivial backward).
    PendingBackward bw;
    for (const std::string &t : {cur_, skip.tensor}) {
        AliasTask al;
        al.outTensor = "grad:" + t;
        al.inTensors = {"grad:" + out};
        bw.ngTasks.push_back(Task::make(al));
    }
    backward_.push_back(std::move(bw));

    cur_ = out;
}

void
NetworkBuilder::lstm(const std::string &name, std::size_t hidden,
                     std::size_t steps)
{
    CQ_ASSERT(!isImage_);
    const std::uint64_t in_f = features_;
    const std::uint64_t k = in_f + hidden;
    const std::uint64_t n = 4 * hidden;
    const std::uint64_t weights = k * n;
    const std::uint64_t batch = ir_.batch;

    // Forward: one gate GEMM per timestep; the recurrence serializes
    // consecutive steps through the state tensor.
    PendingBackward bw;
    std::string state_prev = cur_;
    for (std::size_t t = 0; t < steps; ++t) {
        GemmTask fw;
        fw.phase = Phase::FW;
        fw.layer = name;
        fw.m = batch;
        fw.k = k;
        fw.n = n;
        fw.aTensor = state_prev;
        fw.bTensor = "w:" + name;
        fw.freshWeightElems = t == 0 ? weights : 0;
        fw.cTensor = "state:" + name + "." + std::to_string(t);
        fw.fusedActivation = true; // gate nonlinearities on the SFU
        ir_.tasks.push_back(Task::make(fw));
        state_prev = fw.cTensor;

        // Backward through time, built in reverse later: step t needs
        // the incoming state gradient of step t+1.
        GemmTask ng;
        ng.phase = Phase::NG;
        ng.layer = name;
        ng.m = batch;
        ng.k = n;
        ng.n = k;
        ng.aTensor = "grad:state:" + name + "." + std::to_string(t);
        ng.bTensor = "wq:" + name;
        ng.cTensor =
            t == 0 ? "grad:" + cur_
                   : "grad:state:" + name + "." + std::to_string(t - 1);
        ng.waysOut = 4;
        // Prepend so that build() (which appends ngTasks in order)
        // emits step T-1 first.
        bw.ngTasks.insert(bw.ngTasks.begin(), Task::make(ng));
    }

    // dW accumulated over all timesteps: k-dim = batch * steps.
    GemmTask wg;
    wg.phase = Phase::WG;
    wg.layer = name;
    wg.m = k;
    wg.k = static_cast<std::uint64_t>(batch) * steps;
    wg.n = n;
    wg.aTensor = cur_;
    wg.bTensor = "grad:state:" + name + ".0";
    wg.cTensor = "wg:" + name;
    wg.isWeightGradient = true;
    bw.wgTasks.push_back(Task::make(wg));

    UpdateTask up;
    up.layer = name;
    up.numWeights = weights;
    bw.updateTasks.push_back(Task::make(up));
    backward_.push_back(std::move(bw));

    cur_ = state_prev;
    features_ = hidden;
}

namespace {

/** Emit the attention-internals GEMMs (scores + AV) for one block. */
void
emitAttentionCore(WorkloadIR &ir, std::vector<Task> &ng_tasks,
                  const std::string &name, std::uint64_t tokens,
                  std::uint64_t seq_len, std::uint64_t model_dim,
                  std::size_t heads, const std::string &q_tensor,
                  const std::string &kv_tensor,
                  const std::string &out_tensor)
{
    const std::uint64_t head_dim = model_dim / heads;
    for (std::size_t h = 0; h < heads; ++h) {
        const std::string hs = "." + std::to_string(h);
        // scores = Q K^T: (tokens x head_dim) x (head_dim x seq).
        GemmTask sc;
        sc.phase = Phase::FW;
        sc.layer = name;
        sc.m = tokens;
        sc.k = head_dim;
        sc.n = seq_len;
        sc.aTensor = q_tensor;
        sc.bTensor = kv_tensor;
        sc.cTensor = "act:" + name + ".scores" + hs;
        ir.tasks.push_back(Task::make(sc));
        // context = softmax(scores) V.
        GemmTask av;
        av.phase = Phase::FW;
        av.layer = name;
        av.m = tokens;
        av.k = seq_len;
        av.n = head_dim;
        av.aTensor = sc.cTensor;
        av.bTensor = kv_tensor;
        av.cTensor = out_tensor;
        ir.tasks.push_back(Task::make(av));

        // Backward: four GEMMs per head (dQ, dK, dAttn, dV).
        for (int g = 0; g < 4; ++g) {
            GemmTask bgm;
            bgm.phase = Phase::NG;
            bgm.layer = name;
            // dQ/dK mirror the scores GEMM; dAttn/dV mirror AV.
            if (g < 2) {
                bgm.m = tokens;
                bgm.k = seq_len;
                bgm.n = head_dim;
            } else {
                bgm.m = tokens;
                bgm.k = head_dim;
                bgm.n = seq_len;
            }
            bgm.aTensor = "grad:" + out_tensor;
            bgm.bTensor = g % 2 ? q_tensor : kv_tensor;
            bgm.cTensor = "grad:" + (g % 2 ? kv_tensor : q_tensor);
            bgm.waysOut = 4;
            ng_tasks.push_back(Task::make(bgm));
        }
    }
    // Softmax over the score rows.
    StreamTask sm;
    sm.layer = name;
    sm.inTensor = "act:" + name + ".scores.0";
    sm.outTensor = "act:" + name + ".probs";
    sm.inElems = tokens * seq_len * heads;
    sm.outElems = sm.inElems;
    sm.sfuOps = 4 * sm.inElems;
    emitStream(ir, ng_tasks, sm);
}

} // namespace

void
NetworkBuilder::transformerEncoder(const std::string &name,
                                   std::size_t seq_len,
                                   std::size_t model_dim,
                                   std::size_t heads,
                                   std::size_t ffn_dim)
{
    CQ_ASSERT(!isImage_ && features_ == model_dim);
    const std::uint64_t tokens =
        static_cast<std::uint64_t>(ir_.batch) * seq_len;

    // Q/K/V projections (weighted GEMMs with full backward).
    const std::string in = cur_;
    for (const char *proj : {"q", "k", "v"}) {
        addGemmLayer(name + "." + proj, tokens, model_dim, model_dim,
                     in, "act:" + name + "." + proj, false, false);
    }

    // Attention core (scores/softmax/AV) with its backward.
    PendingBackward core_bw;
    emitAttentionCore(ir_, core_bw.ngTasks, name, tokens, seq_len,
                      model_dim, heads, "act:" + name + ".q",
                      "act:" + name + ".k",
                      "act:" + name + ".ctx");
    backward_.push_back(std::move(core_bw));

    // Residual add of x and skip, then layer norm: 6 SFU ops per
    // element.
    const auto add_norm = [&](const char *ln, const std::string &x,
                              const std::string &skip) {
        StreamTask fw;
        fw.layer = name + "." + ln;
        fw.inTensor = x;
        fw.inTensor2 = skip;
        fw.outTensor = "act:" + fw.layer;
        fw.inElems = tokens * model_dim;
        fw.inElems2 = fw.inElems;
        fw.outElems = fw.inElems;
        fw.sfuOps = 6 * fw.inElems;
        backward_.emplace_back();
        emitStream(ir_, backward_.back().ngTasks, fw);
    };

    // Output projection + residual/LN.
    addGemmLayer(name + ".out", tokens, model_dim, model_dim,
                 "act:" + name + ".ctx", "act:" + name + ".attn", false,
                 false);
    add_norm("ln1", "act:" + name + ".attn", in);

    // FFN.
    addGemmLayer(name + ".ffn1", tokens, model_dim, ffn_dim,
                 "act:" + name + ".ln1", "act:" + name + ".ffn1", false,
                 true);
    addGemmLayer(name + ".ffn2", tokens, ffn_dim, model_dim,
                 "act:" + name + ".ffn1", "act:" + name + ".ffn2",
                 false, false);
    add_norm("ln2", "act:" + name + ".ffn2", "act:" + name + ".ln1");

    cur_ = "act:" + name + ".ln2";
}

void
NetworkBuilder::transformerDecoder(const std::string &name,
                                   std::size_t seq_len,
                                   std::size_t model_dim,
                                   std::size_t heads,
                                   std::size_t ffn_dim)
{
    // Self-attention + FFN shape is identical to the encoder; the
    // cross-attention adds one more attention block reading the
    // encoder output (modeled as a second core + projections).
    transformerEncoder(name + ".self", seq_len, model_dim, heads,
                       ffn_dim);

    const std::uint64_t tokens =
        static_cast<std::uint64_t>(ir_.batch) * seq_len;
    const std::string in = cur_;
    addGemmLayer(name + ".xq", tokens, model_dim, model_dim, in,
                 "act:" + name + ".xq", false, false);
    addGemmLayer(name + ".xkv", tokens, model_dim, model_dim, in,
                 "act:" + name + ".xkv", false, false);
    PendingBackward core_bw;
    emitAttentionCore(ir_, core_bw.ngTasks, name + ".x", tokens,
                      seq_len, model_dim, heads, "act:" + name + ".xq",
                      "act:" + name + ".xkv",
                      "act:" + name + ".xctx");
    backward_.push_back(std::move(core_bw));
    addGemmLayer(name + ".xout", tokens, model_dim, model_dim,
                 "act:" + name + ".xctx", "act:" + name + ".xattn",
                 false, false);
    cur_ = "act:" + name + ".xattn";
    features_ = model_dim;
}

WorkloadIR
NetworkBuilder::buildInference()
{
    backward_.clear();
    ir_.name += " (inference)";
    ir_.finalize();
    return std::move(ir_);
}

WorkloadIR
NetworkBuilder::build()
{
    // Backward tasks in reverse layer order: NG, then WG, then the
    // weight update of each layer.
    for (std::size_t i = backward_.size(); i-- > 0;) {
        auto &bw = backward_[i];
        for (auto &t : bw.ngTasks)
            ir_.tasks.push_back(std::move(t));
        for (auto &t : bw.wgTasks)
            ir_.tasks.push_back(std::move(t));
        for (auto &t : bw.updateTasks)
            ir_.tasks.push_back(std::move(t));
    }
    backward_.clear();
    ir_.finalize();
    return std::move(ir_);
}

WorkloadIR
buildAlexNet(std::size_t batch)
{
    NetworkBuilder b("AlexNet", batch);
    b.inputImage(3, 227, 227);
    b.conv("conv1", 96, 11, 4, 0);
    b.pool("pool1", 3, 2);
    b.conv("conv2", 256, 5, 1, 2);
    b.pool("pool2", 3, 2);
    b.conv("conv3", 384, 3, 1, 1);
    b.conv("conv4", 384, 3, 1, 1);
    b.conv("conv5", 256, 3, 1, 1);
    b.pool("pool5", 3, 2);
    b.fc("fc6", 4096);
    b.fc("fc7", 4096);
    b.fc("fc8", 1000, false);
    return b.build();
}

WorkloadIR
buildResNet18(std::size_t batch)
{
    NetworkBuilder b("ResNet-18", batch);
    b.inputImage(3, 224, 224);
    b.conv("conv1", 64, 7, 2, 3);
    b.pool("pool1", 3, 2);

    auto basic_block = [&](const std::string &name, std::size_t channels,
                           std::size_t stride) {
        auto skip = b.branchPoint();
        b.conv(name + ".a", channels, 3, stride, 1);
        b.conv(name + ".b", channels, 3, 1, 1, false);
        if (stride != 1 || skip.channels != channels) {
            skip = b.convFrom(skip, name + ".down", channels, 1, stride,
                              0, false);
        }
        b.residual(name + ".add", skip);
    };

    basic_block("l1.0", 64, 1);
    basic_block("l1.1", 64, 1);
    basic_block("l2.0", 128, 2);
    basic_block("l2.1", 128, 1);
    basic_block("l3.0", 256, 2);
    basic_block("l3.1", 256, 1);
    basic_block("l4.0", 512, 2);
    basic_block("l4.1", 512, 1);
    b.globalPool("avgpool");
    b.fc("fc", 1000, false);
    return b.build();
}

WorkloadIR
buildGoogLeNet(std::size_t batch)
{
    NetworkBuilder b("GoogLeNet", batch);
    b.inputImage(3, 224, 224);
    b.conv("conv1", 64, 7, 2, 3);
    b.pool("pool1", 3, 2);
    b.conv("conv2r", 64, 1, 1, 0);
    b.conv("conv2", 192, 3, 1, 1);
    b.pool("pool2", 3, 2);

    auto inception = [&](const std::string &name, std::size_t c1,
                         std::size_t c3r, std::size_t c3,
                         std::size_t c5r, std::size_t c5,
                         std::size_t pp) {
        auto in = b.branchPoint();
        auto b1 = b.convFrom(in, name + ".1x1", c1, 1, 1, 0);
        auto b2r = b.convFrom(in, name + ".3x3r", c3r, 1, 1, 0);
        auto b2 = b.convFrom(b2r, name + ".3x3", c3, 3, 1, 1);
        auto b3r = b.convFrom(in, name + ".5x5r", c5r, 1, 1, 0);
        auto b3 = b.convFrom(b3r, name + ".5x5", c5, 5, 1, 2);
        auto b4p = b.poolFrom(in, name + ".pool", 3, 1, 1);
        auto b4 = b.convFrom(b4p, name + ".poolproj", pp, 1, 1, 0);
        b.concat(name + ".cat", {b1, b2, b3, b4});
    };

    inception("3a", 64, 96, 128, 16, 32, 32);
    inception("3b", 128, 128, 192, 32, 96, 64);
    b.pool("pool3", 3, 2);
    inception("4a", 192, 96, 208, 16, 48, 64);
    inception("4b", 160, 112, 224, 24, 64, 64);
    inception("4c", 128, 128, 256, 24, 64, 64);
    inception("4d", 112, 144, 288, 32, 64, 64);
    inception("4e", 256, 160, 320, 32, 128, 128);
    b.pool("pool4", 3, 2);
    inception("5a", 256, 160, 320, 32, 128, 128);
    inception("5b", 384, 192, 384, 48, 128, 128);
    b.globalPool("avgpool");
    b.fc("fc", 1000, false);
    return b.build();
}

WorkloadIR
buildSqueezeNet(std::size_t batch)
{
    NetworkBuilder b("SqueezeNet", batch);
    b.inputImage(3, 227, 227);
    b.conv("conv1", 96, 7, 2, 0);
    b.pool("pool1", 3, 2);

    auto fire = [&](const std::string &name, std::size_t squeeze,
                    std::size_t expand) {
        b.conv(name + ".squeeze", squeeze, 1, 1, 0);
        auto sq = b.branchPoint();
        auto e1 = b.convFrom(sq, name + ".e1x1", expand, 1, 1, 0);
        auto e3 = b.convFrom(sq, name + ".e3x3", expand, 3, 1, 1);
        b.concat(name + ".cat", {e1, e3});
    };

    fire("fire2", 16, 64);
    fire("fire3", 16, 64);
    fire("fire4", 32, 128);
    b.pool("pool4", 3, 2);
    fire("fire5", 32, 128);
    fire("fire6", 48, 192);
    fire("fire7", 48, 192);
    fire("fire8", 64, 256);
    b.pool("pool8", 3, 2);
    fire("fire9", 64, 256);
    b.conv("conv10", 1000, 1, 1, 0);
    b.globalPool("avgpool");
    return b.build();
}

WorkloadIR
buildTransformerBase(std::size_t sentences, std::size_t seq_len)
{
    const std::size_t d_model = 512, heads = 8, ffn = 2048;
    const std::size_t vocab = 37000;
    NetworkBuilder b("Transformer", sentences);
    b.inputFlat(d_model); // token embeddings (lookup modeled below)

    for (int l = 0; l < 6; ++l) {
        b.transformerEncoder("enc" + std::to_string(l), seq_len,
                             d_model, heads, ffn);
    }
    for (int l = 0; l < 6; ++l) {
        b.transformerDecoder("dec" + std::to_string(l), seq_len,
                             d_model, heads, ffn);
    }
    // Output projection over the shared vocabulary (the dominant
    // weight tensor; its update is what makes Transformer WU-heavy).
    // Embeddings are tied to this matrix, so it is counted once.
    b.fc("proj", vocab, false, sentences * seq_len);
    return b.build();
}

WorkloadIR
buildPtbLstm(std::size_t batch, std::size_t seq_len)
{
    const std::size_t hidden = 650, vocab = 10000;
    NetworkBuilder b("LSTM", batch);
    b.inputFlat(1); // token ids
    b.embedding("embed", vocab, hidden, batch * seq_len);
    b.lstm("lstm1", hidden, seq_len);
    b.lstm("lstm2", hidden, seq_len);
    b.fc("proj", vocab, false, batch * seq_len);
    return b.build();
}

WorkloadIR
buildTinyCnn(std::size_t batch)
{
    NetworkBuilder b("TinyCNN", batch);
    b.inputImage(3, 16, 16);
    b.conv("conv1", 8, 3, 1, 1);
    b.pool("pool1", 2, 2);
    b.conv("conv2", 16, 3, 1, 1);
    b.globalPool("gap");
    b.fc("fc", 10, false);
    return b.build();
}

WorkloadIR
buildTinyMlp(std::size_t batch)
{
    NetworkBuilder b("TinyMLP", batch);
    b.inputFlat(32);
    b.fc("fc1", 64);
    b.fc("fc2", 10, false);
    return b.build();
}

std::vector<WorkloadIR>
allBenchmarks()
{
    std::vector<WorkloadIR> out;
    out.push_back(buildAlexNet());
    out.push_back(buildResNet18());
    out.push_back(buildGoogLeNet());
    out.push_back(buildSqueezeNet());
    out.push_back(buildTransformerBase());
    out.push_back(buildPtbLstm());
    return out;
}

} // namespace cq::compiler
