/**
 * @file
 * train-cnn-hqt: the ResNet-18 stand-in of table8_accuracy trained
 * under Zhang'20+HQT on batches generated during set-up, timed one
 * nn::QuantTrainer::stepClassification at a time at pool width 1.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/threadpool.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/quant_trainer.h"
#include "nn/softmax.h"
#include "perfbench.h"
#include "quant/policy.h"
#include "tensor/tensor_ops.h"

namespace cq::perfbench {

namespace {

/** The trainer runs inline: wider pools make its steps noisier. */
constexpr unsigned kTrainPoolWidth = 1;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kClasses = 4;
/** Steps of one training run; every run replays the same batches. */
constexpr std::size_t kStepsPerRun = 200;
/** Steps averaged into final_loss. */
constexpr std::size_t kFinalLossSteps = 10;
/** Eval accuracy every run must reach (chance is 0.25). */
constexpr double kAccuracyFloor = 0.30;

nn::Network
makeNetwork(std::uint64_t seed)
{
    // conv 1->8, pool, then conv 8->16 and two conv 16->16: the
    // "resnet18" row of table8_accuracy.
    Rng rng(seed);
    nn::Network net;
    net.add(std::make_unique<nn::Conv2d>(
        "conv1", Conv2dGeometry{1, 8, 3, 3, 1, 1}, rng));
    net.add(std::make_unique<nn::Activation>("relu1", nn::ActKind::ReLU));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2, 2));
    for (int d = 0; d < 3; ++d) {
        const std::string tag = std::to_string(d + 2);
        net.add(std::make_unique<nn::Conv2d>(
            "conv" + tag, Conv2dGeometry{d == 0 ? 8u : 16u, 16, 3, 3, 1, 1},
            rng));
        net.add(std::make_unique<nn::Activation>("relu" + tag,
                                                 nn::ActKind::ReLU));
    }
    net.add(std::make_unique<nn::GlobalAvgPool>("gap"));
    net.add(std::make_unique<nn::Linear>("fc", 16, kClasses, rng));
    return net;
}

nn::QuantTrainerConfig
trainerConfig()
{
    nn::QuantTrainerConfig cfg;
    cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(256);
    cfg.optimizer.kind = nn::OptimizerKind::Adam;
    cfg.optimizer.lr = 3e-3;
    return cfg;
}

/**
 * One step's kernel calls, replayed from outside the trainer: the
 * tensors of one step (each layer's input and incoming gradient) are
 * captured once, then every sample() calls the kernels the trainer
 * calls on them -- the conv/fc GEMMs, im2col/col2im, and
 * quant::applyPolicy on the weights, activations and neuron
 * gradients -- and records the host time of each group.
 */
class KernelReplay
{
  public:
    explicit KernelReplay(const TrainInputs &in)
        : net_(makeNetwork(in.initSeed)),
          algo_(trainerConfig().algorithm),
          inputs_(net_.size()),
          grads_(net_.size())
    {
        const nn::Batch &batch = in.batches.front();
        const Tensor logits = net_.forward(
            batch.inputs, [&](const Tensor &x, std::size_t li) {
                inputs_[li] = x;
                return x;
            });
        nn::SoftmaxCrossEntropy head;
        head.loss(logits, batch.labels);
        net_.backward(head.grad(), [&](const Tensor &g, std::size_t li) {
            grads_[li] = g;
            return g;
        });
    }

    void
    sample()
    {
        double gemm = 0.0, im2 = 0.0;
        flops_ = 0.0;
        auto timed = [](double &acc, auto &&fn) {
            const double t0 = nowSeconds();
            Tensor out = fn();
            acc += nowSeconds() - t0;
            return out;
        };
        for (std::size_t li = 0; li < net_.size(); ++li) {
            const Tensor &x = inputs_[li];
            const Tensor &dy = grads_[li];
            nn::Layer &layer = net_.layer(li);
            if (auto *conv = dynamic_cast<nn::Conv2d *>(&layer)) {
                const Conv2dGeometry &geo = conv->geometry();
                const Tensor &w = conv->weight().value;
                const Tensor cols =
                    timed(im2, [&] { return im2col(x, geo); });
                Tensor flat = dy;
                flat.reshape({cols.dim(0), geo.outChannels});
                timed(gemm, [&] { return matmul(cols, w); });
                timed(gemm, [&] { return matmulTransA(cols, flat); });
                const Tensor dcols =
                    timed(gemm, [&] { return matmulTransB(flat, w); });
                timed(im2, [&] { return col2im(dcols, x.shape(), geo); });
                addFlops(cols.dim(0), cols.dim(1), geo.outChannels);
            } else if (auto *fc = dynamic_cast<nn::Linear *>(&layer)) {
                const Tensor &w = fc->weight().value;
                timed(gemm, [&] { return matmul(x, w); });
                timed(gemm, [&] { return matmulTransA(x, dy); });
                timed(gemm, [&] { return matmulTransB(dy, w); });
                addFlops(x.dim(0), fc->inFeatures(), fc->outFeatures());
            }
        }
        using quant::TensorRole;
        const double t0 = nowSeconds();
        for (nn::Param *p : net_.params())
            quant::applyPolicy(p->value, algo_, TensorRole::Weight);
        for (const Tensor &x : inputs_)
            quant::applyPolicy(x, algo_, TensorRole::Activation);
        for (const Tensor &g : grads_)
            quant::applyPolicy(g, algo_, TensorRole::NeuronGradient);
        hqt_.push_back(nowSeconds() - t0);
        gemm_.push_back(gemm);
        im2col_.push_back(im2);
    }

    double gemmS() const { return median(gemm_); }
    double im2colS() const { return median(im2col_); }
    double hqtS() const { return median(hqt_); }
    /** Flops of one step's GEMMs (forward, dW and dX). */
    double gemmFlops() const { return flops_; }

  private:
    void
    addFlops(std::size_t m, std::size_t k, std::size_t n)
    {
        flops_ += 3.0 * 2.0 * static_cast<double>(m) *
                  static_cast<double>(k) * static_cast<double>(n);
    }

    nn::Network net_;
    quant::AlgorithmConfig algo_;
    std::vector<Tensor> inputs_, grads_;
    std::vector<double> gemm_, im2col_, hqt_;
    double flops_ = 0.0;
};

} // namespace

TrainInputs
makeTrainInputs(std::uint64_t seed, std::size_t steps)
{
    nn::PatternImageDataset data(kClasses, 1, 12, 12, 1.2,
                                 deriveSeed(seed, 2));
    TrainInputs in;
    in.batches.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i)
        in.batches.push_back(data.sample(kBatch));
    in.eval = data.evalSet(512);
    in.initSeed = deriveSeed(seed, 3);
    return in;
}

TrainRun
trainOnce(const TrainInputs &in, bool split_steps,
          const std::function<void()> &after_step)
{
    nn::Network net = makeNetwork(in.initSeed);
    nn::QuantTrainer trainer(net, trainerConfig());
    TrainRun run;
    for (const nn::Batch &b : in.batches) {
        const double t0 = nowSeconds();
        double loss = 0.0;
        if (split_steps) {
            const double fb =
                trainer.forwardBackwardClassification(b.inputs, b.labels);
            const double t1 = nowSeconds();
            loss = trainer.commitStep(fb);
            const double t2 = nowSeconds();
            run.fwdBwdSeconds.push_back(t1 - t0);
            run.commitSeconds.push_back(t2 - t1);
        } else {
            loss = trainer.stepClassification(b.inputs, b.labels);
        }
        run.stepSeconds.push_back(nowSeconds() - t0);
        run.losses.push_back(loss);
        if (after_step)
            after_step();
    }
    run.evalAccuracy = trainer.evalAccuracy(in.eval.inputs, in.eval.labels);
    return run;
}

double
finalLoss(const std::vector<double> &losses)
{
    const std::size_t n = std::min(kFinalLossSteps, losses.size());
    double sum = 0.0;
    for (std::size_t i = losses.size() - n; i < losses.size(); ++i)
        sum += losses[i];
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

RunResult
runTrainWorkload(const Options &opts)
{
    ThreadPool::instance().setNumThreads(kTrainPoolWidth);
    RunResult r;
    addCommonProvenance(r, opts, kTrainPoolWidth);

    // Set-up: dataset synthesis, batch generation, network + trainer
    // construction.
    TrainInputs inputs;
    std::vector<double> setup;
    auto setUp = [&] {
        const double t0 = nowSeconds();
        inputs = makeTrainInputs(opts.seed, kStepsPerRun);
        nn::Network net = makeNetwork(inputs.initSeed);
        nn::QuantTrainer trainer(net, trainerConfig());
        setup.push_back(nowSeconds() - t0);
    };
    for (int i = 0; i < kSetupsBeforeTiming; ++i)
        setUp();

    // Measured phase: whole training runs from the same seed, so every
    // run must repeat the first one's losses bit for bit.
    std::vector<double> steps, fwdBwd, commit;
    std::size_t trainingRuns = 0;
    TrainRun first;
    // A traced run replays one step's kernels after every step, so the
    // replay sees the same host conditions as the steps it explains.
    std::optional<KernelReplay> replay;
    std::function<void()> afterStep;
    if (opts.trace) {
        replay.emplace(inputs);
        afterStep = [&replay] { replay->sample(); };
    }
    const double start = nowSeconds();
    do {
        TrainRun run = trainOnce(inputs, opts.trace, afterStep);
        const bool isFirst = first.losses.empty();
        for (std::size_t i = 0; i < run.losses.size(); ++i) {
            ++r.attempted;
            const bool ok = std::isfinite(run.losses[i]) &&
                            (isFirst || run.losses[i] == first.losses[i]);
            if (!ok) {
                ++r.failed;
                std::fprintf(stderr, "perfbench: step %zu loss %.17g %s\n",
                             i, run.losses[i],
                             std::isfinite(run.losses[i])
                                 ? "differs from the first run"
                                 : "is not finite");
            }
        }
        ++r.attempted;
        if (!(run.evalAccuracy >= kAccuracyFloor)) {
            ++r.failed;
            std::fprintf(stderr,
                         "perfbench: eval accuracy %.4f below floor %.2f\n",
                         run.evalAccuracy, kAccuracyFloor);
        }
        steps.insert(steps.end(), run.stepSeconds.begin(),
                     run.stepSeconds.end());
        fwdBwd.insert(fwdBwd.end(), run.fwdBwdSeconds.begin(),
                      run.fwdBwdSeconds.end());
        commit.insert(commit.end(), run.commitSeconds.begin(),
                      run.commitSeconds.end());
        if (isFirst)
            first = std::move(run);
        ++trainingRuns;
        setUp();
    } while (nowSeconds() - start < opts.seconds);

    r.provenance.emplace_back("training_runs", std::to_string(trainingRuns));
    // The unit of work is one training step.
    setEndToEnd(r, opts.trace, setup, peakRssMb(), steps);
    const double medianStep = median(steps);
    r.extra.push_back({"step_ms_median", medianStep * 1e3, "ms"});
    r.extra.push_back({"step_ms_p90", percentile(steps, 90.0) * 1e3, "ms"});
    r.extra.push_back({"samples_per_s",
                       static_cast<double>(kBatch) / medianStep,
                       "samples/s"});
    r.extra.push_back({"final_loss", finalLoss(first.losses), "nats"});
    r.extra.push_back({"eval_accuracy", first.evalAccuracy, "ratio"});
    if (!opts.trace)
        return r;

    const KernelReplay &k = *replay;
    const double fbMs = median(fwdBwd) * 1e3;
    const double commitMs = median(commit) * 1e3;
    const double otherMs =
        fbMs + commitMs - (k.gemmS() + k.im2colS() + k.hqtS()) * 1e3;
    if (otherMs < 0.0) {
        std::fprintf(stderr,
                     "perfbench: nn.other_ms is negative: the kernel "
                     "replay no longer matches the trainer's calls\n");
    }
    initPerLayerMetrics(r);
    r.set("nn.fwd_bwd_ms", fbMs, "ms");
    r.set("nn.commit_ms", commitMs, "ms");
    r.set("tensor.gemm_ms", k.gemmS() * 1e3, "ms");
    r.set("tensor.gemm_gflops", k.gemmFlops() / k.gemmS() * 1e-9,
          "GFLOP/s");
    r.set("tensor.im2col_ms", k.im2colS() * 1e3, "ms");
    r.set("quant.hqt_ms", k.hqtS() * 1e3, "ms");
    r.set("nn.other_ms", otherMs, "ms");
    r.set("nn.final_loss", finalLoss(first.losses), "nats");
    return r;
}

} // namespace cq::perfbench
