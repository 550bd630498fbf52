/**
 * @file
 * Implementation of the synthetic datasets.
 */

#include "nn/datasets.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "nn/activation.h"
#include "nn/linear.h"

namespace cq::nn {

PatternImageDataset::PatternImageDataset(std::size_t num_classes,
                                         std::size_t channels,
                                         std::size_t height,
                                         std::size_t width, double noise,
                                         std::uint64_t seed)
    : numClasses_(num_classes),
      channels_(channels),
      height_(height),
      width_(width),
      noise_(noise),
      seed_(seed),
      rng_(seed)
{
    CQ_ASSERT(num_classes >= 2);
}

Batch
PatternImageDataset::generate(std::size_t batch_size, Rng &rng) const
{
    Batch batch;
    batch.inputs = Tensor({batch_size, channels_, height_, width_});
    batch.labels.resize(batch_size);
    for (std::size_t n = 0; n < batch_size; ++n) {
        const int label =
            static_cast<int>(rng.below(numClasses_));
        batch.labels[n] = label;
        // Class determines grating orientation and frequency; phase is
        // random so the network must learn the pattern, not pixels.
        const double angle =
            M_PI * static_cast<double>(label) /
            static_cast<double>(numClasses_);
        const double freq =
            0.25 + 0.10 * static_cast<double>(label % 5);
        const double phase = rng.uniform(0.0, 2.0 * M_PI);
        const double cx = std::cos(angle), sx = std::sin(angle);
        for (std::size_t c = 0; c < channels_; ++c) {
            const double chan_shift =
                static_cast<double>(c) * 0.5 * M_PI;
            for (std::size_t y = 0; y < height_; ++y) {
                for (std::size_t x = 0; x < width_; ++x) {
                    const double u =
                        cx * static_cast<double>(x) +
                        sx * static_cast<double>(y);
                    double v = std::sin(freq * u + phase + chan_shift);
                    v += rng.gaussian(0.0, noise_);
                    batch.inputs.at4(n, c, y, x) =
                        static_cast<float>(v);
                }
            }
        }
    }
    return batch;
}

Batch
PatternImageDataset::sample(std::size_t batch_size)
{
    return generate(batch_size, rng_);
}

Batch
PatternImageDataset::evalSet(std::size_t size) const
{
    Rng rng(seed_ ^ 0xe7a1u);
    return generate(size, rng);
}

SpiralDataset::SpiralDataset(std::size_t num_classes, double noise,
                             std::uint64_t seed)
    : numClasses_(num_classes), noise_(noise), seed_(seed), rng_(seed)
{
    CQ_ASSERT(num_classes >= 2);
}

Batch
SpiralDataset::generate(std::size_t batch_size, Rng &rng) const
{
    Batch batch;
    batch.inputs = Tensor({batch_size, std::size_t(2)});
    batch.labels.resize(batch_size);
    for (std::size_t n = 0; n < batch_size; ++n) {
        const int label = static_cast<int>(rng.below(numClasses_));
        batch.labels[n] = label;
        const double t = rng.uniform(0.25, 3.0);
        const double arm =
            2.0 * M_PI * static_cast<double>(label) /
            static_cast<double>(numClasses_);
        const double theta = arm + t * 2.0;
        batch.inputs.at2(n, 0) = static_cast<float>(
            t * std::cos(theta) + rng.gaussian(0.0, noise_));
        batch.inputs.at2(n, 1) = static_cast<float>(
            t * std::sin(theta) + rng.gaussian(0.0, noise_));
    }
    return batch;
}

Batch
SpiralDataset::sample(std::size_t batch_size)
{
    return generate(batch_size, rng_);
}

Batch
SpiralDataset::evalSet(std::size_t size) const
{
    Rng rng(seed_ ^ 0x5e4au);
    return generate(size, rng);
}

Network
makeSpiralMlp(std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Linear>("fc1", 2, 32, rng));
    net.add(std::make_unique<Activation>("t", ActKind::Tanh));
    net.add(std::make_unique<Linear>("fc2", 32, 2, rng));
    return net;
}

MarkovTextDataset::MarkovTextDataset(std::size_t vocab,
                                     std::uint64_t seed)
    : vocab_(vocab), seed_(seed), rng_(seed)
{
    CQ_ASSERT(vocab >= 4);
    // Build a sparse transition table over (prev) -> next: each token
    // has 3 likely successors; this keeps per-token entropy around
    // log2(3) bits << log2(vocab).
    Rng gen(seed ^ 0x7ab1e5u);
    transitions_.resize(vocab_);
    for (std::size_t a = 0; a < vocab_; ++a) {
        transitions_[a].assign(vocab_, 0.01f);
        for (int k = 0; k < 3; ++k) {
            const std::size_t succ = gen.below(vocab_);
            transitions_[a][succ] += k == 0 ? 0.6f : 0.2f;
        }
        float sum = 0.0f;
        for (float p : transitions_[a])
            sum += p;
        for (float &p : transitions_[a])
            p /= sum;
    }
}

SequenceBatch
MarkovTextDataset::generate(std::size_t seq_len, std::size_t batch_size,
                            Rng &rng) const
{
    SequenceBatch out;
    out.seqLen = seq_len;
    out.batch = batch_size;
    out.vocab = vocab_;
    out.inputs = Tensor({seq_len, batch_size, vocab_});
    out.targets.assign(seq_len * batch_size, 0);

    for (std::size_t b = 0; b < batch_size; ++b) {
        std::size_t tok = rng.below(vocab_);
        for (std::size_t t = 0; t < seq_len; ++t) {
            out.inputs[(t * batch_size + b) * vocab_ + tok] = 1.0f;
            // Draw the successor from the transition row.
            const auto &row = transitions_[tok];
            double u = rng.uniform();
            std::size_t next = vocab_ - 1;
            for (std::size_t v = 0; v < vocab_; ++v) {
                u -= row[v];
                if (u <= 0.0) {
                    next = v;
                    break;
                }
            }
            out.targets[t * batch_size + b] = static_cast<int>(next);
            tok = next;
        }
    }
    return out;
}

SequenceBatch
MarkovTextDataset::sample(std::size_t seq_len, std::size_t batch_size)
{
    return generate(seq_len, batch_size, rng_);
}

SequenceBatch
MarkovTextDataset::evalSet(std::size_t seq_len,
                           std::size_t batch_size) const
{
    Rng rng(seed_ ^ 0xea1fu);
    return generate(seq_len, batch_size, rng);
}

SequenceRuleDataset::SequenceRuleDataset(std::size_t num_classes,
                                         std::size_t vocab,
                                         std::size_t seq_len,
                                         std::uint64_t seed)
    : numClasses_(num_classes),
      vocab_(vocab),
      seqLen_(seq_len),
      seed_(seed),
      rng_(seed)
{
    CQ_ASSERT(num_classes >= 2 && vocab >= num_classes + 4 &&
              seq_len >= 8);
}

Batch
SequenceRuleDataset::generate(std::size_t batch_size, Rng &rng) const
{
    // Tokens 0..3 are markers; the class determines the cyclic
    // rotation applied to the marker subsequence [0,1,2,3] before it
    // is scattered (in order) into a noise sequence.
    Batch batch;
    batch.inputs = Tensor({batch_size * seqLen_, vocab_});
    batch.labels.resize(batch_size);
    for (std::size_t b = 0; b < batch_size; ++b) {
        const int label = static_cast<int>(rng.below(numClasses_));
        batch.labels[b] = label;

        std::vector<std::size_t> tokens(seqLen_);
        for (std::size_t t = 0; t < seqLen_; ++t)
            tokens[t] = 4 + rng.below(vocab_ - 4); // noise tokens

        // Choose 4 ordered positions for the markers.
        std::vector<std::size_t> pos;
        while (pos.size() < 4) {
            const std::size_t p = rng.below(seqLen_);
            bool dup = false;
            for (std::size_t q : pos)
                dup = dup || q == p;
            if (!dup)
                pos.push_back(p);
        }
        std::sort(pos.begin(), pos.end());
        for (std::size_t k = 0; k < 4; ++k)
            tokens[pos[k]] = (k + static_cast<std::size_t>(label)) % 4;

        for (std::size_t t = 0; t < seqLen_; ++t)
            batch.inputs.at2(b * seqLen_ + t, tokens[t]) = 1.0f;
    }
    return batch;
}

Batch
SequenceRuleDataset::sample(std::size_t batch_size)
{
    return generate(batch_size, rng_);
}

Batch
SequenceRuleDataset::evalSet(std::size_t size) const
{
    Rng rng(seed_ ^ 0x5ef1u);
    return generate(size, rng);
}

} // namespace cq::nn
