#include "hybrid/fully_stochastic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <stdexcept>

#include "sc/adder_tree.h"
#include "sc/bitstream.h"
#include "sc/fsm.h"
#include "sc/gates.h"
#include "sc/lfsr.h"

namespace scbnn::hybrid {

namespace {

using sc::Bitstream;

/// Bipolar value -> SNG level on an N-step grid: p = (v + 1) / 2.
std::uint32_t bipolar_level(double v, std::size_t n) {
  v = std::clamp(v, -1.0, 1.0);
  return static_cast<std::uint32_t>(
      std::lround((v + 1.0) / 2.0 * static_cast<double>(n)));
}

/// Level-indexed stream table over a 16-bit LFSR source truncated to
/// log2(N) significant bits — one shared generator per bank, as hardware
/// would amortize it.
std::vector<Bitstream> lfsr_level_table(std::uint32_t seed,
                                        std::uint32_t taps, unsigned log2_n) {
  const std::size_t n = std::size_t{1} << log2_n;
  sc::Lfsr src(16, sc::fold_lfsr_seed(16, seed), taps);
  std::vector<std::uint32_t> seq(n);
  for (auto& v : seq) v = src.next() >> (16 - log2_n);
  std::vector<Bitstream> table(n + 1);
  for (std::uint32_t level = 0; level <= n; ++level) {
    Bitstream s(n);
    for (std::size_t t = 0; t < n; ++t) {
      if (seq[t] < level) s.set_bit(t, true);
    }
    table[level] = std::move(s);
  }
  return table;
}

/// One fully-connected stochastic layer pass.
struct LayerBanks {
  const std::vector<std::vector<std::uint32_t>>* tap_seqs;
  std::size_t n;
  unsigned log2_n;
  std::uint32_t seed;
};

/// Per-tap weight stream from a DEDICATED source sequence. A single shared
/// weight SNG would make every product term see the same generator noise:
/// XNOR multiplication is maximally correlation-sensitive near bipolar
/// zero (where trained weights live), so those per-term errors add
/// coherently across a 785-tap sum instead of averaging out. Accurate APC
/// designs therefore spend one SNG per tap; we model that best case.
Bitstream tap_weight_stream(float w, std::size_t tap,
                            const LayerBanks& banks) {
  const auto& seq = (*banks.tap_seqs)[tap];
  const std::uint32_t level = bipolar_level(w, banks.n);
  Bitstream s(banks.n);
  for (std::size_t t = 0; t < banks.n; ++t) {
    if (seq[t] < level) s.set_bit(t, true);
  }
  return s;
}

/// APC neuron: count 1s across all XNOR product streams into a binary
/// accumulator; pre-activation = 2*T/N - fan_in.
double apc_neuron(const std::vector<const Bitstream*>& inputs,
                  const float* weights, float bias, const LayerBanks& banks) {
  const std::size_t fan_in = inputs.size() + 1;  // + bias tap
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Bitstream w = tap_weight_stream(weights[i], i, banks);
    total += sc::xnor_multiply_bipolar(*inputs[i], w).count_ones();
  }
  const Bitstream ones = Bitstream::constant(banks.n, true);
  total += sc::xnor_multiply_bipolar(
               ones, tap_weight_stream(bias, inputs.size(), banks))
               .count_ones();
  return 2.0 * static_cast<double>(total) / static_cast<double>(banks.n) -
         static_cast<double>(fan_in);
}

/// MUX-tree neuron: classic scaled adder tree; returns the root stream fed
/// through a stanh FSM sized to undo the tree scale (bit-exact sequential
/// simulation).
Bitstream mux_tree_neuron(const std::vector<const Bitstream*>& inputs,
                          const float* weights, float bias, float scale,
                          const LayerBanks& banks, std::uint32_t select_base) {
  const std::size_t fan_in = inputs.size() + 1;
  const std::size_t leaves = std::size_t{1} << sc::tree_levels(fan_in);
  std::vector<Bitstream> products;
  products.reserve(leaves);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    products.push_back(sc::xnor_multiply_bipolar(
        *inputs[i], tap_weight_stream(weights[i], i, banks)));
  }
  const Bitstream ones = Bitstream::constant(banks.n, true);
  products.push_back(sc::xnor_multiply_bipolar(
      ones, tap_weight_stream(bias, inputs.size(), banks)));
  // Pad with bipolar-zero streams so padding is value-neutral.
  const Bitstream zero = tap_weight_stream(0.0f, inputs.size(), banks);
  while (products.size() < leaves) products.push_back(zero);

  const Bitstream root = sc::mux_adder_tree(
      products, [&banks, select_base](std::size_t node) {
        sc::Lfsr sel(16, sc::fold_lfsr_seed(
                             16, static_cast<std::uint32_t>(select_base +
                                                            977 * node)));
        Bitstream s(banks.n);
        for (std::size_t t = 0; t < banks.n; ++t) {
          if ((sel.next() >> 15) != 0u) s.set_bit(t, true);
        }
        return s;
      });
  // FSM gain undoes both the tree's 1/leaves scale and the weight scaling:
  // tanh((K/2) * (scale * pre / leaves)) = tanh(pre) for K = 2*leaves/scale.
  unsigned states = static_cast<unsigned>(
      std::lround(2.0 * static_cast<double>(leaves) / scale / 2.0) * 2);
  if (states < 2) states = 2;
  sc::StochasticTanh stanh(states);
  return stanh.transform(root);
}

}  // namespace

FullyStochasticMlp::FullyStochasticMlp(const nn::Tensor& w1,
                                       const nn::Tensor& b1,
                                       const nn::Tensor& w2,
                                       const nn::Tensor& b2,
                                       const FullyStochasticConfig& config)
    : log2_n_(config.log2_n),
      n_(std::size_t{1} << config.log2_n),
      hidden_(w1.dim(0)),
      accumulator_(config.accumulator),
      seed_(config.seed) {
  if (config.log2_n < 4 || config.log2_n > 14) {
    throw std::invalid_argument("FullyStochasticMlp: log2_n must be in [4,14]");
  }
  if (w1.rank() != 2 || w1.dim(1) != kInputs || w2.rank() != 2 ||
      w2.dim(0) != 10 || w2.dim(1) != hidden_) {
    throw std::invalid_argument("FullyStochasticMlp: bad weight shapes");
  }
  auto clamp_copy = [](const nn::Tensor& t) {
    std::vector<float> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      out[i] = std::clamp(t[i], -1.0f, 1.0f);
    }
    return out;
  };
  w1_ = clamp_copy(w1);
  b1_ = clamp_copy(b1);
  w2_ = clamp_copy(w2);
  b2_ = clamp_copy(b2);

  // Per-neuron weight scaling (Kim et al. [16], the same technique the
  // paper's first layer uses): encode w * s with s = 1/max|row| so streams
  // use the full bipolar range (less XNOR noise), then divide the binary
  // accumulator output by s. Exact for the APC path since the division
  // happens in binary.
  auto row_scales = [](std::vector<float>& w, std::vector<float>& b,
                       int rows, int cols) {
    std::vector<float> scales(static_cast<std::size_t>(rows), 1.0f);
    for (int r = 0; r < rows; ++r) {
      float maxabs = std::abs(b[static_cast<std::size_t>(r)]);
      for (int c = 0; c < cols; ++c) {
        maxabs = std::max(maxabs,
                          std::abs(w[static_cast<std::size_t>(r) * cols + c]));
      }
      if (maxabs < 1e-6f) maxabs = 1.0f;
      scales[static_cast<std::size_t>(r)] = maxabs;
      for (int c = 0; c < cols; ++c) {
        w[static_cast<std::size_t>(r) * cols + c] /= maxabs;
      }
      b[static_cast<std::size_t>(r)] /= maxabs;
    }
    return scales;
  };
  scale1_ = row_scales(w1_, b1_, hidden_, kInputs);
  scale2_ = row_scales(w2_, b2_, 10, hidden_);
}

FullyStochasticMlp::Result FullyStochasticMlp::infer(
    const float* image) const {
  // Input SNG: one shared LFSR (streams vary only by level). Weight SNGs:
  // one dedicated pseudo-random sequence per tap (see tap_weight_stream).
  const auto input_table =
      lfsr_level_table(seed_ + 1, sc::maximal_lfsr_taps(16), log2_n_);
  std::vector<std::vector<std::uint32_t>> tap_seqs(
      static_cast<std::size_t>(kInputs) + 1);
  {
    std::mt19937 gen(seed_ + 2);
    std::uniform_int_distribution<std::uint32_t> dist(
        0, static_cast<std::uint32_t>(n_) - 1);
    for (auto& seq : tap_seqs) {
      seq.resize(n_);
      for (auto& v : seq) v = dist(gen);
    }
  }
  const LayerBanks banks{&tap_seqs, n_, log2_n_, seed_};

  // Input encoding (pixel in [0,1] used directly as a bipolar value).
  std::vector<Bitstream> x_streams(kInputs);
  std::vector<const Bitstream*> x_ptrs(kInputs);
  for (int i = 0; i < kInputs; ++i) {
    x_streams[static_cast<std::size_t>(i)] =
        input_table[bipolar_level(image[i], n_)];
    x_ptrs[static_cast<std::size_t>(i)] =
        &x_streams[static_cast<std::size_t>(i)];
  }

  Result r;
  r.hidden.resize(static_cast<std::size_t>(hidden_));
  std::vector<Bitstream> hidden_streams;
  std::vector<const Bitstream*> hidden_ptrs(
      static_cast<std::size_t>(hidden_));

  if (accumulator_ == ScAccumulator::kApc) {
    // APC: binary accumulate -> binary tanh -> re-encode for layer 2.
    for (int h = 0; h < hidden_; ++h) {
      const double pre =
          apc_neuron(x_ptrs, w1_.data() + static_cast<std::size_t>(h) * kInputs,
                     b1_[static_cast<std::size_t>(h)], banks) *
          scale1_[static_cast<std::size_t>(h)];
      r.hidden[static_cast<std::size_t>(h)] = std::tanh(pre);
    }
    hidden_streams.resize(static_cast<std::size_t>(hidden_));
    for (int h = 0; h < hidden_; ++h) {
      hidden_streams[static_cast<std::size_t>(h)] =
          input_table[bipolar_level(r.hidden[static_cast<std::size_t>(h)], n_)];
      hidden_ptrs[static_cast<std::size_t>(h)] =
          &hidden_streams[static_cast<std::size_t>(h)];
    }
    for (int o = 0; o < 10; ++o) {
      r.logits[static_cast<std::size_t>(o)] =
          apc_neuron(hidden_ptrs,
                     w2_.data() + static_cast<std::size_t>(o) * hidden_,
                     b2_[static_cast<std::size_t>(o)], banks) *
          scale2_[static_cast<std::size_t>(o)];
    }
  } else {
    // MUX tree + stanh: the hidden STREAM feeds layer 2 directly.
    hidden_streams.resize(static_cast<std::size_t>(hidden_));
    for (int h = 0; h < hidden_; ++h) {
      hidden_streams[static_cast<std::size_t>(h)] = mux_tree_neuron(
          x_ptrs, w1_.data() + static_cast<std::size_t>(h) * kInputs,
          b1_[static_cast<std::size_t>(h)],
          scale1_[static_cast<std::size_t>(h)], banks,
          seed_ + 101 + static_cast<std::uint32_t>(h) * 7919);
      r.hidden[static_cast<std::size_t>(h)] =
          hidden_streams[static_cast<std::size_t>(h)].bipolar();
      hidden_ptrs[static_cast<std::size_t>(h)] =
          &hidden_streams[static_cast<std::size_t>(h)];
    }
    for (int o = 0; o < 10; ++o) {
      // Output layer: scaled tree + counter; descale to logit units.
      const std::size_t fan2 = static_cast<std::size_t>(hidden_) + 1;
      const std::size_t leaves2 = std::size_t{1} << sc::tree_levels(fan2);
      std::vector<Bitstream> products;
      products.reserve(leaves2);
      for (int h = 0; h < hidden_; ++h) {
        products.push_back(sc::xnor_multiply_bipolar(
            *hidden_ptrs[static_cast<std::size_t>(h)],
            tap_weight_stream(w2_[static_cast<std::size_t>(o) * hidden_ + h],
                              static_cast<std::size_t>(h), banks)));
      }
      products.push_back(sc::xnor_multiply_bipolar(
          Bitstream::constant(n_, true),
          tap_weight_stream(b2_[static_cast<std::size_t>(o)],
                            static_cast<std::size_t>(hidden_), banks)));
      const Bitstream zero =
          tap_weight_stream(0.0f, static_cast<std::size_t>(hidden_), banks);
      while (products.size() < leaves2) products.push_back(zero);
      const std::uint32_t base =
          seed_ + 50021 + static_cast<std::uint32_t>(o) * 104729;
      const Bitstream root =
          sc::mux_adder_tree(products, [this, base](std::size_t node) {
            sc::Lfsr sel(16, sc::fold_lfsr_seed(
                                 16, static_cast<std::uint32_t>(base +
                                                                977 * node)));
            Bitstream s(n_);
            for (std::size_t t = 0; t < n_; ++t) {
              if ((sel.next() >> 15) != 0u) s.set_bit(t, true);
            }
            return s;
          });
      r.logits[static_cast<std::size_t>(o)] =
          root.bipolar() * static_cast<double>(leaves2) *
          scale2_[static_cast<std::size_t>(o)];
    }
  }

  r.predicted = static_cast<int>(
      std::max_element(r.logits.begin(), r.logits.end()) - r.logits.begin());
  return r;
}

FullyStochasticMlp::Result FullyStochasticMlp::reference(
    const float* image) const {
  Result r;
  r.hidden.resize(static_cast<std::size_t>(hidden_));
  for (int h = 0; h < hidden_; ++h) {
    double acc = b1_[static_cast<std::size_t>(h)];
    for (int i = 0; i < kInputs; ++i) {
      acc += static_cast<double>(image[i]) *
             w1_[static_cast<std::size_t>(h) * kInputs + i];
    }
    r.hidden[static_cast<std::size_t>(h)] =
        std::tanh(acc * scale1_[static_cast<std::size_t>(h)]);
  }
  for (int o = 0; o < 10; ++o) {
    double acc = b2_[static_cast<std::size_t>(o)];
    for (int h = 0; h < hidden_; ++h) {
      acc += r.hidden[static_cast<std::size_t>(h)] *
             w2_[static_cast<std::size_t>(o) * hidden_ + h];
    }
    r.logits[static_cast<std::size_t>(o)] =
        acc * scale2_[static_cast<std::size_t>(o)];
  }
  r.predicted = static_cast<int>(
      std::max_element(r.logits.begin(), r.logits.end()) - r.logits.begin());
  return r;
}

double FullyStochasticMlp::hidden_rms_error(const Result& sc,
                                            const Result& ref) {
  double acc = 0.0;
  for (std::size_t i = 0; i < sc.hidden.size(); ++i) {
    const double d = sc.hidden[i] - ref.hidden[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(sc.hidden.size()));
}

double FullyStochasticMlp::logit_rms_error(const Result& sc,
                                           const Result& ref) {
  double acc = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const double d = sc.logits[i] - ref.logits[i];
    acc += d * d;
  }
  return std::sqrt(acc / 10.0);
}

}  // namespace scbnn::hybrid
