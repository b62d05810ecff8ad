#include "hybrid/sc_first_layer_fast.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace scbnn::hybrid {

namespace {

bool all_zero(const std::uint64_t* stream, std::size_t words) {
  return std::all_of(stream, stream + words,
                     [](std::uint64_t w) { return w == 0; });
}

/// Writes table[b] = sign * popcount(in[b] & x) for every pixel level
/// b < levels, where in[b] is the input comparator SNG's level-b stream
/// (bit t set iff seq[t] < b). That count is #{t in x : seq[t] < b}, so the
/// table is a prefix sum over levels of the histogram of seq on the cycles
/// x keeps. Returns false when the table is zero at every level, that is,
/// when its last, largest entry is.
template <typename T>
bool count_table(const std::vector<std::uint32_t>& seq, std::size_t levels,
                 const std::uint64_t* x, int sign, T* table) {
  // table[v + 1] first counts x's cycles with seq[t] == v.
  std::fill_n(table, levels, T{0});
  for (std::size_t w = 0; 64 * w < seq.size(); ++w) {
    for (std::uint64_t kept = x[w]; kept != 0; kept &= kept - 1) {
      const std::size_t t =
          64 * w + static_cast<std::size_t>(std::countr_zero(kept));
      const std::size_t v = std::size_t{seq[t]} + 1;
      if (v < levels) table[v] = static_cast<T>(table[v] + sign);
    }
  }
  for (std::size_t b = 1; b < levels; ++b) {
    table[b] = static_cast<T>(table[b] + table[b - 1]);
  }
  return table[levels - 1] != 0;
}

}  // namespace

FastStochasticFirstLayer::FastStochasticFirstLayer(
    Style style, const nn::QuantizedConvWeights& weights,
    const FirstLayerConfig& config)
    : style_(style),
      bits_(config.bits),
      n_(std::size_t{1} << config.bits),
      kernels_(static_cast<int>(weights.kernels.size())) {
  if (weights.bits != config.bits) {
    throw std::invalid_argument("FastStochasticFirstLayer: bits mismatch");
  }
  if (weights.kernel_size != kKernelSize || weights.in_channels != 1) {
    throw std::invalid_argument(
        "FastStochasticFirstLayer: unsupported geometry");
  }
  if (bits_ > 14) {  // counts and their differences must fit int16
    throw std::invalid_argument("FastStochasticFirstLayer: bits > 14");
  }
  const std::size_t words = (n_ + 63) / 64;
  const std::size_t levels = n_ + 1;

  // Same stream sources as the reference engine — bit-identity starts
  // here: the input comparator's sequence, and the packed weight streams.
  const std::vector<std::uint32_t> seq =
      detail::sc_input_sequence(style_, bits_, config.seed, n_);
  const std::vector<std::uint64_t> wtable =
      detail::sc_weight_level_table(style_, bits_, config.seed, n_, words);
  // Level-0 streams must be all-zero: the padded level image reads level 0
  // outside the image (the reference's zero padding), and a weight feeds
  // only its own sign's tree (the other sign's leaf is level 0). Every
  // count table's level-0 entry is zero by construction; the weight
  // streams are checked.
  if (!all_zero(wtable.data(), words)) {
    throw std::logic_error(
        "FastStochasticFirstLayer: level-0 weight stream is not all-zero");
  }

  // The reference comparator, tabulated over every count difference.
  const double count_to_value = 32.0 / static_cast<double>(n_);
  const double threshold = config.soft_threshold;
  sign_.resize(2 * n_ + 1);
  for (std::size_t i = 0; i < sign_.size(); ++i) {
    const double v =
        static_cast<double>(static_cast<long>(i) - static_cast<long>(n_)) *
        count_to_value;
    sign_[i] = v > threshold ? 1.0f : (v < -threshold ? -1.0f : 0.0f);
  }

  const auto level_of = [&](int k, int t) {
    const int w = weights.kernels[static_cast<std::size_t>(k)]
                      .levels[static_cast<std::size_t>(t)];
    if (w < -static_cast<int>(n_) || w > static_cast<int>(n_)) {
      throw std::invalid_argument(
          "FastStochasticFirstLayer: weight level out of range");
    }
    return w;
  };

  if (style_ == Style::kProposed) {
    // One count table per live magnitude: count[level] =
    // popcount(in[level] & w[mag]). A magnitude whose table is all zero
    // (magnitude 0 at least) leaves its taps null.
    std::vector<std::int32_t> map_of(levels, -2);  // -2: not built yet
    leaf_map_.assign(static_cast<std::size_t>(kernels_) * 2 * kFanIn, -1);
    for (int k = 0; k < kernels_; ++k) {
      for (int t = 0; t < kFanIn; ++t) {
        const int w = level_of(k, t);
        const auto mag = static_cast<std::size_t>(w < 0 ? -w : w);
        if (map_of[mag] == -2) {
          const std::size_t at = counts_.size();
          counts_.resize(at + levels);
          const bool live = count_table(seq, levels,
                                        wtable.data() + mag * words, 1,
                                        counts_.data() + at);
          map_of[mag] = live ? static_cast<std::int32_t>(at / levels) : -1;
          if (!live) counts_.resize(at);
        }
        const int tree = w < 0 ? 1 : 0;
        leaf_map_[(static_cast<std::size_t>(k) * 2 + tree) * kFanIn + t] =
            map_of[mag];
      }
    }
    return;
  }

  // Conventional: one signed table per distinct live (tap, weight level),
  // sign(w) * popcount(in[level] & w[|w|] & M_t).
  const std::vector<std::uint64_t> masks =
      detail::sc_mux_leaf_masks(bits_, config.seed, n_, words);
  const std::size_t span = 2 * n_ + 1;  // signed weight levels per tap
  std::vector<std::int32_t> table_of(kFanIn * span, -2);  // -2: not built
  std::vector<std::uint64_t> routed(words);
  kernel_taps_.push_back(0);
  for (int k = 0; k < kernels_; ++k) {
    for (int t = 0; t < kFanIn; ++t) {
      const int w = level_of(k, t);
      std::int32_t& index =
          table_of[static_cast<std::size_t>(t) * span +
                   static_cast<std::size_t>(w + static_cast<int>(n_))];
      if (index == -2) {
        const auto mag = static_cast<std::size_t>(w < 0 ? -w : w);
        for (std::size_t i = 0; i < words; ++i) {
          routed[i] = wtable[mag * words + i] &
                      masks[static_cast<std::size_t>(t) * words + i];
        }
        const std::size_t at = tap_tables_.size();
        tap_tables_.resize(at + levels);
        const bool live = count_table(seq, levels, routed.data(),
                                      w < 0 ? -1 : 1, tap_tables_.data() + at);
        index = live ? static_cast<std::int32_t>(at / levels) : -1;
        if (!live) tap_tables_.resize(at);
      }
      if (index >= 0) {
        const auto offset = static_cast<std::uint32_t>(
            (t / kKernelSize) * kPadded + t % kKernelSize);
        live_taps_.push_back({offset, static_cast<std::uint32_t>(index)});
      }
    }
    kernel_taps_.push_back(static_cast<std::uint32_t>(live_taps_.size()));
  }
}

std::unique_ptr<FirstLayerEngine::Scratch>
FastStochasticFirstLayer::make_scratch() const {
  if (style_ == Style::kProposed) {
    const std::size_t maps = counts_.size() / (n_ + 1);
    return std::make_unique<CountScratch>(maps * kMapSize,
                                          (kSlots / 2 + 2) * kLanes);
  }
  return std::make_unique<CountScratch>(0, 0);
}

void FastStochasticFirstLayer::compute(const float* image, float* out,
                                       Scratch& scratch) const {
  auto& s = dynamic_cast<CountScratch&>(scratch);
  const auto full = static_cast<double>(n_);
  // Identical pixel quantization to the reference engine, into the
  // interior of the padded image (the pads were zeroed at construction).
  for (int iy = 0; iy < kImageSize; ++iy) {
    std::uint16_t* row = s.levels.data() + (iy + kPad) * kPadded + kPad;
    for (int ix = 0; ix < kImageSize; ++ix) {
      const float p = image[iy * kImageSize + ix];
      const float v = p < 0.0f ? 0.0f : (p > 1.0f ? 1.0f : p);
      row[ix] = static_cast<std::uint16_t>(
          std::lround(static_cast<double>(v) * full));
    }
  }
  if (style_ == Style::kProposed) {
    // One count map per live magnitude, over the whole padded image.
    const std::size_t maps = counts_.size() / (n_ + 1);
    for (std::size_t d = 0; d < maps; ++d) {
      const std::uint16_t* table = counts_.data() + d * (n_ + 1);
      std::uint16_t* map = s.maps.data() + d * kMapSize;
      for (std::size_t i = 0; i < kMapSize; ++i) map[i] = table[s.levels[i]];
    }
  }

  for (int k = 0; k < kernels_; ++k) {
    if (style_ == Style::kProposed) {
      tff_diff(k, s);
    } else {
      mux_diff(k, s);
    }
    float* feat = out + static_cast<std::size_t>(k) * kOutputsPerKernel;
    const float* sign = sign_.data() + n_;
    for (int oy = 0; oy < kImageSize; ++oy) {
      const std::int16_t* d = s.diff.data() + oy * kPadded;
      for (int ox = 0; ox < kImageSize; ++ox) {
        feat[oy * kImageSize + ox] = sign[d[ox]];
      }
    }
  }
}

void FastStochasticFirstLayer::tff_diff(int k, CountScratch& s) const {
  // 16 node banks, reused by both trees, then one root buffer per tree.
  std::uint16_t* bank = s.nodes.data();
  std::uint16_t* root_out[2] = {bank + (kSlots / 2) * kLanes,
                                bank + (kSlots / 2 + 1) * kLanes};
  const std::uint16_t* root[2];
  for (int tree = 0; tree < 2; ++tree) {
    const std::int32_t* maps =
        leaf_map_.data() + (static_cast<std::size_t>(k) * 2 + tree) * kFanIn;
    const std::uint16_t* node[kSlots] = {};  // pad leaves stay null
    for (int t = 0; t < kFanIn; ++t) {
      if (maps[t] >= 0) {
        node[t] = s.maps.data() + static_cast<std::size_t>(maps[t]) * kMapSize +
                  (t / kKernelSize) * kPadded + t % kKernelSize;
      }
    }
    // Level-order reduction, numbered like the reference tree; the pair
    // (i, i+1) lands in slot i/2, which the sweep has already consumed.
    unsigned id = 0;
    for (int count = kSlots; count > 1; count /= 2) {
      for (int i = 0; i < count; i += 2, ++id) {
        const std::uint16_t* a = node[i];
        const std::uint16_t* b = node[i + 1];
        if (a == nullptr && b == nullptr) {
          node[i / 2] = nullptr;
          continue;
        }
        if (a == nullptr) std::swap(a, b);  // the node's sum is symmetric
        std::uint16_t* z =
            count == 2 ? root_out[tree] : bank + (i / 2) * kLanes;
        const unsigned s0 = id % 2;
        if (b == nullptr) {
          for (std::size_t j = 0; j < kLanes; ++j) {
            z[j] = static_cast<std::uint16_t>((a[j] + s0) >> 1);
          }
        } else {
          for (std::size_t j = 0; j < kLanes; ++j) {
            z[j] = static_cast<std::uint16_t>((a[j] + b[j] + s0) >> 1);
          }
        }
        node[i / 2] = z;
      }
    }
    root[tree] = node[0];
  }
  std::int16_t* diff = s.diff.data();
  for (std::size_t j = 0; j < kLanes; ++j) {
    const int pos = root[0] != nullptr ? root[0][j] : 0;
    const int neg = root[1] != nullptr ? root[1][j] : 0;
    diff[j] = static_cast<std::int16_t>(pos - neg);
  }
}

void FastStochasticFirstLayer::mux_diff(int k, CountScratch& s) const {
  std::int16_t* diff = s.diff.data();
  std::fill(diff, diff + kLanes, std::int16_t{0});
  const std::uint16_t* levels = s.levels.data();
  for (std::uint32_t i = kernel_taps_[static_cast<std::size_t>(k)];
       i < kernel_taps_[static_cast<std::size_t>(k) + 1]; ++i) {
    const LiveTap& tap = live_taps_[i];
    const std::int16_t* table =
        tap_tables_.data() + static_cast<std::size_t>(tap.table) * (n_ + 1);
    const std::uint16_t* lev = levels + tap.offset;
    for (std::size_t j = 0; j < kLanes; ++j) {
      diff[j] = static_cast<std::int16_t>(diff[j] + table[lev[j]]);
    }
  }
}

}  // namespace scbnn::hybrid
