#include "hybrid/sc_first_layer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "sc/lfsr.h"
#include "sc/lowdisc.h"
#include "sc/packed.h"
#include "sc/rng_source.h"
#include "sc/sng.h"
#include "sc/tff.h"

namespace scbnn::hybrid {

namespace detail {

std::vector<std::uint32_t> sc_input_sequence(ScStyle style, unsigned bits,
                                             std::uint32_t seed,
                                             std::size_t n) {
  if (style == ScStyle::kProposed) {
    sc::RampSource ramp(bits);
    return sc::source_sequence(ramp, n);
  }
  sc::Lfsr lfsr(bits, sc::fold_lfsr_seed(bits, seed));
  return sc::source_sequence(lfsr, n);
}

std::vector<std::uint64_t> sc_input_level_table(ScStyle style, unsigned bits,
                                                std::uint32_t seed,
                                                std::size_t n,
                                                std::size_t words) {
  return sc::packed_level_table(sc_input_sequence(style, bits, seed, n),
                                words, static_cast<std::uint32_t>(n) + 1);
}

std::vector<std::uint64_t> sc_weight_level_table(ScStyle style, unsigned bits,
                                                 std::uint32_t seed,
                                                 std::size_t n,
                                                 std::size_t words) {
  const auto level_count = static_cast<std::uint32_t>(n) + 1;
  if (style == ScStyle::kProposed) {
    sc::VanDerCorputSource vdc(bits);
    return sc::packed_level_table(sc::source_sequence(vdc, n), words,
                                  level_count);
  }
  sc::Lfsr lfsr(bits, sc::fold_lfsr_seed(bits, seed * 2 + 3),
                sc::maximal_lfsr_taps_alt(bits));
  return sc::packed_level_table(sc::source_sequence(lfsr, n), words,
                                level_count);
}

std::vector<std::uint64_t> sc_mux_select_table(unsigned bits,
                                               std::uint32_t seed,
                                               std::size_t n, std::size_t words,
                                               std::size_t nodes) {
  std::vector<std::uint64_t> selects(nodes * words, 0u);
  const std::uint32_t half = std::uint32_t{1} << (bits - 1);
  for (std::size_t nd = 0; nd < nodes; ++nd) {
    sc::Lfsr sel(bits, sc::fold_lfsr_seed(
                           bits, static_cast<std::uint32_t>(seed + 31 + 17 * nd)));
    sel.reset();
    std::uint64_t* dst = selects.data() + nd * words;
    for (std::size_t t = 0; t < n; ++t) {
      if (sel.next() < half) dst[t / 64] |= std::uint64_t{1} << (t % 64);
    }
  }
  return selects;
}

std::vector<std::uint64_t> sc_mux_leaf_masks(unsigned bits,
                                             std::uint32_t seed,
                                             std::size_t n,
                                             std::size_t words) {
  constexpr std::size_t kLeaves = 32;
  const std::vector<std::uint64_t> selects =
      sc_mux_select_table(bits, seed, n, words, kLeaves - 1);
  std::vector<std::uint64_t> masks(kLeaves * words, 0u);
  for (std::size_t t = 0; t < kLeaves; ++t) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t m = sc::low_mask(
          static_cast<unsigned>(std::min<std::size_t>(64, n - 64 * w)));
      // Level l holds nodes [base, base + width); leaf t's ancestor there
      // is node base + (t >> (l + 1)), entered from its (t >> l) & 1 side.
      std::size_t base = 0;
      for (std::size_t l = 0, width = kLeaves / 2; width > 0;
           base += width, width /= 2, ++l) {
        const std::uint64_t sel =
            selects[(base + (t >> (l + 1))) * words + w];
        m &= ((t >> l) & 1u) != 0 ? sel : ~sel;
      }
      masks[t * words + w] = m;
    }
  }
  return masks;
}

}  // namespace detail

StochasticFirstLayer::StochasticFirstLayer(
    Style style, const nn::QuantizedConvWeights& weights,
    const FirstLayerConfig& config)
    : style_(style),
      bits_(config.bits),
      n_(std::size_t{1} << config.bits),
      words_((n_ + 63) / 64),
      kernels_(static_cast<int>(weights.kernels.size())),
      soft_threshold_(config.soft_threshold) {
  if (weights.bits != config.bits) {
    throw std::invalid_argument("StochasticFirstLayer: bits mismatch");
  }
  if (weights.kernel_size != kKernelSize || weights.in_channels != 1) {
    throw std::invalid_argument("StochasticFirstLayer: unsupported geometry");
  }

  input_table_ =
      detail::sc_input_level_table(style_, bits_, config.seed, n_, words_);
  const std::vector<std::uint64_t> wtable =
      detail::sc_weight_level_table(style_, bits_, config.seed, n_, words_);

  wpos_.assign(static_cast<std::size_t>(kernels_) * kFanIn * words_, 0u);
  wneg_.assign(static_cast<std::size_t>(kernels_) * kFanIn * words_, 0u);
  for (int k = 0; k < kernels_; ++k) {
    const auto& lv = weights.kernels[static_cast<std::size_t>(k)].levels;
    for (int t = 0; t < kFanIn; ++t) {
      const int w = lv[static_cast<std::size_t>(t)];
      const std::uint32_t pos = w > 0 ? static_cast<std::uint32_t>(w) : 0;
      const std::uint32_t neg = w < 0 ? static_cast<std::uint32_t>(-w) : 0;
      const std::size_t off =
          (static_cast<std::size_t>(k) * kFanIn + t) * words_;
      for (std::size_t i = 0; i < words_; ++i) {
        wpos_[off + i] = wtable[static_cast<std::size_t>(pos) * words_ + i];
        wneg_[off + i] = wtable[static_cast<std::size_t>(neg) * words_ + i];
      }
    }
  }

  if (style_ == Style::kConventional) {
    selects_ =
        detail::sc_mux_select_table(bits_, config.seed, n_, words_, kSlots - 1);
  }
}

void StochasticFirstLayer::reduce_tree(std::uint64_t* slots) const {
  // In-place pairwise reduction of kSlots streams laid out contiguously
  // (slot s at slots + s*words_). Result lands in slot 0.
  std::size_t count = kSlots;
  std::size_t node = 0;
  while (count > 1) {
    for (std::size_t i = 0; i + 1 < count; i += 2, ++node) {
      const std::uint64_t* a = slots + i * words_;
      const std::uint64_t* b = slots + (i + 1) * words_;
      std::uint64_t* z = slots + (i / 2) * words_;
      if (style_ == Style::kProposed) {
        // TFF adder node; alternating initial states cancel rounding bias.
        sc::tff_add_words(a, b, z, words_, (node % 2) != 0);
      } else {
        const std::uint64_t* sel = selects_.data() + node * words_;
        for (std::size_t wd = 0; wd < words_; ++wd) {
          z[wd] = (sel[wd] & b[wd]) | (~sel[wd] & a[wd]);
        }
      }
    }
    count /= 2;
  }
}

std::unique_ptr<FirstLayerEngine::Scratch> StochasticFirstLayer::make_scratch()
    const {
  return std::make_unique<SlotScratch>(words_);
}

void StochasticFirstLayer::compute(const float* image, float* out,
                                   Scratch& scratch) const {
  auto& banks = dynamic_cast<SlotScratch&>(scratch);
  const auto full = static_cast<double>(n_);
  // Quantize pixels to levels once per image (the analog-to-stochastic
  // converter's resolution).
  std::uint32_t x[kImageSize * kImageSize];
  for (int i = 0; i < kImageSize * kImageSize; ++i) {
    const float v = image[i] < 0.0f ? 0.0f : (image[i] > 1.0f ? 1.0f : image[i]);
    x[i] = static_cast<std::uint32_t>(
        std::lround(static_cast<double>(v) * full));
  }

  std::vector<std::uint64_t>& pos_slots = banks.pos;
  std::vector<std::uint64_t>& neg_slots = banks.neg;

  // Normalized value of one count difference: counts encode dot/(32*N) of
  // unit-range inputs; multiply back by 32/N to get dot in [-25, 25] units.
  const double count_to_value = 32.0 / full;

  for (int k = 0; k < kernels_; ++k) {
    const std::uint64_t* wp =
        wpos_.data() + static_cast<std::size_t>(k) * kFanIn * words_;
    const std::uint64_t* wn =
        wneg_.data() + static_cast<std::size_t>(k) * kFanIn * words_;
    float* feat = out + static_cast<std::size_t>(k) * kOutputsPerKernel;

    for (int oy = 0; oy < kImageSize; ++oy) {
      for (int ox = 0; ox < kImageSize; ++ox) {
        // AND multipliers: every tap slot is (re)written each position —
        // a product stream when the tap lands in the image, zero otherwise
        // (the tree reduction clobbered slots 0..15 last position). The 7
        // pad slots are never written by the tap loop or the tree, so the
        // scratch's zero-initialization keeps them zero forever and no
        // full-bank clear is needed.
        for (int tap = 0; tap < kFanIn; ++tap) {
          const int iy = oy + tap / kKernelSize - kPad;
          const int ix = ox + tap % kKernelSize - kPad;
          std::uint64_t* ps =
              pos_slots.data() + static_cast<std::size_t>(tap) * words_;
          std::uint64_t* ns =
              neg_slots.data() + static_cast<std::size_t>(tap) * words_;
          if (iy < 0 || iy >= kImageSize || ix < 0 || ix >= kImageSize) {
            for (std::size_t wd = 0; wd < words_; ++wd) {
              ps[wd] = 0;
              ns[wd] = 0;
            }
            continue;
          }
          const std::uint64_t* xs =
              input_table_.data() +
              static_cast<std::size_t>(x[iy * kImageSize + ix]) * words_;
          const std::uint64_t* wps = wp + static_cast<std::size_t>(tap) * words_;
          const std::uint64_t* wns = wn + static_cast<std::size_t>(tap) * words_;
          for (std::size_t wd = 0; wd < words_; ++wd) {
            ps[wd] = xs[wd] & wps[wd];
            ns[wd] = xs[wd] & wns[wd];
          }
        }
        reduce_tree(pos_slots.data());
        reduce_tree(neg_slots.data());

        // Asynchronous counters: count the 1s of each root stream.
        long pos_count = 0, neg_count = 0;
        for (std::size_t wd = 0; wd < words_; ++wd) {
          pos_count += std::popcount(pos_slots[wd]);
          neg_count += std::popcount(neg_slots[wd]);
        }
        const double v =
            static_cast<double>(pos_count - neg_count) * count_to_value;
        feat[oy * kImageSize + ox] =
            v > soft_threshold_ ? 1.0f : (v < -soft_threshold_ ? -1.0f : 0.0f);
      }
    }
  }
}

}  // namespace scbnn::hybrid
