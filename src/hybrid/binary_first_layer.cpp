#include "hybrid/binary_first_layer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "nn/gemm.h"

namespace scbnn::hybrid {

namespace {

/// Largest precision whose partial sums (|dot| <= 25 * 4^bits) stay below
/// 2^24, so float lanes add them exactly.
constexpr unsigned kMaxFloatBits = 9;

/// Kernels per GEMM call: C stays a 14 KB stack block that the threshold
/// pass reads back from L1.
constexpr int kGroup = 4;
/// The conv GEMM starts each dot at its row bias.
constexpr float kZeroBias[kGroup] = {};

/// B-row offsets of the conv GEMM: tap (ki, kj) reads the level image
/// from ki * kPadded + kj, so lane oy * kPadded + ox sees pixel
/// (oy + ki, ox + kj) of the padded image. The last lane's last tap
/// reads index kMapSize - 1.
constexpr std::array<std::size_t, kFanIn> kTapOffsets = [] {
  std::array<std::size_t, kFanIn> offsets{};
  for (int t = 0; t < kFanIn; ++t) {
    offsets[static_cast<std::size_t>(t)] =
        static_cast<std::size_t>(t / kKernelSize) * kPadded + t % kKernelSize;
  }
  return offsets;
}();

/// Quantize an image into the interior of the zero-padded level image:
/// levels in [0, 2^bits], the pads 0 (the reference's zero padding). NaN
/// takes the 0 branch.
template <typename Lane>
void quantize(const float* image, unsigned bits, Lane* levels) {
  std::fill(levels, levels + kMapSize, Lane{0});
  const auto full = static_cast<double>(1u << bits);
  for (int iy = 0; iy < kImageSize; ++iy) {
    Lane* row = levels + (iy + kPad) * kPadded + kPad;
    for (int ix = 0; ix < kImageSize; ++ix) {
      const float p = image[iy * kImageSize + ix];
      const float v = p > 0.0f ? (p > 1.0f ? 1.0f : p) : 0.0f;
      row[ix] = static_cast<Lane>(std::lround(static_cast<double>(v) * full));
    }
  }
}

/// Sign of the 28 real lanes of each row of one kernel's dots against the
/// integer threshold `above` (and its negation).
template <typename Lane>
void threshold_lanes(const Lane* dot, Lane above, float* feat) {
  const Lane below = -above;
  for (int oy = 0; oy < kImageSize; ++oy) {
    const Lane* a = dot + oy * kPadded;
    for (int ox = 0; ox < kImageSize; ++ox) {
      feat[oy * kImageSize + ox] =
          a[ox] > above ? 1.0f : (a[ox] < below ? -1.0f : 0.0f);
    }
  }
}

}  // namespace

BinaryFirstLayer::BinaryFirstLayer(const nn::QuantizedConvWeights& weights,
                                   const FirstLayerConfig& config)
    : bits_(config.bits), kernels_(static_cast<int>(weights.kernels.size())) {
  if (weights.bits != config.bits) {
    throw std::invalid_argument("BinaryFirstLayer: bits mismatch");
  }
  if (weights.kernel_size != kKernelSize || weights.in_channels != 1) {
    throw std::invalid_argument("BinaryFirstLayer: unsupported geometry");
  }
  if (bits_ > 16) {  // the double lanes' exactness bound
    throw std::invalid_argument("BinaryFirstLayer: bits > 16");
  }
  const int full = 1 << bits_;
  weights_.reserve(static_cast<std::size_t>(kernels_) * kFanIn);
  for (const nn::QuantizedKernel& k : weights.kernels) {
    if (k.levels.size() != static_cast<std::size_t>(kFanIn)) {
      throw std::invalid_argument("BinaryFirstLayer: unsupported geometry");
    }
    for (const int w : k.levels) {
      if (w < -full || w > full) {
        throw std::invalid_argument(
            "BinaryFirstLayer: weight level out of range");
      }
      weights_.push_back(static_cast<float>(w));
    }
  }

  // dot / 4^bits > t  <=>  dot > t * 4^bits (an exact power-of-two
  // scaling)  <=>  dot > floor(t * 4^bits) for an integer dot; the -1 side
  // is dot < -t * 4^bits <=> dot < -floor(t * 4^bits). Past |dot|'s bound
  // the clamp changes no compare and keeps the value exact in a float.
  const double norm = std::ldexp(1.0, 2 * static_cast<int>(bits_));
  const double limit = kFanIn * norm + 1.0;
  threshold_ = std::floor(config.soft_threshold * norm);
  if (threshold_ > limit) threshold_ = limit;
  if (threshold_ < -limit) threshold_ = -limit;
}

void BinaryFirstLayer::compute(const float* image, float* out,
                               Scratch& /*scratch*/) const {
  // The level image and the dots live on the stack; any scratch works.
  if (bits_ <= kMaxFloatBits) {
    compute_float(image, out);
  } else {
    compute_double(image, out);
  }
}

void BinaryFirstLayer::compute_float(const float* image, float* out) const {
  alignas(64) float levels[kMapSize];
  quantize(image, bits_, levels);
  // Products and partial sums are integers below 2^24, so the GEMM's
  // summation order, at either dispatch level, cannot change a dot.
  const nn::kern::Level level = nn::kern::active_level();
  const auto above = static_cast<float>(threshold_);
  alignas(64) float dots[kGroup * kLanes];
  for (int k0 = 0; k0 < kernels_; k0 += kGroup) {
    const int m = std::min(kGroup, kernels_ - k0);
    nn::kern::gemm_rowbias_act(
        weights_.data() + static_cast<std::size_t>(k0) * kFanIn, levels,
        kTapOffsets.data(), kZeroBias, dots, m, kFanIn,
        static_cast<int>(kLanes), /*relu=*/false, level);
    for (int r = 0; r < m; ++r) {
      threshold_lanes(dots + static_cast<std::size_t>(r) * kLanes, above,
                      out + static_cast<std::size_t>(k0 + r) *
                                kOutputsPerKernel);
    }
  }
}

void BinaryFirstLayer::compute_double(const float* image, float* out) const {
  // One block: laid out as two separate stack arrays, the loop below
  // measured ~10% slower.
  struct Lanes {
    alignas(64) double levels[kMapSize];  // padded pixel levels
    alignas(64) double acc[kLanes];       // one kernel's dot per lane
  } s;
  quantize(image, bits_, s.levels);
  for (int k = 0; k < kernels_; ++k) {
    // One pass per kernel row adds its five taps to every lane. Products
    // and partial sums are integers below 2^53, so the grouping (and a
    // zero tap) cannot change the dot.
    const float* w = weights_.data() + static_cast<std::size_t>(k) * kFanIn;
    std::fill(s.acc, s.acc + kLanes, 0.0);
    for (int ki = 0; ki < kKernelSize; ++ki, w += kKernelSize) {
      const double w0 = w[0], w1 = w[1], w2 = w[2], w3 = w[3], w4 = w[4];
      const double* x = s.levels + ki * kPadded;
      for (std::size_t j = 0; j < kLanes; ++j) {
        s.acc[j] += w0 * x[j] + w1 * x[j + 1] + w2 * x[j + 2] +
                    w3 * x[j + 3] + w4 * x[j + 4];
      }
    }
    threshold_lanes(s.acc, threshold_,
                    out + static_cast<std::size_t>(k) * kOutputsPerKernel);
  }
}

}  // namespace scbnn::hybrid
