#include "hybrid/binary_first_layer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scbnn::hybrid {

namespace {

/// Largest precision whose partial sums (|dot| <= 25 * 4^bits) stay below
/// 2^24, so float lanes add them exactly.
constexpr unsigned kMaxFloatBits = 9;

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
  levels_.reserve(static_cast<std::size_t>(kernels_) * kFanIn);
  for (const nn::QuantizedKernel& k : weights.kernels) {
    if (k.levels.size() != static_cast<std::size_t>(kFanIn)) {
      throw std::invalid_argument("BinaryFirstLayer: unsupported geometry");
    }
    for (const int w : k.levels) {
      if (w < -full || w > full) {
        throw std::invalid_argument(
            "BinaryFirstLayer: weight level out of range");
      }
      levels_.push_back(w);
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

void BinaryFirstLayer::compute_batch(const float* images, int n, float* out,
                                     Scratch& /*scratch*/) const {
  // The lanes live on the stack; any scratch works.
  const std::size_t in_stride = kImageSize * kImageSize;
  const std::size_t out_stride =
      static_cast<std::size_t>(kernels_) * kOutputsPerKernel;
  for (int i = 0; i < n; ++i) {
    const float* image = images + static_cast<std::size_t>(i) * in_stride;
    float* feats = out + static_cast<std::size_t>(i) * out_stride;
    if (bits_ <= kMaxFloatBits) {
      compute_one<float>(image, feats);
    } else {
      compute_one<double>(image, feats);
    }
  }
}

template <typename Lane>
void BinaryFirstLayer::compute_one(const float* image, float* out) const {
  struct Lanes {
    alignas(64) Lane level[kMapSize];  // padded pixel levels
    alignas(64) Lane acc[kLanes];      // one kernel's dot per lane
  } s{};

  // Quantize the image once into the interior: levels in [0, 2^bits], the
  // pads stay 0 (the reference's zero padding). NaN takes the 0 branch.
  const auto full = static_cast<double>(1u << bits_);
  for (int iy = 0; iy < kImageSize; ++iy) {
    Lane* row = s.level + (iy + kPad) * kPadded + kPad;
    for (int ix = 0; ix < kImageSize; ++ix) {
      const float p = image[iy * kImageSize + ix];
      const float v = p > 0.0f ? (p > 1.0f ? 1.0f : p) : 0.0f;
      row[ix] = static_cast<Lane>(std::lround(static_cast<double>(v) * full));
    }
  }

  const auto above = static_cast<Lane>(threshold_);
  const Lane below = -above;
  for (int k = 0; k < kernels_; ++k) {
    // One pass per kernel row adds its five taps to every lane. Products
    // and partial sums are integers within the lane's exact range, so the
    // grouping (and a zero tap) cannot change the dot.
    const int* w = levels_.data() + static_cast<std::size_t>(k) * kFanIn;
    std::fill(s.acc, s.acc + kLanes, Lane{0});
    for (int ki = 0; ki < kKernelSize; ++ki, w += kKernelSize) {
      const auto w0 = static_cast<Lane>(w[0]);
      const auto w1 = static_cast<Lane>(w[1]);
      const auto w2 = static_cast<Lane>(w[2]);
      const auto w3 = static_cast<Lane>(w[3]);
      const auto w4 = static_cast<Lane>(w[4]);
      const Lane* x = s.level + ki * kPadded;
      for (std::size_t j = 0; j < kLanes; ++j) {
        s.acc[j] += w0 * x[j] + w1 * x[j + 1] + w2 * x[j + 2] +
                    w3 * x[j + 3] + w4 * x[j + 4];
      }
    }
    float* feat = out + static_cast<std::size_t>(k) * kOutputsPerKernel;
    for (int oy = 0; oy < kImageSize; ++oy) {
      const Lane* a = s.acc + oy * kPadded;
      for (int ox = 0; ox < kImageSize; ++ox) {
        feat[oy * kImageSize + ox] =
            a[ox] > above ? 1.0f : (a[ox] < below ? -1.0f : 0.0f);
      }
    }
  }
}

}  // namespace scbnn::hybrid
