// Quantized all-binary first layer (the paper's baseline design).
//
// Exact n-bit integer arithmetic: inputs quantized to [0, 2^n], weights to
// [-2^n, 2^n] (per-kernel scaled), sign activation. This is what a
// conventional fixed-point sliding-window convolution engine [23] computes.
//
// The engine evaluates it in the lane geometry of the count-domain SC
// engines: pixel levels go into a zero-padded 32-wide level image, and each
// kernel adds w_t * level[lane + offset_t] over its taps across all
// 28 x 32 output lanes at once (lanes 28..31 of each row are padding,
// discarded). Every partial sum is an integer with |dot| <= 25 * 4^n, so
// float lanes hold it exactly up to n = 9 and double lanes up to n = 16.
// The threshold test dot / 4^n > t is the same compare against
// t * 4^n, a power-of-two scaling, so outputs are exact, not approximate.
#pragma once

#include <vector>

#include "hybrid/first_layer.h"

namespace scbnn::hybrid {

class BinaryFirstLayer final : public FirstLayerEngine {
 public:
  BinaryFirstLayer(const nn::QuantizedConvWeights& weights,
                   const FirstLayerConfig& config);

  using FirstLayerEngine::compute_batch;
  void compute_batch(const float* images, int n, float* out,
                     Scratch& scratch) const override;
  [[nodiscard]] std::string name() const override { return "binary-quantized"; }
  [[nodiscard]] int kernels() const noexcept override { return kernels_; }
  [[nodiscard]] unsigned bits() const noexcept override { return bits_; }

 private:
  /// Lane is float when every partial sum fits its 24-bit significand
  /// (bits <= 9), double otherwise.
  template <typename Lane>
  void compute_one(const float* image, float* out) const;

  unsigned bits_;
  int kernels_;
  /// floor(soft_threshold * 4^bits), clamped to +-(25 * 4^bits + 1): an
  /// integer dot gives +1 above it and -1 below its negation. NaN stays
  /// NaN, so both compares fail and every output is 0, as dot / 4^bits
  /// against a NaN threshold gives.
  double threshold_;
  std::vector<int> levels_;  // [kernel][tap] signed weight levels
};

}  // namespace scbnn::hybrid
