// Quantized all-binary first layer (the paper's baseline design).
//
// Exact n-bit integer arithmetic: inputs quantized to [0, 2^n], weights to
// [-2^n, 2^n] (per-kernel scaled), sign activation. This is what a
// conventional fixed-point sliding-window convolution engine [23] computes.
//
// It is a one-channel 5x5 convolution, so the engine runs it on the tail's
// row-offset conv GEMM (nn::kern::gemm_rowbias_act, at the active dispatch
// level): pixel levels go into a zero-padded 32-wide level image, and the
// GEMM's B rows are that image at the 25 tap offsets, so row i of
// C = W[kernels x 25] * B is kernel i's dot at all 28 x 32 output lanes
// (lanes 28..31 of each row are padding, discarded). Every partial sum is
// an integer with |dot| <= 25 * 4^n, so float lanes hold it exactly, in
// any summation order, up to n = 9; from 10 to 16 bits a double loop over
// the same lanes does. The threshold test dot / 4^n > t is the same
// compare against t * 4^n, a power-of-two scaling, so outputs are exact,
// not approximate.
#pragma once

#include <vector>

#include "hybrid/first_layer.h"

namespace scbnn::hybrid {

class BinaryFirstLayer final : public FirstLayerEngine {
 public:
  BinaryFirstLayer(const nn::QuantizedConvWeights& weights,
                   const FirstLayerConfig& config);

  void compute(const float* image, float* out,
               Scratch& scratch) const override;
  [[nodiscard]] std::string name() const override { return "binary-quantized"; }
  [[nodiscard]] int kernels() const noexcept override { return kernels_; }
  [[nodiscard]] unsigned bits() const noexcept override { return bits_; }

 private:
  /// One image at bits <= 9: one GEMM per group of kernels, in float.
  void compute_float(const float* image, float* out) const;
  /// One image at bits 10..16: a tap loop over double lanes.
  void compute_double(const float* image, float* out) const;

  unsigned bits_;
  int kernels_;
  /// floor(soft_threshold * 4^bits), clamped to +-(25 * 4^bits + 1): an
  /// integer dot gives +1 above it and -1 below its negation. NaN stays
  /// NaN, so both compares fail and every output is 0, as dot / 4^bits
  /// against a NaN threshold gives.
  double threshold_;
  /// Signed weight levels, row-major [kernel][tap]; |w| <= 2^16 is exact.
  std::vector<float> weights_;
};

}  // namespace scbnn::hybrid
