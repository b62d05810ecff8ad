// 2-D convolution layer (stride 1) via im2col + GEMM: the training path and
// the reference order. Serving runs the same per-output float sequence
// without the im2col panel (nn/inference_plan.h).
#pragma once

#include "nn/init.h"
#include "nn/layer.h"

namespace scbnn::nn {

class Conv2D final : public Layer {
 public:
  /// `pad` in pixels on each side: pad = kernel/2 gives "same" output size
  /// for odd kernels; pad = 0 gives "valid". Weights and bias start at
  /// zero: the shape for a layer whose parameters are loaded or copied in.
  Conv2D(int in_channels, int out_channels, int kernel, int pad);
  /// The same layer with He-initialized weights drawn from `rng`.
  Conv2D(int in_channels, int out_channels, int kernel, int pad, Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x, bool training) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }

  /// Weights, shape [outC, inC, K, K]; exposed for quantization and for
  /// exporting the first layer into the stochastic engines.
  [[nodiscard]] Tensor& weights() noexcept { return w_; }
  [[nodiscard]] const Tensor& weights() const noexcept { return w_; }
  [[nodiscard]] Tensor& bias() noexcept { return b_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return b_; }

  [[nodiscard]] int kernel() const noexcept { return kernel_; }
  [[nodiscard]] int pad() const noexcept { return pad_; }
  [[nodiscard]] int in_channels() const noexcept { return in_c_; }
  [[nodiscard]] int out_channels() const noexcept { return out_c_; }

  /// im2col for one image: x [C,H,W] -> col [C*K*K, outH*outW]. Each
  /// output row is one copied run of image pixels with zeros either side
  /// where the window overhangs the padding.
  static void im2col(const float* x, int c, int h, int w, int kernel, int pad,
                     float* col);
  /// Transpose of im2col: accumulate col gradients back into the image.
  static void col2im(const float* col, int c, int h, int w, int kernel,
                     int pad, float* x);

 private:
  int in_c_, out_c_, kernel_, pad_;
  Tensor w_, b_, dw_, db_;
  Tensor cached_input_;
};

}  // namespace scbnn::nn
