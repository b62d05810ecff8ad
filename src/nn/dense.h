// Fully connected layer. Accepts [B, D] or flattens [B, C, H, W] input.
#pragma once

#include "nn/init.h"
#include "nn/layer.h"

namespace scbnn::nn {

class Dense final : public Layer {
 public:
  /// Weights and bias start at zero: the shape for a layer whose
  /// parameters are loaded or copied in.
  Dense(int in_features, int out_features);
  /// The same layer with Glorot-initialized weights drawn from `rng`.
  Dense(int in_features, int out_features, Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x, bool training) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override { return "Dense"; }

  [[nodiscard]] Tensor& weights() noexcept { return w_; }
  [[nodiscard]] Tensor& bias() noexcept { return b_; }

 private:
  int in_f_, out_f_;
  Tensor w_, b_, dw_, db_;  // w shape [out, in]
  Tensor cached_input_;     // flattened [B, in]
  std::vector<int> orig_shape_;
};

}  // namespace scbnn::nn
