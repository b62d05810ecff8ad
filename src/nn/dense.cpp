#include "nn/dense.h"

#include <stdexcept>

namespace scbnn::nn {

Dense::Dense(int in_features, int out_features)
    : in_f_(in_features),
      out_f_(out_features),
      w_({out_features, in_features}),
      b_({out_features}),
      dw_({out_features, in_features}),
      db_({out_features}) {}

Dense::Dense(int in_features, int out_features, Rng& rng)
    : Dense(in_features, out_features) {
  glorot_init(w_, in_features, out_features, rng);
}

Tensor Dense::forward(const Tensor& x, bool training) {
  const int batch = x.dim(0);
  const auto features = static_cast<int>(x.size()) / batch;
  if (features != in_f_) {
    throw std::invalid_argument("Dense::forward: expected " +
                                std::to_string(in_f_) + " features, got " +
                                std::to_string(features));
  }
  orig_shape_ = x.shape();
  Tensor flat = x.reshaped({batch, in_f_});
  if (training) cached_input_ = flat;

  Tensor y({batch, out_f_});
  // y[B, out] = flat[B, in] * w[out, in]^T + b
  gemm_bt(flat.data(), w_.data(), y.data(), batch, in_f_, out_f_);
  for (int b = 0; b < batch; ++b) {
    for (int o = 0; o < out_f_; ++o) y.at2(b, o) += b_[o];
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  const int batch = grad_out.dim(0);
  // dW[out, in] += g[B, out]^T * x[B, in]
  gemm_at(grad_out.data(), cached_input_.data(), dw_.data(), out_f_, batch,
          in_f_, /*accumulate=*/true);
  for (int b = 0; b < batch; ++b) {
    for (int o = 0; o < out_f_; ++o) db_[o] += grad_out.at2(b, o);
  }
  // dx[B, in] = g[B, out] * w[out, in]
  Tensor dx({batch, in_f_});
  gemm(grad_out.data(), w_.data(), dx.data(), batch, out_f_, in_f_);
  return dx.reshaped(orig_shape_);
}

std::vector<Param> Dense::params() {
  return {{&w_, &dw_, "dense.w"}, {&b_, &db_, "dense.b"}};
}

}  // namespace scbnn::nn
