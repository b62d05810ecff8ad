#include "nn/conv2d.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace scbnn::nn {

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int pad)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      pad_(pad),
      w_({out_channels, in_channels, kernel, kernel}),
      b_({out_channels}),
      dw_({out_channels, in_channels, kernel, kernel}),
      db_({out_channels}) {}

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int pad,
               Rng& rng)
    : Conv2D(in_channels, out_channels, kernel, pad) {
  he_init(w_, in_channels * kernel * kernel, rng);
}

void Conv2D::im2col(const float* x, int c, int h, int w, int kernel, int pad,
                    float* col) {
  const int out_h = h + 2 * pad - kernel + 1;
  const int out_w = w + 2 * pad - kernel + 1;
  float* dst = col;
  for (int ch = 0; ch < c; ++ch) {
    const float* xc = x + static_cast<std::size_t>(ch) * h * w;
    for (int ki = 0; ki < kernel; ++ki) {
      for (int kj = 0; kj < kernel; ++kj) {
        // Output columns [lo, hi) read image columns lo + kj - pad onward;
        // the columns either side of the run read the zero border, and so
        // does a whole row whose run is empty or whose image row is.
        const int lo = std::clamp(pad - kj, 0, out_w);
        const int hi = std::clamp(w + pad - kj, lo, out_w);
        for (int oi = 0; oi < out_h; ++oi, dst += out_w) {
          const int src_i = oi + ki - pad;
          if (src_i < 0 || src_i >= h || lo == hi) {
            std::fill_n(dst, out_w, 0.0f);
            continue;
          }
          std::fill_n(dst, lo, 0.0f);
          std::memcpy(dst + lo,
                      xc + static_cast<std::size_t>(src_i) * w + lo + kj - pad,
                      static_cast<std::size_t>(hi - lo) * sizeof(float));
          std::fill_n(dst + hi, out_w - hi, 0.0f);
        }
      }
    }
  }
}

void Conv2D::col2im(const float* col, int c, int h, int w, int kernel, int pad,
                    float* x) {
  const int out_h = h + 2 * pad - kernel + 1;
  const int out_w = w + 2 * pad - kernel + 1;
  const int cols = out_h * out_w;
  for (int ch = 0; ch < c; ++ch) {
    for (int ki = 0; ki < kernel; ++ki) {
      for (int kj = 0; kj < kernel; ++kj) {
        const int row = (ch * kernel + ki) * kernel + kj;
        const float* src = col + static_cast<std::size_t>(row) * cols;
        for (int oi = 0; oi < out_h; ++oi) {
          const int dst_i = oi + ki - pad;
          if (dst_i < 0 || dst_i >= h) continue;
          for (int oj = 0; oj < out_w; ++oj) {
            const int dst_j = oj + kj - pad;
            if (dst_j < 0 || dst_j >= w) continue;
            x[(static_cast<std::size_t>(ch) * h + dst_i) * w + dst_j] +=
                src[oi * out_w + oj];
          }
        }
      }
    }
  }
}

Tensor Conv2D::forward(const Tensor& x, bool training) {
  if (x.rank() != 4 || x.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2D::forward: bad input shape " +
                                x.shape_string());
  }
  const int batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int out_h = h + 2 * pad_ - kernel_ + 1;
  const int out_w = w + 2 * pad_ - kernel_ + 1;
  const int krows = in_c_ * kernel_ * kernel_;
  const int cols = out_h * out_w;

  Tensor y({batch, out_c_, out_h, out_w});
  if (training) cached_input_ = x;

  // Straight-line bias-init MAC — the operation-order reference that the
  // fused gemm_rowbias_act microkernel (nn/gemm.h) replays; no zero-skip,
  // so the float sequence is a strict multiply-accumulate. Serving-side
  // parallelism lives in runtime::Executor (per-image chunks), not here.
  std::vector<float> col(static_cast<std::size_t>(krows) * cols);
  for (int b = 0; b < batch; ++b) {
    const float* xb = x.data() + static_cast<std::size_t>(b) * in_c_ * h * w;
    im2col(xb, in_c_, h, w, kernel_, pad_, col.data());
    float* yb = y.data() + static_cast<std::size_t>(b) * out_c_ * cols;
    // y[outC, cols] = w[outC, krows] * col[krows, cols]
    for (int oc = 0; oc < out_c_; ++oc) {
      float* yrow = yb + static_cast<std::size_t>(oc) * cols;
      const float bias = b_[oc];
      for (int j = 0; j < cols; ++j) yrow[j] = bias;
      const float* wrow = w_.data() + static_cast<std::size_t>(oc) * krows;
      for (int p = 0; p < krows; ++p) {
        const float wv = wrow[p];
        const float* crow = col.data() + static_cast<std::size_t>(p) * cols;
        for (int j = 0; j < cols; ++j) yrow[j] += wv * crow[j];
      }
    }
  }
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const int batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int out_h = grad_out.dim(2), out_w = grad_out.dim(3);
  const int krows = in_c_ * kernel_ * kernel_;
  const int cols = out_h * out_w;

  Tensor dx({batch, in_c_, h, w});

  std::vector<float> col(static_cast<std::size_t>(krows) * cols);
  std::vector<float> dcol(static_cast<std::size_t>(krows) * cols);
  for (int b = 0; b < batch; ++b) {
    const float* xb = x.data() + static_cast<std::size_t>(b) * in_c_ * h * w;
    const float* gb =
        grad_out.data() + static_cast<std::size_t>(b) * out_c_ * cols;
    im2col(xb, in_c_, h, w, kernel_, pad_, col.data());

    // dW += g[outC, cols] * col[krows, cols]^T ; db += row sums of g.
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* grow = gb + static_cast<std::size_t>(oc) * cols;
      float bsum = 0.0f;
      for (int j = 0; j < cols; ++j) bsum += grow[j];
      db_[oc] += bsum;
      float* dwrow = dw_.data() + static_cast<std::size_t>(oc) * krows;
      for (int p = 0; p < krows; ++p) {
        const float* crow = col.data() + static_cast<std::size_t>(p) * cols;
        float acc = 0.0f;
        for (int j = 0; j < cols; ++j) acc += grow[j] * crow[j];
        dwrow[p] += acc;
      }
    }

    // dcol[krows, cols] = w^T[krows, outC] * g[outC, cols].
    std::fill(dcol.begin(), dcol.end(), 0.0f);
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* grow = gb + static_cast<std::size_t>(oc) * cols;
      const float* wrow = w_.data() + static_cast<std::size_t>(oc) * krows;
      for (int p = 0; p < krows; ++p) {
        const float wv = wrow[p];
        float* drow = dcol.data() + static_cast<std::size_t>(p) * cols;
        for (int j = 0; j < cols; ++j) drow[j] += wv * grow[j];
      }
    }
    float* dxb = dx.data() + static_cast<std::size_t>(b) * in_c_ * h * w;
    col2im(dcol.data(), in_c_, h, w, kernel_, pad_, dxb);
  }
  return dx;
}

std::vector<Param> Conv2D::params() {
  return {{&w_, &dw_, "conv.w"}, {&b_, &db_, "conv.b"}};
}

}  // namespace scbnn::nn
