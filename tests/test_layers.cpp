// Layer-level tests: shape logic, known-value forwards, and numerical
// gradient checks of every backward pass.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/loss.h"
#include "nn/maxpool.h"

namespace scbnn::nn {
namespace {

Tensor random_tensor(std::vector<int> shape, Rng& rng, float scale = 1.0f) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = rng.uniform(-scale, scale);
  }
  return t;
}

/// Scalar objective used for gradient checks: sum of c_i * y_i with fixed
/// pseudo-random coefficients (exercises all output positions).
float weighted_sum(const Tensor& y) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < y.size(); ++i) {
    acc += y[i] * static_cast<float>((i % 7) + 1) * 0.1f;
  }
  return acc;
}

Tensor weighted_sum_grad(const Tensor& y) {
  Tensor g(y.shape());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>((i % 7) + 1) * 0.1f;
  }
  return g;
}

/// Central-difference check of d(weighted_sum(layer(x)))/dx and /dparams.
void gradient_check(Layer& layer, Tensor x, float tol = 2e-2f) {
  Tensor y = layer.forward(x, /*training=*/true);
  layer.zero_grad();
  Tensor dx = layer.backward(weighted_sum_grad(y));
  ASSERT_EQ(dx.shape(), x.shape());

  const float eps = 1e-3f;
  // Input gradients (probe a spread of positions).
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(1, x.size() / 23)) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float up = weighted_sum(layer.forward(x, true));
    x[i] = orig - eps;
    const float down = weighted_sum(layer.forward(x, true));
    x[i] = orig;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(dx[i], numeric, tol) << "input grad at " << i;
  }
  // Parameter gradients. Re-establish caches for the unperturbed x first.
  (void)layer.forward(x, true);
  layer.zero_grad();
  (void)layer.backward(weighted_sum_grad(y));
  for (auto& p : layer.params()) {
    Tensor& w = *p.value;
    const Tensor& g = *p.grad;
    for (std::size_t i = 0; i < w.size();
         i += std::max<std::size_t>(1, w.size() / 17)) {
      const float orig = w[i];
      w[i] = orig + eps;
      const float up = weighted_sum(layer.forward(x, true));
      w[i] = orig - eps;
      const float down = weighted_sum(layer.forward(x, true));
      w[i] = orig;
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(g[i], numeric, tol) << p.name << " grad at " << i;
    }
  }
}

TEST(Conv2D, KnownValueForward) {
  Rng rng(1);
  Conv2D conv(1, 1, 3, 0, rng);
  conv.weights().fill(1.0f);  // 3x3 box filter
  conv.bias().fill(0.5f);
  Tensor x({1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_NEAR(y[0], 36.0f + 0.5f, 1e-5f);  // sum 0..8 plus bias
}

TEST(Conv2D, SamePaddingPreservesSize) {
  Rng rng(2);
  Conv2D conv(1, 4, 5, 2, rng);
  Tensor x({2, 1, 28, 28});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 4, 28, 28}));
}

TEST(Conv2D, GradientCheck) {
  Rng rng(3);
  Conv2D conv(2, 3, 3, 1, rng);
  gradient_check(conv, random_tensor({2, 2, 5, 5}, rng));
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Rng rng(4);
  Conv2D conv(3, 2, 3, 0, rng);
  Tensor x({1, 2, 5, 5});
  EXPECT_THROW((void)conv.forward(x, false), std::invalid_argument);
}

// The element-by-element im2col that Conv2D::im2col's row runs replaced,
// kept as their referee: every element bounds-checked on its own.
void im2col_reference(const float* x, int c, int h, int w, int kernel,
                      int pad, float* col) {
  const int out_h = h + 2 * pad - kernel + 1;
  const int out_w = w + 2 * pad - kernel + 1;
  const int cols = out_h * out_w;
  for (int ch = 0; ch < c; ++ch) {
    for (int ki = 0; ki < kernel; ++ki) {
      for (int kj = 0; kj < kernel; ++kj) {
        const int row = (ch * kernel + ki) * kernel + kj;
        float* dst = col + static_cast<std::size_t>(row) * cols;
        for (int oi = 0; oi < out_h; ++oi) {
          const int src_i = oi + ki - pad;
          for (int oj = 0; oj < out_w; ++oj) {
            const int src_j = oj + kj - pad;
            const bool in_bounds =
                src_i >= 0 && src_i < h && src_j >= 0 && src_j < w;
            dst[oi * out_w + oj] =
                in_bounds
                    ? x[(static_cast<std::size_t>(ch) * h + src_i) * w + src_j]
                    : 0.0f;
          }
        }
      }
    }
  }
}

// Pads 0..kernel-1 over square and non-square images, including images
// narrower or shorter than the kernel, where whole output rows and row
// runs lie in the padding.
TEST(Im2Col, RowRunsMatchElementReferenceForEveryPad) {
  const int geoms[][4] = {// c, h, w, kernel
                          {1, 5, 5, 3}, {2, 6, 4, 5},  {3, 2, 7, 3},
                          {1, 1, 1, 5}, {1, 3, 2, 4},  {32, 14, 14, 5},
                          {1, 28, 28, 5}};
  for (const auto& g : geoms) {
    const int c = g[0], h = g[1], w = g[2], kernel = g[3];
    std::vector<float> x(static_cast<std::size_t>(c) * h * w);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(i) + 1.0f;  // no pixel reads as border
    }
    for (int pad = 0; pad < kernel; ++pad) {
      const int out_h = h + 2 * pad - kernel + 1;
      const int out_w = w + 2 * pad - kernel + 1;
      if (out_h <= 0 || out_w <= 0) continue;
      const std::size_t size =
          static_cast<std::size_t>(c) * kernel * kernel * out_h * out_w;
      std::vector<float> want(size, -1.0f), got(size, -2.0f);
      im2col_reference(x.data(), c, h, w, kernel, pad, want.data());
      Conv2D::im2col(x.data(), c, h, w, kernel, pad, got.data());
      ASSERT_EQ(want, got) << c << "x" << h << "x" << w << " kernel "
                           << kernel << " pad " << pad;
    }
  }
}

TEST(Im2Col, ZeroPaddingPlacesBorderZeros) {
  // One channel 2x2 image, 3x3 kernel, pad 1 -> 9 rows x 4 cols.
  const float img[4] = {1, 2, 3, 4};
  std::vector<float> col(9 * 4, -1.0f);
  Conv2D::im2col(img, 1, 2, 2, 3, 1, col.data());
  // Center tap (ki=1, kj=1) row index 4 holds the unshifted image.
  EXPECT_EQ(col[4 * 4 + 0], 1.0f);
  EXPECT_EQ(col[4 * 4 + 3], 4.0f);
  // Top-left tap (ki=0, kj=0) sees zeros for the first output row/col.
  EXPECT_EQ(col[0 * 4 + 0], 0.0f);
  EXPECT_EQ(col[0 * 4 + 3], 1.0f);
}

TEST(MaxPool2, ForwardPicksMaxima) {
  MaxPool2 pool;
  Tensor x({1, 1, 4, 4});
  for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 7.0f);
  EXPECT_EQ(y[2], 13.0f);
  EXPECT_EQ(y[3], 15.0f);
}

TEST(MaxPool2, BackwardRoutesToArgmax) {
  MaxPool2 pool;
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f; x[1] = 4.0f; x[2] = 2.0f; x[3] = 3.0f;
  (void)pool.forward(x, true);
  Tensor g({1, 1, 1, 1});
  g[0] = 1.0f;
  Tensor dx = pool.backward(g);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 1.0f);
  EXPECT_EQ(dx[2], 0.0f);
  EXPECT_EQ(dx[3], 0.0f);
}

TEST(MaxPool2, RejectsOddSizes) {
  MaxPool2 pool;
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW((void)pool.forward(x, true), std::invalid_argument);
}

TEST(Dense, GradientCheck) {
  Rng rng(5);
  Dense dense(6, 4, rng);
  gradient_check(dense, random_tensor({3, 6}, rng));
}

TEST(Dense, FlattensHigherRankInput) {
  Rng rng(6);
  Dense dense(8, 2, rng);
  Tensor x({2, 2, 2, 2});
  Tensor y = dense.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 2}));
  // Backward restores the original shape.
  (void)dense.forward(x, true);
  Tensor dx = dense.backward(Tensor({2, 2}));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Dense, RejectsFeatureMismatch) {
  Rng rng(7);
  Dense dense(8, 2, rng);
  Tensor x({2, 7});
  EXPECT_THROW((void)dense.forward(x, false), std::invalid_argument);
}

TEST(ReLU, ForwardClampsAndBackwardMasks) {
  ReLU relu;
  Tensor x({1, 4});
  x[0] = -1.0f; x[1] = 0.0f; x[2] = 2.0f; x[3] = -0.5f;
  Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor g = Tensor::full({1, 4}, 1.0f);
  Tensor dx = relu.backward(g);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(Sign, TernaryOutput) {
  SignActivation sign(0.5f);
  Tensor x({1, 3});
  x[0] = 2.0f; x[1] = 0.2f; x[2] = -1.0f;
  Tensor y = sign.forward(x, false);
  EXPECT_EQ(y[0], 1.0f);
  EXPECT_EQ(y[1], 0.0f);  // inside the dead zone
  EXPECT_EQ(y[2], -1.0f);
}

TEST(Sign, StraightThroughGradient) {
  SignActivation sign;
  Tensor x({1, 2});
  x[0] = 0.5f;   // |x| <= 1: gradient passes
  x[1] = 3.0f;   // |x| > 1: gradient clipped
  (void)sign.forward(x, true);
  Tensor g = Tensor::full({1, 2}, 2.0f);
  Tensor dx = sign.backward(g);
  EXPECT_EQ(dx[0], 2.0f);
  EXPECT_EQ(dx[1], 0.0f);
}

TEST(Tanh, ForwardAndGradientCheck) {
  Tanh tanh_layer;
  Tensor x({1, 3});
  x[0] = -2.0f; x[1] = 0.0f; x[2] = 1.0f;
  Tensor y = tanh_layer.forward(x, true);
  EXPECT_NEAR(y[0], std::tanh(-2.0f), 1e-6f);
  EXPECT_NEAR(y[1], 0.0f, 1e-6f);
  EXPECT_NEAR(y[2], std::tanh(1.0f), 1e-6f);
  Rng rng(11);
  Tanh fresh;
  gradient_check(fresh, random_tensor({2, 5}, rng), 1e-2f);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout drop(0.5f);
  Tensor x = Tensor::full({4, 4}, 3.0f);
  Tensor y = drop.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 3.0f);
}

TEST(Dropout, TrainingPreservesExpectation) {
  Dropout drop(0.5f, 42);
  Tensor x = Tensor::full({1, 10000}, 1.0f);
  Tensor y = drop.forward(x, true);
  double mean = 0.0;
  int zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    mean += y[i];
    if (y[i] == 0.0f) ++zeros;
  }
  mean /= static_cast<double>(y.size());
  EXPECT_NEAR(mean, 1.0, 0.05);                       // inverted scaling
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.05);            // drop rate
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout drop(0.5f, 7);
  Tensor x = Tensor::full({1, 100}, 1.0f);
  Tensor y = drop.forward(x, true);
  Tensor dx = drop.backward(Tensor::full({1, 100}, 1.0f));
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(dx[i], y[i]);
}

TEST(Dropout, RejectsBadRate) {
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Tensor logits({2, 3});
  logits.at2(0, 0) = 5.0f;
  logits.at2(1, 2) = -3.0f;
  Tensor p = softmax(logits);
  for (int b = 0; b < 2; ++b) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += p.at2(b, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Loss, CrossEntropyGradientCheck) {
  Rng rng(8);
  Tensor logits = random_tensor({3, 5}, rng, 2.0f);
  const std::vector<int> labels{1, 4, 0};
  const LossResult base = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + eps;
    const double up = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig - eps;
    const double down = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig;
    EXPECT_NEAR(base.grad[i], (up - down) / (2 * eps), 1e-3)
        << "logit " << i;
  }
}

TEST(Loss, PerfectPredictionHasLowLoss) {
  Tensor logits({1, 3});
  logits.at2(0, 1) = 20.0f;
  const LossResult r = softmax_cross_entropy(logits, std::vector<int>{1});
  EXPECT_LT(r.loss, 1e-4);
}

TEST(Loss, AccuracyMetric) {
  Tensor logits({2, 3});
  logits.at2(0, 2) = 1.0f;  // predicts 2
  logits.at2(1, 0) = 1.0f;  // predicts 0
  EXPECT_DOUBLE_EQ(accuracy(logits, std::vector<int>{2, 1}), 0.5);
}

TEST(Loss, RejectsBadLabels) {
  Tensor logits({1, 3});
  EXPECT_THROW((void)softmax_cross_entropy(logits, std::vector<int>{3}),
               std::invalid_argument);
  EXPECT_THROW((void)softmax_cross_entropy(logits, std::vector<int>{0, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace scbnn::nn
