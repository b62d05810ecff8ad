// Property tests for the tail GEMM / pool microkernels (nn/gemm.h): every
// dispatch level must match the scalar reference BIT FOR BIT — including
// signed zeros — on random and boundary inputs, across shapes that exercise
// the 16-wide, 8-wide, and scalar remainder column paths and every row-tile
// remainder — and the conv GEMM's B rows as overlapping windows into an
// image read in place.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "nn/conv2d.h"
#include "nn/gemm.h"

namespace {

using scbnn::nn::kern::gemm_colbias_act;
using scbnn::nn::kern::gemm_rowbias_act;
using scbnn::nn::kern::maxpool2;
using scbnn::nn::kern::available_levels;
using scbnn::nn::kern::Level;
using scbnn::nn::kern::to_string;

// Mixes boundary floats (signed zeros, denormals, huge/tiny magnitudes)
// into otherwise-uniform data. No NaNs/infs: the GEMM contract is "same
// float sequence", which NaN payload propagation rules would make
// compiler-dependent to *state*, though the kernels still execute the same
// instructions; the pool's NaN behavior is pinned separately below.
std::vector<float> boundary_mix(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> uni(-2.0f, 2.0f);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 16) {
      case 0: v[i] = 0.0f; break;
      case 1: v[i] = -0.0f; break;
      case 2: v[i] = 1e-42f; break;   // denormal
      case 3: v[i] = -1e-42f; break;
      case 4: v[i] = 3e18f; break;    // large enough to overflow products
      case 5: v[i] = -3e18f; break;
      case 6: v[i] = 1e-20f; break;
      default: v[i] = uni(rng); break;
    }
  }
  return v;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << ": element " << i << " differs: " << a[i] << " vs "
        << b[i];
  }
}

struct Shape {
  int m, k, n;
};

// Row offsets of a dense row-major [k, n] B: row p starts at p*n.
std::vector<std::size_t> dense_rows(int k, int n) {
  std::vector<std::size_t> rows(static_cast<std::size_t>(k));
  for (int p = 0; p < k; ++p) {
    rows[static_cast<std::size_t>(p)] = static_cast<std::size_t>(p) * n;
  }
  return rows;
}

// Covers full 4-row tiles + 1..3-row remainders, and 16/8/scalar column
// paths (n = 1, 5, 8, 16, 17, 23, 100).
const Shape kShapes[] = {{1, 1, 1},   {1, 7, 5},    {3, 8, 8},
                         {4, 16, 16}, {5, 33, 17},  {8, 25, 23},
                         {7, 40, 100}, {13, 9, 31}};

TEST(GemmKernels, RowBiasMatchesScalarAtEveryLevel) {
  std::uint32_t seed = 1;
  for (const Shape& s : kShapes) {
    for (const bool relu : {false, true}) {
      const auto a = boundary_mix(static_cast<std::size_t>(s.m) * s.k, seed++);
      const auto b = boundary_mix(static_cast<std::size_t>(s.k) * s.n, seed++);
      const auto bias = boundary_mix(static_cast<std::size_t>(s.m), seed++);
      const auto rows = dense_rows(s.k, s.n);
      std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n);
      gemm_rowbias_act(a.data(), b.data(), rows.data(), bias.data(),
                       ref.data(), s.m, s.k, s.n, relu, Level::kScalar);
      for (const Level level : available_levels()) {
        std::vector<float> got(ref.size(), -1.0f);
        gemm_rowbias_act(a.data(), b.data(), rows.data(), bias.data(),
                         got.data(), s.m, s.k, s.n, relu, level);
        expect_bitwise_equal(ref, got, to_string(level));
      }
    }
  }
}

TEST(GemmKernels, ColBiasMatchesScalarAtEveryLevel) {
  std::uint32_t seed = 101;
  for (const Shape& s : kShapes) {
    for (const bool relu : {false, true}) {
      const auto a = boundary_mix(static_cast<std::size_t>(s.m) * s.k, seed++);
      const auto b = boundary_mix(static_cast<std::size_t>(s.k) * s.n, seed++);
      const auto bias = boundary_mix(static_cast<std::size_t>(s.n), seed++);
      std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n);
      gemm_colbias_act(a.data(), b.data(), bias.data(), ref.data(), s.m, s.k,
                       s.n, relu, Level::kScalar);
      for (const Level level : available_levels()) {
        std::vector<float> got(ref.size(), -1.0f);
        gemm_colbias_act(a.data(), b.data(), bias.data(), got.data(), s.m,
                         s.k, s.n, relu, level);
        expect_bitwise_equal(ref, got, to_string(level));
      }
    }
  }
}

TEST(GemmKernels, ColBiasAcceptsNullBias) {
  const Shape s{5, 12, 17};
  const auto a = boundary_mix(static_cast<std::size_t>(s.m) * s.k, 7);
  const auto b = boundary_mix(static_cast<std::size_t>(s.k) * s.n, 8);
  std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n);
  gemm_colbias_act(a.data(), b.data(), nullptr, ref.data(), s.m, s.k, s.n,
                   false, Level::kScalar);
  for (const Level level : available_levels()) {
    std::vector<float> got(ref.size(), -1.0f);
    gemm_colbias_act(a.data(), b.data(), nullptr, got.data(), s.m, s.k, s.n,
                     false, level);
    expect_bitwise_equal(ref, got, to_string(level));
  }
}

// The GEMM reference order written out longhand (Conv2D::forward's
// bias-init accumulate): an independent check that the scalar kernel IS
// the reference, not just self-consistent.
TEST(GemmKernels, ScalarRowBiasIsTheConvOrder) {
  const Shape s{3, 10, 9};
  const auto a = boundary_mix(static_cast<std::size_t>(s.m) * s.k, 21);
  const auto b = boundary_mix(static_cast<std::size_t>(s.k) * s.n, 22);
  const auto bias = boundary_mix(static_cast<std::size_t>(s.m), 23);
  std::vector<float> want(static_cast<std::size_t>(s.m) * s.n);
  for (int i = 0; i < s.m; ++i) {
    for (int j = 0; j < s.n; ++j) {
      want[static_cast<std::size_t>(i) * s.n + j] = bias[i];
    }
    for (int p = 0; p < s.k; ++p) {
      for (int j = 0; j < s.n; ++j) {
        want[static_cast<std::size_t>(i) * s.n + j] +=
            a[static_cast<std::size_t>(i) * s.k + p] *
            b[static_cast<std::size_t>(p) * s.n + j];
      }
    }
  }
  std::vector<float> got(want.size());
  const auto rows = dense_rows(s.k, s.n);
  gemm_rowbias_act(a.data(), b.data(), rows.data(), bias.data(), got.data(),
                   s.m, s.k, s.n, false, Level::kScalar);
  expect_bitwise_equal(want, got, "conv order");
}

// The conv GEMM as InferencePlan runs it: B's rows are overlapping tap
// windows into a [c, h + 2*pad, w + 2*pad] zero-bordered source, read in
// place. The source is allocated to exactly that size, with no slack, so
// ASan reports any read past its last float — which the last lane's last
// tap reads. Each real lane must equal im2col + the dense-offset GEMM bit
// for bit at every level; the wrapped lanes are dropped.
TEST(GemmKernels, RowOffsetConvWindowsMatchIm2colAtEveryLevel) {
  struct Conv {
    int m, c, h, w, kernel, pad;
  };
  // Lanes = (out_h-1)*(w+2*pad) + out_w, split into 16-wide / 8-wide /
  // remainder column blocks: 43 = 16+16+8+3, 136 = 8x16+8 (the serving
  // conv2), 38 = 16+16+6, 22 = 16+6, 6 = remainder only. m covers full
  // 4-row tiles and 1..3-row remainders.
  const Conv kConvs[] = {{5, 3, 7, 9, 3, 0},  {8, 32, 14, 14, 5, 0},
                         {3, 2, 5, 6, 3, 1},  {6, 1, 2, 2, 3, 2},
                         {1, 1, 4, 4, 3, 0}};
  std::uint32_t seed = 501;
  for (const Conv& cv : kConvs) {
    const int sh = cv.h + 2 * cv.pad, sw = cv.w + 2 * cv.pad;
    const int out_h = sh - cv.kernel + 1, out_w = sw - cv.kernel + 1;
    const int lanes = (out_h - 1) * sw + out_w;
    const int k = cv.c * cv.kernel * cv.kernel;
    const int cols = out_h * out_w;
    std::vector<std::size_t> rows;
    for (int ch = 0; ch < cv.c; ++ch) {
      for (int ki = 0; ki < cv.kernel; ++ki) {
        for (int kj = 0; kj < cv.kernel; ++kj) {
          rows.push_back((static_cast<std::size_t>(ch) * sh + ki) * sw + kj);
        }
      }
    }
    for (const bool relu : {false, true}) {
      const auto x = boundary_mix(static_cast<std::size_t>(cv.c) * cv.h * cv.w,
                                  seed++);
      std::vector<float> src(static_cast<std::size_t>(cv.c) * sh * sw, 0.0f);
      const float* px = x.data();
      for (int ch = 0; ch < cv.c; ++ch) {
        for (int i = 0; i < cv.h; ++i) {
          for (int j = 0; j < cv.w; ++j) {
            src[(static_cast<std::size_t>(ch) * sh + i + cv.pad) * sw + j +
                cv.pad] = *px++;
          }
        }
      }
      const auto a = boundary_mix(static_cast<std::size_t>(cv.m) * k, seed++);
      const auto bias = boundary_mix(static_cast<std::size_t>(cv.m), seed++);
      std::vector<float> col(static_cast<std::size_t>(k) * cols);
      scbnn::nn::Conv2D::im2col(x.data(), cv.c, cv.h, cv.w, cv.kernel, cv.pad,
                                col.data());
      const auto col_rows = dense_rows(k, cols);
      std::vector<float> ref(static_cast<std::size_t>(cv.m) * cols);
      gemm_rowbias_act(a.data(), col.data(), col_rows.data(), bias.data(),
                       ref.data(), cv.m, k, cols, relu, Level::kScalar);
      for (const Level level : available_levels()) {
        std::vector<float> wide(static_cast<std::size_t>(cv.m) * lanes);
        gemm_rowbias_act(a.data(), src.data(), rows.data(), bias.data(),
                         wide.data(), cv.m, k, lanes, relu, level);
        std::vector<float> got(ref.size(), -1.0f);
        for (int i = 0; i < cv.m; ++i) {
          for (int oi = 0; oi < out_h; ++oi) {
            for (int oj = 0; oj < out_w; ++oj) {
              got[(static_cast<std::size_t>(i) * out_h + oi) * out_w + oj] =
                  wide[static_cast<std::size_t>(i) * lanes + oi * sw + oj];
            }
          }
        }
        expect_bitwise_equal(ref, got, to_string(level));
      }
    }
  }
}

TEST(MaxPoolKernel, MatchesScalarAtEveryLevel) {
  std::uint32_t seed = 301;
  // (planes, h, w): even dims, ow hitting the vector path (>= 8), the
  // scalar remainder (ow % 8 != 0), and the all-remainder case.
  const int shapes[][3] = {{1, 2, 2},  {3, 4, 6},   {32, 28, 28},
                           {8, 14, 14}, {2, 10, 34}, {5, 6, 16}};
  for (const auto& sh : shapes) {
    const int planes = sh[0], h = sh[1], w = sh[2];
    const auto x = boundary_mix(
        static_cast<std::size_t>(planes) * h * w, seed++);
    std::vector<float> ref(static_cast<std::size_t>(planes) * (h / 2) *
                           (w / 2));
    maxpool2(x.data(), planes, h, w, ref.data(), Level::kScalar);
    for (const Level level : available_levels()) {
      std::vector<float> got(ref.size(), -1.0f);
      maxpool2(x.data(), planes, h, w, got.data(), level);
      expect_bitwise_equal(ref, got, to_string(level));
    }
  }
}

// The comparison ORDER of the pool is observable through signed zeros:
// with window {{-5, +0.0}, {-0.0, -5}}, the reference (row-major strict
// `>` chain) returns +0.0; a vertical-then-horizontal reduction would
// return -0.0. Pin the exact bits at every level.
TEST(MaxPoolKernel, SignedZeroTieBreaksLikeReference) {
  const int planes = 1, h = 2, w = 16;  // one vector row, 8 windows
  std::vector<float> x(static_cast<std::size_t>(h) * w, -5.0f);
  for (int j = 0; j < w / 2; ++j) {
    x[static_cast<std::size_t>(2 * j) + 1] = 0.0f;  // row 0, odd column
    x[static_cast<std::size_t>(w) + 2 * j] = -0.0f;  // row 1, even column
  }
  for (const Level level : available_levels()) {
    std::vector<float> y(static_cast<std::size_t>(w) / 2, -1.0f);
    maxpool2(x.data(), planes, h, w, y.data(), level);
    for (float v : y) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v),
                std::bit_cast<std::uint32_t>(0.0f))
          << "level " << to_string(level);
    }
  }
}

// NaN handling is part of the strict-`>` contract: a NaN already in `best`
// survives every later comparison; a NaN candidate never wins.
TEST(MaxPoolKernel, NanPropagatesLikeReference) {
  const float qnan = std::bit_cast<float>(0x7fc00000u);
  const int planes = 1, h = 2, w = 20;
  std::vector<float> x(static_cast<std::size_t>(h) * w, 1.0f);
  x[0] = qnan;        // window 0: NaN at [0,0] -> stays NaN
  x[3] = qnan;        // window 1: NaN at [0,1] -> 1.0f wins
  std::vector<float> ref(static_cast<std::size_t>(w) / 2);
  maxpool2(x.data(), planes, h, w, ref.data(), Level::kScalar);
  ASSERT_TRUE(std::isnan(ref[0]));
  ASSERT_EQ(ref[1], 1.0f);
  for (const Level level : available_levels()) {
    std::vector<float> got(ref.size(), -1.0f);
    maxpool2(x.data(), planes, h, w, got.data(), level);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ref[i]),
                std::bit_cast<std::uint32_t>(got[i]))
          << "level " << to_string(level) << " window " << i;
    }
  }
}

}  // namespace
