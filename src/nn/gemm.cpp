// Portable scalar implementations + level dispatch for the tail GEMM
// microkernels. The scalar loops ARE the reference operation order (they
// mirror Conv2D::forward / Dense::forward / MaxPool2::forward statement
// for statement); the AVX2 TU replays the same per-element sequence eight
// columns at a time.
#include "nn/gemm.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scbnn::nn::kern {

namespace {

Level detect_level() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  if (detail::avx2_compiled() && __builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
  return Level::kScalar;
#else
  return Level::kScalar;
#endif
}

Level resolve_level() {
  const Level best = detect_level();
  const char* env = std::getenv("SCBNN_SIMD");
  if (env == nullptr || std::strcmp(env, "") == 0 ||
      std::strcmp(env, "auto") == 0) {
    return best;
  }
  if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(env, "avx2") == 0 && best == Level::kAvx2) {
    return Level::kAvx2;
  }
  std::fprintf(stderr,
               "warning: SCBNN_SIMD=%s unavailable on this host; using %s\n",
               env, to_string(best));
  return best;
}

void gemm_rowbias_act_scalar(const float* a, const float* b,
                             const std::size_t* b_row, const float* row_bias,
                             float* c, int m, int k, int n, bool relu) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    const float bias = row_bias[i];
    for (int j = 0; j < n; ++j) crow[j] = bias;
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + b_row[p];
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
    if (relu) {
      for (int j = 0; j < n; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
    }
  }
}

void gemm_colbias_act_scalar(const float* a, const float* b,
                             const float* col_bias, float* c, int m, int k,
                             int n, bool relu) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
    if (col_bias != nullptr) {
      for (int j = 0; j < n; ++j) crow[j] += col_bias[j];
    }
    if (relu) {
      for (int j = 0; j < n; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
    }
  }
}

void maxpool2_scalar(const float* x, int planes, int h, int w, float* y) {
  const int oh = h / 2, ow = w / 2;
  for (int p = 0; p < planes; ++p) {
    const float* xp = x + static_cast<std::size_t>(p) * h * w;
    float* yp = y + static_cast<std::size_t>(p) * oh * ow;
    for (int i = 0; i < oh; ++i) {
      const float* r0 = xp + static_cast<std::size_t>(2 * i) * w;
      const float* r1 = r0 + w;
      float* yrow = yp + static_cast<std::size_t>(i) * ow;
      for (int j = 0; j < ow; ++j) {
        float best = r0[2 * j];
        if (r0[2 * j + 1] > best) best = r0[2 * j + 1];
        if (r1[2 * j] > best) best = r1[2 * j];
        if (r1[2 * j + 1] > best) best = r1[2 * j + 1];
        yrow[j] = best;
      }
    }
  }
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

Level active_level() {
  static const Level level = resolve_level();
  return level;
}

std::vector<Level> available_levels() {
  std::vector<Level> levels{Level::kScalar};
  const Level best = detect_level();
  if (best != Level::kScalar) levels.push_back(best);
  return levels;
}

void gemm_rowbias_act(const float* a, const float* b,
                      const std::size_t* b_row, const float* row_bias,
                      float* c, int m, int k, int n, bool relu, Level level) {
  if (level == Level::kAvx2) {
    detail::gemm_rowbias_act_avx2(a, b, b_row, row_bias, c, m, k, n, relu);
    return;
  }
  gemm_rowbias_act_scalar(a, b, b_row, row_bias, c, m, k, n, relu);
}

void gemm_colbias_act(const float* a, const float* b, const float* col_bias,
                      float* c, int m, int k, int n, bool relu, Level level) {
  if (level == Level::kAvx2) {
    detail::gemm_colbias_act_avx2(a, b, col_bias, c, m, k, n, relu);
    return;
  }
  gemm_colbias_act_scalar(a, b, col_bias, c, m, k, n, relu);
}

void maxpool2(const float* x, int planes, int h, int w, float* y,
              Level level) {
  if (level == Level::kAvx2) {
    detail::maxpool2_avx2(x, planes, h, w, y);
    return;
  }
  maxpool2_scalar(x, planes, h, w, y);
}

}  // namespace scbnn::nn::kern
