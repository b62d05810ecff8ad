// AVX2 implementations of the tail GEMM / pool microkernels (nn/gemm.h).
//
// This TU is compiled with -mavx2 when the toolchain supports it and is
// reached only after a runtime cpuid check (active_level() in gemm.cpp,
// which asks avx2_compiled() below whether the flag took).
// Bit-identity with the scalar reference is preserved by vectorizing ONLY
// across independent output columns: each ymm lane owns one C[i,j] and
// accumulates p = 0..k-1 with a separate multiply and add per step, the
// exact float sequence of the scalar loop (the build sets -ffp-contract=off
// so neither path is contracted to FMA). ReLU uses max(acc, 0) with the
// accumulator first, which matches `x > 0 ? x : 0` for -0.0 (returns +0.0)
// and NaN (maxps returns the second operand on unordered).
#include "nn/gemm.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace scbnn::nn::kern::detail {

namespace {

// Where row p of B starts: a dense row-major [k, n] matrix (the dense
// GEMM), or a table of offsets (the conv GEMM; see nn/gemm.h).
struct DenseRows {
  const float* b;
  int n;
  const float* operator()(int p) const {
    return b + static_cast<std::size_t>(p) * n;
  }
};

struct OffsetRows {
  const float* b;
  const std::size_t* b_row;
  const float* operator()(int p) const { return b + b_row[p]; }
};

// One tile of MR rows x (vectorized) columns of C for the shared inner
// pattern of both GEMMs: init each accumulator from `init[r]` (the row
// bias or 0), run the k-loop with one broadcast-mul-add per (row, p),
// optionally add a per-column bias vector, optionally ReLU, store.
// Column blocks go 16-wide (2 ymm per row), then 8-wide, then scalar —
// the scalar remainder replays the reference loop element by element.
// Every load stays inside B's rows [rows(p), rows(p) + n).
template <int MR, typename Rows>
inline void gemm_tile(const float* a, Rows rows, const float* init,
                      const float* col_bias, float* c, int k, int n,
                      bool relu, int i0) {
  const float* arow[MR];
  float* crow[MR];
  for (int r = 0; r < MR; ++r) {
    arow[r] = a + static_cast<std::size_t>(i0 + r) * k;
    crow[r] = c + static_cast<std::size_t>(i0 + r) * n;
  }
  const __m256 zero = _mm256_setzero_ps();
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0[MR], acc1[MR];
    for (int r = 0; r < MR; ++r) {
      acc0[r] = _mm256_set1_ps(init[r]);
      acc1[r] = acc0[r];
    }
    for (int p = 0; p < k; ++p) {
      const float* brow = rows(p) + j;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      for (int r = 0; r < MR; ++r) {
        const __m256 av = _mm256_set1_ps(arow[r][p]);
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
      }
    }
    for (int r = 0; r < MR; ++r) {
      if (col_bias != nullptr) {
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_loadu_ps(col_bias + j));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_loadu_ps(col_bias + j + 8));
      }
      if (relu) {
        acc0[r] = _mm256_max_ps(acc0[r], zero);
        acc1[r] = _mm256_max_ps(acc1[r], zero);
      }
      _mm256_storeu_ps(crow[r] + j, acc0[r]);
      _mm256_storeu_ps(crow[r] + j + 8, acc1[r]);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = _mm256_set1_ps(init[r]);
    for (int p = 0; p < k; ++p) {
      const __m256 b0 = _mm256_loadu_ps(rows(p) + j);
      for (int r = 0; r < MR; ++r) {
        const __m256 av = _mm256_set1_ps(arow[r][p]);
        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, b0));
      }
    }
    for (int r = 0; r < MR; ++r) {
      if (col_bias != nullptr) {
        acc[r] = _mm256_add_ps(acc[r], _mm256_loadu_ps(col_bias + j));
      }
      if (relu) acc[r] = _mm256_max_ps(acc[r], zero);
      _mm256_storeu_ps(crow[r] + j, acc[r]);
    }
  }
  for (; j < n; ++j) {
    for (int r = 0; r < MR; ++r) {
      float acc = init[r];
      for (int p = 0; p < k; ++p) {
        acc += arow[r][p] * rows(p)[j];
      }
      if (col_bias != nullptr) acc += col_bias[j];
      if (relu) acc = acc > 0.0f ? acc : 0.0f;
      crow[r][j] = acc;
    }
  }
}

template <typename Rows>
inline void gemm_any(const float* a, Rows rows, const float* row_bias,
                     const float* col_bias, float* c, int m, int k, int n,
                     bool relu) {
  const float zeros4[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* init = row_bias != nullptr ? row_bias + i : zeros4;
    gemm_tile<4>(a, rows, init, col_bias, c, k, n, relu, i);
  }
  for (; i < m; ++i) {
    const float* init = row_bias != nullptr ? row_bias + i : zeros4;
    gemm_tile<1>(a, rows, init, col_bias, c, k, n, relu, i);
  }
}

}  // namespace

void gemm_rowbias_act_avx2(const float* a, const float* b,
                           const std::size_t* b_row, const float* row_bias,
                           float* c, int m, int k, int n, bool relu) {
  gemm_any(a, OffsetRows{b, b_row}, row_bias, nullptr, c, m, k, n, relu);
}

void gemm_colbias_act_avx2(const float* a, const float* b,
                           const float* col_bias, float* c, int m, int k,
                           int n, bool relu) {
  gemm_any(a, DenseRows{b, n}, nullptr, col_bias, c, m, k, n, relu);
}

void maxpool2_avx2(const float* x, int planes, int h, int w, float* y) {
  const int oh = h / 2, ow = w / 2;
  // Deinterleave permutation: shuffle_ps picks even (or odd) columns per
  // 128-bit lane as [x0 x2 | x8 x10 | x4 x6 | x12 x14]; this reorders the
  // 32-bit slots back to ascending column order.
  const __m256i perm = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  for (int p = 0; p < planes; ++p) {
    const float* xp = x + static_cast<std::size_t>(p) * h * w;
    float* yp = y + static_cast<std::size_t>(p) * oh * ow;
    for (int i = 0; i < oh; ++i) {
      const float* r0 = xp + static_cast<std::size_t>(2 * i) * w;
      const float* r1 = r0 + w;
      float* yrow = yp + static_cast<std::size_t>(i) * ow;
      int j = 0;
      for (; j + 8 <= ow; j += 8) {
        const __m256 a0 = _mm256_loadu_ps(r0 + 2 * j);
        const __m256 a1 = _mm256_loadu_ps(r0 + 2 * j + 8);
        const __m256 b0 = _mm256_loadu_ps(r1 + 2 * j);
        const __m256 b1 = _mm256_loadu_ps(r1 + 2 * j + 8);
        const __m256 ev0 = _mm256_permutevar8x32_ps(
            _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0)), perm);
        const __m256 od0 = _mm256_permutevar8x32_ps(
            _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1)), perm);
        const __m256 ev1 = _mm256_permutevar8x32_ps(
            _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0)), perm);
        const __m256 od1 = _mm256_permutevar8x32_ps(
            _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1)), perm);
        // Replay the scalar comparison sequence: `v > best` is the
        // ordered-quiet best < v (false on NaN either side), and blendv
        // keeps `best` where the test fails — ties and ±0.0 resolve
        // exactly as in MaxPool2::forward.
        __m256 best = ev0;
        __m256 gt = _mm256_cmp_ps(best, od0, _CMP_LT_OQ);
        best = _mm256_blendv_ps(best, od0, gt);
        gt = _mm256_cmp_ps(best, ev1, _CMP_LT_OQ);
        best = _mm256_blendv_ps(best, ev1, gt);
        gt = _mm256_cmp_ps(best, od1, _CMP_LT_OQ);
        best = _mm256_blendv_ps(best, od1, gt);
        _mm256_storeu_ps(yrow + j, best);
      }
      for (; j < ow; ++j) {
        float best = r0[2 * j];
        if (r0[2 * j + 1] > best) best = r0[2 * j + 1];
        if (r1[2 * j] > best) best = r1[2 * j];
        if (r1[2 * j + 1] > best) best = r1[2 * j + 1];
        yrow[j] = best;
      }
    }
  }
}

bool avx2_compiled() noexcept { return true; }

}  // namespace scbnn::nn::kern::detail

#else  // !__AVX2__: stubs keep the library linkable; never dispatched to.

namespace scbnn::nn::kern::detail {

bool avx2_compiled() noexcept { return false; }

void gemm_rowbias_act_avx2(const float*, const float*, const std::size_t*,
                           const float*, float*, int, int, int, bool) {}
void gemm_colbias_act_avx2(const float*, const float*, const float*, float*,
                           int, int, int, bool) {}
void maxpool2_avx2(const float*, int, int, int, float*) {}

}  // namespace scbnn::nn::kern::detail

#endif  // __AVX2__
