// Vectorized GEMM / bias / activation microkernels for the inference tail,
// and the dispatch level they run at.
//
// Implementations exist for portable scalar (always; gcc auto-vectorizes it
// to the baseline ISA) and AVX2 (compiled when the toolchain supports
// -mavx2, selected at runtime via cpuid). Every other host runs the scalar
// path. `active_level()` picks the best available and honors the
// SCBNN_SIMD env override ("scalar", "avx2", "auto") so benches and tests
// can pin a path.
//
// The bit-identity contract every kernel obeys: vectorization runs ONLY
// across independent output elements (columns j of C, pooled positions),
// while each output element's k-loop accumulates in exactly the order of
// the scalar reference (p ascending, one mul + one add per step, no FMA
// contraction, no reassociation). A fast path built from these kernels is
// therefore bit-identical to the naive layer loops at every dispatch
// level — tests/test_gemm.cpp asserts this element-by-element on random
// and boundary (±0, denormal, huge/tiny) matrices.
#pragma once

#include <cstddef>
#include <vector>

namespace scbnn::nn::kern {

enum class Level { kScalar = 0, kAvx2 = 1 };

[[nodiscard]] const char* to_string(Level level) noexcept;

/// Best implementation available on this host (cached; SCBNN_SIMD override).
[[nodiscard]] Level active_level();

/// All levels runnable on this host, kScalar first.
[[nodiscard]] std::vector<Level> available_levels();

/// C[i,j] = relu?( row_bias[i] + sum_p A[i,p] * B[p,j] ), accumulation
/// STARTING at the bias — the operation order of Conv2D::forward's fused
/// bias-init GEMM (A = conv weights [outC, inC*K*K], row_bias =
/// per-output-channel bias). Row p of B is the n floats starting at
/// `b + b_row[p]`: a dense row-major [k, n] matrix is b_row[p] = p*n, and
/// a stride-1 conv reads its source image in place with b_row[p] = the
/// offset of tap p's window, rows overlapping (InferencePlan builds the
/// table). A and C are row-major; C aliases neither A nor B.
void gemm_rowbias_act(const float* a, const float* b,
                      const std::size_t* b_row, const float* row_bias,
                      float* c, int m, int k, int n, bool relu, Level level);

/// C[i,j] = relu?( (sum_p A[i,p] * B[p,j]) + col_bias[j] ), accumulation
/// starting at 0 with the bias added AFTER the k-loop — the operation
/// order of Dense::forward (gemm_bt then the bias loop). B is the dense
/// weight matrix pre-packed to [in, out] so columns of C are contiguous
/// in B's rows (InferencePlan packs it once at plan time). col_bias may
/// be nullptr for a pure GEMM.
void gemm_colbias_act(const float* a, const float* b, const float* col_bias,
                      float* c, int m, int k, int n, bool relu, Level level);

/// 2x2 stride-2 max pool over `planes` independent [h, w] planes (a
/// [N, C, h, w] batch is N*C planes): y[p, i, j] reproduces MaxPool2's
/// exact comparison sequence — best = x[2i,2j], then strictly-greater
/// tests against x[2i,2j+1], x[2i+1,2j], x[2i+1,2j+1] in that order — so
/// ties (and ±0.0 / NaN corners) resolve identically to the scalar layer.
void maxpool2(const float* x, int planes, int h, int w, float* y,
              Level level);

namespace detail {
/// True when the AVX2 translation unit (gemm_avx2.cpp) was compiled with
/// AVX2 enabled (host support is still checked at runtime before
/// dispatching to it).
[[nodiscard]] bool avx2_compiled() noexcept;

// AVX2 entry points (defined in gemm_avx2.cpp; stubs elsewhere).
void gemm_rowbias_act_avx2(const float* a, const float* b,
                           const std::size_t* b_row, const float* row_bias,
                           float* c, int m, int k, int n, bool relu);
void gemm_colbias_act_avx2(const float* a, const float* b,
                           const float* col_bias, float* c, int m, int k,
                           int n, bool relu);
void maxpool2_avx2(const float* x, int planes, int h, int w, float* y);
}  // namespace detail

}  // namespace scbnn::nn::kern
