// Vectorized GEMM / bias / activation microkernels for the inference tail.
//
// They dispatch through sc/simd.h (sc::simd::Level, active_level(), the
// SCBNN_SIMD override): implementations exist for portable scalar (always;
// gcc auto-vectorizes it to the baseline ISA) and AVX2 (runtime cpuid
// dispatch).
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

#include "sc/simd.h"

namespace scbnn::nn::kern {

using Level = sc::simd::Level;

/// C[i,j] = relu?( row_bias[i] + sum_p A[i,p] * B[p,j] ), accumulation
/// STARTING at the bias — the operation order of Conv2D::forward's fused
/// bias-init GEMM (A = conv weights [outC, inC*K*K], B = im2col patch
/// matrix [inC*K*K, outH*outW], row_bias = per-output-channel bias).
/// All matrices row-major, no aliasing.
void gemm_rowbias_act(const float* a, const float* b, const float* row_bias,
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
// AVX2 entry points (defined in gemm_avx2.cpp; stubs elsewhere). The same
// TU defines sc::simd::detail::avx2_compiled().
void gemm_rowbias_act_avx2(const float* a, const float* b,
                           const float* row_bias, float* c, int m, int k,
                           int n, bool relu);
void gemm_colbias_act_avx2(const float* a, const float* b,
                           const float* col_bias, float* c, int m, int k,
                           int n, bool relu);
void maxpool2_avx2(const float* x, int planes, int h, int w, float* y);
}  // namespace detail

}  // namespace scbnn::nn::kern
