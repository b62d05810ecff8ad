// SIMD dispatch level for the vectorized float kernels of the inference
// tail (nn/gemm.h).
//
// Implementations exist for portable scalar (always; the compiler
// auto-vectorizes it to the baseline ISA) and AVX2 (compiled when the
// toolchain supports -mavx2, selected at runtime via cpuid). Every other
// host runs the scalar path. `active_level()` picks the best available and
// honors the SCBNN_SIMD env override ("scalar", "avx2", "auto") so benches
// and tests can pin a path.
#pragma once

#include <vector>

namespace scbnn::sc::simd {

enum class Level { kScalar = 0, kAvx2 = 1 };

[[nodiscard]] const char* to_string(Level level) noexcept;

/// Best implementation available on this host (cached; SCBNN_SIMD override).
[[nodiscard]] Level active_level();

/// All levels runnable on this host, kScalar first.
[[nodiscard]] std::vector<Level> available_levels();

namespace detail {
/// True when the AVX2 translation unit (nn/gemm_avx2.cpp) was compiled
/// with AVX2 enabled (host support is still checked at runtime before
/// dispatching to it).
[[nodiscard]] bool avx2_compiled() noexcept;
}  // namespace detail

}  // namespace scbnn::sc::simd
