// SIMD dispatch (nn/gemm.h): the level the tail GEMM/pool kernels run at.
// tests/test_gemm.cpp holds every kernel to the scalar reference at each
// level listed here; these tests pin the dispatch contract itself,
// including the SCBNN_SIMD override CI uses to rerun the suites on the
// scalar path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "nn/gemm.h"

namespace scbnn::nn::kern {
namespace {

TEST(SimdDispatch, ScalarAlwaysAvailableAndFirst) {
  const auto levels = available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
}

TEST(SimdDispatch, ActiveLevelIsAvailableAndHonorsScalarOverride) {
  const auto levels = available_levels();
  const Level active = active_level();
  EXPECT_NE(std::find(levels.begin(), levels.end(), active), levels.end())
      << to_string(active);
  const char* env = std::getenv("SCBNN_SIMD");
  if (env != nullptr && std::string(env) == "scalar") {
    EXPECT_EQ(active, Level::kScalar);
  } else if (env == nullptr || std::string(env).empty() ||
             std::string(env) == "auto") {
    EXPECT_EQ(active, levels.back());  // best available
  }
}

}  // namespace
}  // namespace scbnn::nn::kern
