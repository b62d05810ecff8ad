#include "sc/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scbnn::sc::simd {

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

}  // namespace scbnn::sc::simd
