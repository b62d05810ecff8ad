#include "bench_common.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "hybrid/hybrid_network.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "runtime/process_stats.h"

namespace scbnn::bench {

namespace {

std::optional<long> parse_long(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return parsed;
}

std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return parsed;
}

void warn(const std::string& source, const std::string& value) {
  std::fprintf(stderr, "warning: ignoring malformed %s='%s'\n",
               source.c_str(), value.c_str());
}

/// Split a comma-separated string into non-empty trimmed-as-is pieces.
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> pieces;
  std::string::size_type start = 0;
  while (start <= csv.size()) {
    const std::string::size_type comma = csv.find(',', start);
    const std::string piece =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (!piece.empty()) pieces.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return pieces;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const std::string::size_type eq = token.find('=');
    if (token.rfind("--", 0) != 0 || eq == std::string::npos || eq <= 2) {
      std::fprintf(stderr,
                   "warning: ignoring argument '%s' (expected --key=value)\n",
                   token.c_str());
      continue;
    }
    values_[token.substr(2, eq - 2)] = token.substr(eq + 1);
  }
}

std::vector<std::pair<std::string, std::string>> Flags::sources(
    const std::string& key, const char* env) const {
  std::vector<std::pair<std::string, std::string>> out;
  if (const auto it = values_.find(key); it != values_.end()) {
    out.emplace_back("--" + key, it->second);
  }
  if (env != nullptr) {
    if (const char* v = std::getenv(env); v != nullptr && *v != '\0') {
      out.emplace_back(env, v);
    }
  }
  return out;
}

long Flags::get_long(const std::string& key, const char* env, long fallback,
                     long lo, long hi) const {
  for (const auto& [source, text] : sources(key, env)) {
    const auto parsed = parse_long(text);
    if (parsed && *parsed >= lo && *parsed <= hi) return *parsed;
    warn(source, text);  // fall through to the next source
  }
  return fallback;
}

double Flags::get_double(const std::string& key, const char* env,
                         double fallback, double lo, double hi) const {
  for (const auto& [source, text] : sources(key, env)) {
    const auto parsed = parse_double(text);
    if (parsed && *parsed >= lo && *parsed <= hi) return *parsed;
    warn(source, text);
  }
  return fallback;
}

std::string Flags::get_string(const std::string& key, const char* env,
                              const std::string& fallback) const {
  const auto candidates = sources(key, env);
  return candidates.empty() ? fallback : candidates.front().second;
}

std::vector<double> Flags::get_double_list(const std::string& key,
                                           const char* env,
                                           const std::string& fallback_csv,
                                           double lo, double hi) const {
  const auto parse_list = [lo, hi](const std::string& csv) {
    std::vector<double> parsed;
    for (const std::string& piece : split_csv(csv)) {
      const auto value = parse_double(piece);
      if (!value || *value < lo || *value > hi) return std::vector<double>{};
      parsed.push_back(*value);
    }
    return parsed;
  };

  for (const auto& [source, text] : sources(key, env)) {
    std::vector<double> parsed = parse_list(text);
    if (!parsed.empty()) return parsed;
    warn(source, text);  // malformed, out of range, or empty
  }
  return parse_list(fallback_csv);
}

long file_bytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

double ms_since(runtime::ServeClock::time_point start) {
  return runtime::ms_between(start, runtime::ServeClock::now());
}

hybrid::ModelBundle make_frozen_bundle(
    const std::string& entry, const std::vector<unsigned>& ladder_bits,
    const hybrid::LeNetConfig& lenet) {
  constexpr std::uint64_t kSeed = 7;
  nn::Rng base_rng(kSeed);
  nn::Network base = hybrid::build_lenet(lenet, base_rng);

  hybrid::ModelBundle bundle;
  bundle.backend = entry;
  bundle.lenet = lenet;
  bundle.confidence_margin = 0.5;
  bundle.trained_seed = kSeed;
  for (const unsigned bits : ladder_bits) {
    hybrid::BundleRung rung;
    rung.bits = bits;
    rung.qw =
        nn::quantize_conv_weights(hybrid::base_conv1_weights(base), bits);
    rung.flc.bits = bits;
    rung.flc.soft_threshold = 0.30;
    rung.flc.seed = static_cast<std::uint32_t>(kSeed | 1u);
    rung.tail = hybrid::build_tail(lenet);
    hybrid::copy_tail_params(base, rung.tail);
    bundle.rungs.push_back(std::move(rung));
  }
  return bundle;
}

std::uint64_t peak_rss_bytes() { return runtime::peak_rss_bytes(); }

}  // namespace scbnn::bench
