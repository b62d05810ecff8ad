// Shared helpers for the bench, example and perfbench binaries: flag/env
// parsing, the frozen benchmark bundle, and small timing/size probes.
//
// Flag parsing follows one policy: values resolve from `--key=value` argv
// flags first, then a SCBNN_* environment variable, then the built-in
// default — and anything malformed or out of range is rejected with a
// warning on stderr while the next source is used (warn-and-default,
// matching the ExperimentConfig env hardening: a typo never turns into a
// silent zero or a crashed bench).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hybrid/bundle.h"
#include "runtime/servable.h"

namespace scbnn::bench {

class Flags {
 public:
  /// Collect `--key=value` tokens from argv. Tokens in any other shape
  /// warn on stderr and are ignored.
  Flags(int argc, char** argv);

  /// Integer in [lo, hi]. `env` may be nullptr for flag-only options.
  [[nodiscard]] long get_long(const std::string& key, const char* env,
                              long fallback, long lo, long hi) const;

  /// Floating-point value in [lo, hi].
  [[nodiscard]] double get_double(const std::string& key, const char* env,
                                  double fallback, double lo, double hi) const;

  [[nodiscard]] std::string get_string(const std::string& key, const char* env,
                                       const std::string& fallback) const;

  /// Comma-separated list of doubles, each in [lo, hi]. One malformed
  /// element rejects the whole list (the fallback is used instead).
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& key, const char* env, const std::string& fallback_csv,
      double lo, double hi) const;

 private:
  /// Present sources for `key` in resolution order: the flag value (if
  /// given), then the environment value (if set). Each entry is
  /// {warn label, raw text}; a malformed earlier source falls through to
  /// the next one.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> sources(
      const std::string& key, const char* env) const;

  std::map<std::string, std::string> values_;
};

/// Size of `path` in bytes, -1 when it cannot be stat'ed.
[[nodiscard]] long file_bytes(const std::string& path);

/// Milliseconds elapsed since `start` on the serving clock.
[[nodiscard]] double ms_since(runtime::ServeClock::time_point start);

/// A deterministic frozen-weight model packaged as a ModelBundle: random
/// conv1 weights quantized per rung, and one tail shared by every rung. No
/// training — the benchmark workloads measure serving, not accuracy. A
/// ladder with one entry yields a fixed-precision bundle, more entries an
/// escalation ladder (bits strictly increasing). Deterministic: equal
/// arguments give bit-identical bundles, so fleet shards and an in-process
/// referee built from the same call agree to the bit. `lenet` defaults to
/// the perfbench workloads' shrunken tail.
[[nodiscard]] hybrid::ModelBundle make_frozen_bundle(
    const std::string& entry, const std::vector<unsigned>& ladder_bits,
    const hybrid::LeNetConfig& lenet = {32, 8, 32, 0.0f});

/// Peak resident set size of this process in bytes (a thin veneer over
/// runtime::peak_rss_bytes).
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace scbnn::bench
