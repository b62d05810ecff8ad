// Shared flag/env parsing for the bench binaries.
//
// Every bench used to hand-roll its own getenv + strtol checking; this
// helper centralizes the one policy they all want: values resolve from
// `--key=value` argv flags first, then a SCBNN_* environment variable,
// then the built-in default — and anything malformed or out of range is
// rejected with a warning on stderr while the next source is used
// (warn-and-default, matching the ExperimentConfig env hardening: a typo
// never turns into a silent zero or a crashed bench).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hybrid/bundle.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/process_stats.h"
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

  /// Comma-separated list of non-empty strings.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key, const char* env,
      const std::string& fallback_csv) const;

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

/// Split a comma-separated string into non-empty trimmed-as-is pieces.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

/// Size of `path` in bytes, -1 when it cannot be stat'ed.
[[nodiscard]] long file_bytes(const std::string& path);

/// Milliseconds elapsed since `start` on the serving clock.
[[nodiscard]] double ms_since(runtime::ServeClock::time_point start);

/// Build a deterministic frozen-weight Servable for the serving benches:
/// instantiate_servable over make_frozen_bundle. A registry backend name
/// yields a one-rung model at `bits`, "adaptive" a 3/6-bit sc-proposed
/// escalation ladder. No training — these benches measure serving
/// behavior, so frozen random weights with shared tails are enough, and
/// construction is deterministic (two calls with equal arguments are
/// bit-identical).
[[nodiscard]] std::unique_ptr<runtime::Servable> make_frozen_servable(
    const std::string& entry, unsigned bits, runtime::RuntimeConfig rc);

/// The frozen-weight model behind make_frozen_servable, packaged as a
/// ModelBundle — the artifact fleet shards cold-start from. A ladder with
/// one entry yields a fixed-precision bundle, more entries an escalation
/// ladder (bits strictly increasing). Deterministic: equal arguments give
/// bit-identical bundles, so a fleet and an in-process reference built from
/// the same call agree to the bit.
[[nodiscard]] hybrid::ModelBundle make_frozen_bundle(
    const std::string& entry, const std::vector<unsigned>& ladder_bits);

/// Peak resident set size in bytes — of this process, or of a live child by
/// pid. Benches emit these next to throughput so every BENCH_*.json reports
/// per-process memory the same way (thin veneer over runtime::process_stats).
[[nodiscard]] std::uint64_t peak_rss_bytes();
[[nodiscard]] std::uint64_t peak_rss_bytes(pid_t pid);

}  // namespace scbnn::bench
