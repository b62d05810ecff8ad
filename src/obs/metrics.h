#pragma once

// Unified metrics surface for the serving stack.
//
// Every layer keeps its existing stats structs (those are tested, and the
// benches depend on them bit for bit); register_metrics(...) methods layer
// a MetricsRegistry *view* on top: callback counters/gauges/histograms
// that read the live stats at scrape time. The registry renders the whole
// stack as Prometheus text format or a JSON snapshot in one call.
//
// Naming scheme (see README "Observability"): scbnn_<layer>_<what>[_unit],
// counters end in _total, layers are server | fleet | executor.

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/percentile.h"

namespace scbnn::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// Label set, sorted by key on registration (Prometheus requires a stable
/// order; we sort so registration order never leaks into the output).
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  /// Owned instruments: same (name, labels) returns the same object, so
  /// layers can re-register idempotently.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});

  /// Callback instruments: evaluated at export time. Re-registering the
  /// same (name, labels) replaces the callback. Callbacks must tolerate
  /// being called from any thread and must outlive the registry use.
  void counter_fn(const std::string& name, const std::string& help,
                  Labels labels, std::function<std::uint64_t()> fn);
  void gauge_fn(const std::string& name, const std::string& help,
                Labels labels, std::function<double()> fn);
  void histogram_fn(const std::string& name, const std::string& help,
                    Labels labels,
                    std::function<runtime::LatencyHistogram()> fn);

  /// Prometheus text exposition format: families sorted by name, series
  /// sorted by label string, label values escaped. Histograms export
  /// cumulative `le` buckets on the LatencyHistogram octave boundaries
  /// (milliseconds) plus _sum and _count.
  [[nodiscard]] std::string prometheus() const;
  /// JSON snapshot: {"counters":[...],"gauges":[...],"histograms":[...]}.
  [[nodiscard]] std::string json() const;
  bool write_prometheus(const std::string& path) const;
  bool write_json(const std::string& path) const;

  void clear();
  [[nodiscard]] std::size_t families() const;

  /// The process-wide registry most callers share.
  static MetricsRegistry& global();

  /// Prometheus label-value escaping: backslash, double-quote, newline.
  [[nodiscard]] static std::string escape_label_value(const std::string& s);
  /// HELP-line escaping: backslash and newline.
  [[nodiscard]] static std::string escape_help(const std::string& s);
  /// Histogram upper bounds (ms) exported as `le` labels: one per octave
  /// of the LatencyHistogram grid, derived from bucket_floor_ms.
  [[nodiscard]] static std::vector<double> histogram_bounds_ms();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;  // sorted by key
    std::string label_key;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::function<runtime::LatencyHistogram()> histogram_fn;
  };

  struct Family {
    std::string help;
    Kind kind = Kind::kGauge;
    std::vector<Series> series;
  };

  Family& family_for(const std::string& name, const std::string& help,
                     Kind kind);
  Series& series_for(Family& family, Labels labels);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace scbnn::obs
