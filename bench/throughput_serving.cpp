// Batched end-to-end serving throughput across first-layer backends and
// thread counts.
//
// For every registered backend the same image batch is served END TO END
// (a one-rung AdaptivePipeline: threaded first layer, then the vectorized
// zero-allocation tail plan) at 1..8 worker threads: images/sec, latency,
// and the first-layer/tail stage split come from the runtime's ServeStats,
// and two referees gate the exit code — cross-thread bit-identity (fixed
// seed => identical labels at every thread count) and the tail referee
// (classify's labels AND margins must match the Network::forward +
// softmax_margins reference bit for bit at every thread count). Results
// are printed as a table and written to BENCH_throughput.json (including
// the per-stage split and the per-frame energy of the calibrated 65nm
// hardware model) so the performance trajectory is tracked from PR to PR.
//
// Scale knobs: --n / SCBNN_BENCH_N (batch size, default 96) and
// --bits / SCBNN_BENCH_BITS (first-layer precision, default 4).
//
// Against a committed baseline (--baseline=path, default: the seed numbers
// in bench/baselines/BENCH_throughput.baseline.json) a "vs seed" column
// reports each backend's single-thread end-to-end speedup over its
// baseline entry; "-fast" backends with no baseline row of their own fall
// back to their canonical name, so the column reads as the fast path's
// speedup over the seed scalar engine.
// The executor scaling sweep (second table) serves the same workload
// through `models` concurrent pipelines sharing ONE runtime::Executor,
// with stealing on and off (the control) at 1..hw threads. Knobs:
// --models / SCBNN_BENCH_MODELS (default 4) and --reps / SCBNN_BENCH_REPS
// (batches per driver thread, default 3).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/synthetic_mnist.h"
#include "hw/report.h"
#include "hybrid/hybrid_network.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/quantize.h"
#include "obs/trace.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/backend_registry.h"
#include "runtime/executor.h"
#include "runtime/server.h"

namespace {

struct Row {
  std::string backend;
  unsigned threads = 1;
  double latency_ms = 0.0;
  double first_layer_ms = 0.0;
  double tail_ms = 0.0;
  double images_per_sec = 0.0;
  double energy_nj_per_frame = 0.0;
  bool identical_predictions = true;
  bool tail_exact = true;  // labels+margins match the forward() reference
  double speedup_vs_1t = 1.0;
  double speedup_vs_baseline = 0.0;  // 0 = no baseline entry
};

/// Labels of a classified batch, for cross-thread/cross-executor referees.
std::vector<int> labels_of(
    const std::vector<scbnn::runtime::Prediction>& preds) {
  std::vector<int> labels(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) labels[i] = preds[i].label;
  return labels;
}

/// Tail referee: classify's Predictions must carry the exact label and the
/// bit-exact margin of the Network::forward + softmax_margins reference —
/// the contract the vectorized tail plan is sold on.
bool matches_reference(const std::vector<scbnn::runtime::Prediction>& preds,
                       const std::vector<scbnn::nn::SoftmaxMargin>& ref) {
  if (preds.size() != ref.size()) return false;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i].label != ref[i].best) return false;
    if (std::bit_cast<std::uint64_t>(preds[i].margin) !=
        std::bit_cast<std::uint64_t>(ref[i].margin)) {
      return false;
    }
  }
  return true;
}

/// Single-thread images/sec per backend from a previous run's JSON. The
/// file is this bench's own output, so a minimal line-oriented scan of the
/// result objects is enough — no JSON library in the tree.
std::map<std::string, double> load_baseline(const std::string& path) {
  std::map<std::string, double> baseline;
  std::ifstream in(path);
  if (!in) return baseline;
  std::string line;
  while (std::getline(in, line)) {
    const auto bpos = line.find("\"backend\": \"");
    if (bpos == std::string::npos) continue;
    const auto bstart = bpos + 12;
    const auto bend = line.find('"', bstart);
    const auto tpos = line.find("\"threads\": ");
    const auto ipos = line.find("\"images_per_sec\": ");
    if (bend == std::string::npos || tpos == std::string::npos ||
        ipos == std::string::npos) {
      continue;
    }
    if (std::strtol(line.c_str() + tpos + 11, nullptr, 10) != 1) continue;
    const double ips = std::strtod(line.c_str() + ipos + 18, nullptr);
    if (ips > 0.0) baseline[line.substr(bstart, bend - bstart)] = ips;
  }
  return baseline;
}

/// Committed pre-instrumentation throughput floor for the tracing-off
/// overhead gate. Same line-oriented scan as load_baseline, plus the
/// provenance header (images/bits the floor was recorded at) — the gate
/// only engages when the current run matches it.
struct PretraceFloor {
  int images = 0;
  unsigned bits = 0;
  std::map<std::string, double> floor;  ///< backend -> img/s floor
};

PretraceFloor load_pretrace(const std::string& path) {
  PretraceFloor out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto p = line.find("\"images\": "); p != std::string::npos &&
                                                  out.images == 0) {
      out.images = static_cast<int>(std::strtol(line.c_str() + p + 10,
                                                nullptr, 10));
    }
    if (const auto p = line.find("\"bits\": ");
        p != std::string::npos && out.bits == 0) {
      out.bits = static_cast<unsigned>(std::strtol(line.c_str() + p + 8,
                                                   nullptr, 10));
    }
    const auto bpos = line.find("\"backend\": \"");
    if (bpos == std::string::npos) continue;
    const auto bstart = bpos + 12;
    const auto bend = line.find('"', bstart);
    const auto ipos = line.find("\"images_per_sec\": ");
    if (bend == std::string::npos || ipos == std::string::npos) continue;
    const double ips = std::strtod(line.c_str() + ipos + 18, nullptr);
    if (ips > 0.0) out.floor[line.substr(bstart, bend - bstart)] = ips;
  }
  return out;
}

/// Baseline images/sec for `backend`, resolving "-fast" names through
/// their canonical design when the baseline predates the fast backends.
double baseline_for(const std::map<std::string, double>& baseline,
                    const std::string& backend) {
  const auto it = baseline.find(backend);
  if (it != baseline.end()) return it->second;
  const auto canon = baseline.find(scbnn::hw::canonical_backend(backend));
  return canon != baseline.end() ? canon->second : 0.0;
}

struct ScalingRow {
  std::string executor;
  unsigned threads = 1;
  int models = 1;
  double images_per_sec = 0.0;
  bool identical_predictions = true;
};

/// One shared executor of the named kind. Pinning is forced off so the
/// sweep measures scheduling, not whatever SCBNN_PIN happens to be.
std::shared_ptr<scbnn::runtime::Executor> make_sweep_executor(
    const std::string& kind, unsigned threads) {
  using namespace scbnn::runtime;
  Executor::Options opt;
  opt.threads = threads;
  opt.steal = (kind == "work-steal");
  opt.pin = PinMode::kOff;
  return std::make_shared<Executor>(opt);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scbnn;

  const bench::Flags flags(argc, argv);
  const int n =
      static_cast<int>(flags.get_long("n", "SCBNN_BENCH_N", 96, 1, 100000));
  const auto bits = static_cast<unsigned>(
      flags.get_long("bits", "SCBNN_BENCH_BITS", 4, 2, 8));
  const unsigned kThreadCounts[] = {1, 2, 4, 8};
  constexpr std::uint64_t kSeed = 7;

  // The main tables are the committed performance record: run them with
  // tracing hard-off whatever SCBNN_TRACE says, so they stay comparable
  // across runs. The trace-overhead section below switches modes itself.
  obs::set_trace_mode(obs::TraceMode::kOff);

  // Frozen random first-layer weights + a fixed tail: the bench measures
  // serving throughput, not accuracy, so no training is needed.
  nn::Rng wrng(kSeed);
  nn::Tensor w({32, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = wrng.normal(0.0f, 0.3f);
  const auto qw = nn::quantize_conv_weights(w, bits);
  hybrid::FirstLayerConfig flc;
  flc.bits = bits;
  flc.soft_threshold = 0.30;
  flc.seed = static_cast<std::uint32_t>(kSeed | 1u);

  const data::DataSplit split =
      data::generate_synthetic_mnist(static_cast<std::size_t>(n), 1, kSeed);
  const hybrid::LeNetConfig lenet{32, 8, 32, 0.0f};
  // One fixed-precision model over `backend`, with the same tail every time.
  const auto make_model = [&](const std::string& backend,
                              runtime::RuntimeConfig rc) {
    nn::Rng trng(kSeed + 1);
    return std::make_unique<runtime::AdaptivePipeline>(
        runtime::BackendRegistry::instance().create(backend, qw, flc),
        hybrid::build_tail(lenet, trng), std::move(rc));
  };

  // Committed baseline (seed numbers): explicit flag first, then the
  // build-dir-relative locations the checkout provides.
  std::map<std::string, double> baseline;
  std::string baseline_path =
      flags.get_string("baseline", "SCBNN_BENCH_BASELINE", "");
  if (!baseline_path.empty()) {
    baseline = load_baseline(baseline_path);
  } else {
    for (const char* candidate :
         {"BENCH_throughput.baseline.json",
          "../bench/baselines/BENCH_throughput.baseline.json",
          "bench/baselines/BENCH_throughput.baseline.json"}) {
      baseline = load_baseline(candidate);
      if (!baseline.empty()) {
        baseline_path = candidate;
        break;
      }
    }
  }

  std::printf(
      "Serving throughput (end-to-end classify): %d images, %u-bit first "
      "layer\n",
      n, bits);
  if (!baseline.empty()) {
    std::printf("baseline: %s (\"vs seed\" = 1-thread images/sec over the "
                "committed seed run;\n"
                "the seed rows timed the first layer only, so the column "
                "UNDERSTATES end-to-end gains)\n",
                baseline_path.c_str());
  }
  std::printf("\n");
  hw::TableWriter table({"backend", "threads", "latency (ms)", "first (ms)",
                         "tail (ms)", "images/sec", "speedup", "vs seed",
                         "bit-identical"},
                        {20, 7, 12, 10, 10, 12, 8, 8, 13});
  table.print_header();

  std::vector<Row> rows;
  std::map<std::string, std::vector<int>> predictions_1t;
  bool tail_referee_ok = true;
  for (const std::string& backend :
       runtime::BackendRegistry::instance().names()) {
    std::vector<int> reference_labels;
    std::vector<nn::SoftmaxMargin> reference_margins;
    double images_per_sec_1t = 0.0;
    for (unsigned threads : kThreadCounts) {
      runtime::RuntimeConfig rc;
      rc.threads = threads;
      const auto model = make_model(backend, rc);

      // Tail referee reference, once per backend: the same tail served the
      // slow way — Network::forward on this backend's features, margins via
      // softmax_margins. classify() must reproduce it bit for bit.
      if (threads == kThreadCounts[0]) {
        nn::Rng rrng(kSeed + 1);
        nn::Network ref_tail = hybrid::build_tail(lenet, rrng);
        reference_margins = nn::softmax_margins(
            ref_tail.forward(model->features(split.train.images),
                             /*training=*/false));
      }

      (void)model->classify(split.train.images);  // warm-up (pool, arenas)
      const std::vector<runtime::Prediction> preds =
          model->classify(split.train.images);
      const runtime::ServeStats& stats = model->last_stats();
      const std::vector<int> predictions = labels_of(preds);

      Row row;
      row.backend = backend;
      row.threads = threads;
      row.latency_ms = stats.latency_ms;
      row.first_layer_ms = stats.first_layer_ms;
      row.tail_ms = stats.tail_ms;
      row.images_per_sec = stats.images_per_sec;
      row.energy_nj_per_frame =
          stats.images > 0 ? stats.energy_j * 1e9 / stats.images : 0.0;
      if (threads == kThreadCounts[0]) {
        reference_labels = predictions;
        images_per_sec_1t = stats.images_per_sec;
        predictions_1t[backend] = predictions;
        const double base = baseline_for(baseline, backend);
        if (base > 0.0) row.speedup_vs_baseline = stats.images_per_sec / base;
      }
      row.identical_predictions = predictions == reference_labels;
      row.tail_exact = matches_reference(preds, reference_margins);
      tail_referee_ok &= row.tail_exact;
      row.speedup_vs_1t = images_per_sec_1t > 0.0
                              ? stats.images_per_sec / images_per_sec_1t
                              : 1.0;
      rows.push_back(row);

      table.print_row({backend, std::to_string(threads),
                       hw::TableWriter::fmt(row.latency_ms),
                       hw::TableWriter::fmt(row.first_layer_ms),
                       hw::TableWriter::fmt(row.tail_ms),
                       hw::TableWriter::fmt(row.images_per_sec, 1),
                       hw::TableWriter::fmt(row.speedup_vs_1t) + "x",
                       row.speedup_vs_baseline > 0.0
                           ? hw::TableWriter::fmt(row.speedup_vs_baseline) + "x"
                           : "-",
                       row.identical_predictions && row.tail_exact ? "yes"
                                                                   : "NO"});
    }
    table.print_rule();
  }

  bool all_identical = true;
  for (const Row& row : rows) all_identical &= row.identical_predictions;
  std::printf("\npredictions bit-identical across thread counts: %s\n",
              all_identical ? "yes" : "NO — determinism bug!");
  std::printf("fast tail matches Network::forward reference (labels AND "
              "margins, bitwise): %s\n",
              tail_referee_ok ? "yes" : "NO — fast tail diverges!");

  // Optimization referee: every "-fast" backend must predict exactly like
  // its canonical design — same seed, same bits, same predictions.
  bool fast_identical = true;
  for (const auto& [backend, preds] : predictions_1t) {
    const std::string canon = hw::canonical_backend(backend);
    if (canon == backend) continue;
    const auto ref = predictions_1t.find(canon);
    if (ref == predictions_1t.end()) continue;
    const bool same = preds == ref->second;
    fast_identical &= same;
    std::printf("%s matches %s bit-for-bit: %s\n", backend.c_str(),
                canon.c_str(), same ? "yes" : "NO — fast path diverges!");
  }

  // ---------------------------------------------------- executor scaling
  // models pipelines share ONE executor; each pipeline gets a driver thread
  // serving `reps` batches. Aggregate images/sec per (executor, threads,
  // models) cell, predictions refereed against a 1-thread work-stealing
  // reference.
  const int scale_models = static_cast<int>(
      flags.get_long("models", "SCBNN_BENCH_MODELS", 4, 1, 16));
  const int scale_reps = static_cast<int>(
      flags.get_long("reps", "SCBNN_BENCH_REPS", 3, 1, 1000));
  const std::string scale_backend = "sc-proposed-fast";

  std::vector<unsigned> scale_threads{1, 2, 4};
  {
    const unsigned hw_threads = std::thread::hardware_concurrency();
    if (hw_threads > 0 &&
        std::find(scale_threads.begin(), scale_threads.end(), hw_threads) ==
            scale_threads.end()) {
      scale_threads.push_back(hw_threads);
      std::sort(scale_threads.begin(), scale_threads.end());
    }
  }
  std::vector<int> scale_model_counts{1};
  if (scale_models > 1) scale_model_counts.push_back(scale_models);

  std::vector<int> scale_reference;
  {
    runtime::RuntimeConfig rc;
    rc.executor = make_sweep_executor("work-steal", 1);
    scale_reference =
        labels_of(make_model(scale_backend, rc)->classify(split.train.images));
  }

  std::printf("\nExecutor scaling: %s, %d images/batch, %d reps/model\n\n",
              scale_backend.c_str(), n, scale_reps);
  hw::TableWriter scaling_table(
      {"executor", "threads", "models", "images/sec", "bit-identical"},
      {20, 7, 6, 12, 13});
  scaling_table.print_header();

  std::vector<ScalingRow> scaling_rows;
  for (const char* kind : {"work-steal", "work-steal-nosteal"}) {
    for (unsigned threads : scale_threads) {
      for (int models : scale_model_counts) {
        runtime::RuntimeConfig rc;
        rc.executor = make_sweep_executor(kind, threads);

        std::vector<std::unique_ptr<runtime::AdaptivePipeline>> pipelines;
        for (int m = 0; m < models; ++m) {
          pipelines.push_back(make_model(scale_backend, rc));
        }
        for (auto& pipeline : pipelines) {
          (void)pipeline->classify(split.train.images);  // warm-up
        }

        std::vector<std::vector<int>> last_predictions(
            static_cast<std::size_t>(models));
        const auto start = std::chrono::steady_clock::now();
        std::vector<std::thread> drivers;
        drivers.reserve(static_cast<std::size_t>(models));
        for (int m = 0; m < models; ++m) {
          drivers.emplace_back([&, m] {
            for (int rep = 0; rep < scale_reps; ++rep) {
              last_predictions[static_cast<std::size_t>(m)] =
                  labels_of(pipelines[static_cast<std::size_t>(m)]->classify(
                      split.train.images));
            }
          });
        }
        for (auto& t : drivers) t.join();
        const double elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();

        ScalingRow row;
        row.executor = kind;
        row.threads = threads;
        row.models = models;
        row.images_per_sec =
            elapsed_s > 0.0
                ? static_cast<double>(models) * scale_reps * n / elapsed_s
                : 0.0;
        for (const auto& preds : last_predictions) {
          row.identical_predictions &= (preds == scale_reference);
        }
        scaling_rows.push_back(row);

        scaling_table.print_row(
            {row.executor, std::to_string(threads), std::to_string(models),
             hw::TableWriter::fmt(row.images_per_sec, 1),
             row.identical_predictions ? "yes" : "NO"});
      }
    }
    scaling_table.print_rule();
  }

  bool scaling_identical = true;
  for (const ScalingRow& row : scaling_rows) {
    scaling_identical &= row.identical_predictions;
  }
  std::printf("scaling predictions bit-identical across executors/threads/"
              "steal schedules: %s\n",
              scaling_identical ? "yes" : "NO — determinism bug!");

  // ---------------------------------------------------- tracing overhead
  // Two referees for the observability layer:
  //   1. Free when off: with SCBNN_TRACE=off the instrumented build must
  //      stay within 1% of the committed pre-instrumentation floor
  //      (bench/baselines/BENCH_throughput.pretrace.json), measured with
  //      the floor's own methodology (1 thread, warm-up, best of 5
  //      classify runs). The floor is the slowest of repeated
  //      pre-instrumentation runs, so the gate trips on systematic
  //      instrumentation cost, not host scheduler noise. Wired into the
  //      exit code — but only when n/bits match the floor's provenance;
  //      CI's reduced-size smokes report without gating.
  //   2. Cheap when sampling: the same workload served through a Server
  //      (so trace ids are actually minted and the submit/batch spans are
  //      on the measured path) under off vs sampled:64; the relative loss
  //      is reported as trace_overhead_pct, not gated (it is noisy on
  //      shared CI machines).
  const int trace_reps = static_cast<int>(
      flags.get_long("trace-reps", "SCBNN_BENCH_TRACE_REPS", 5, 1, 1000));
  const auto served_ips = [&](obs::TraceMode mode, std::uint64_t every) {
    runtime::RuntimeConfig rc;
    rc.threads = 1;
    const auto model = make_model("sc-proposed-fast", rc);
    runtime::ServerConfig sc;
    sc.max_batch = 32;
    sc.queue_capacity = static_cast<std::size_t>(n) * 2 + 64;
    runtime::Server server(*model, sc);
    {  // warm-up: pool, arenas, batch former
      auto futures = server.submit_burst(split.train.images.data(), n);
      for (auto& f : futures) (void)f.get();
    }
    obs::set_trace_mode(mode, every);
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < trace_reps; ++rep) {
      auto futures = server.submit_burst(split.train.images.data(), n);
      for (auto& f : futures) (void)f.get();
    }
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    obs::set_trace_mode(obs::TraceMode::kOff);
    server.shutdown();
    return elapsed_s > 0.0
               ? static_cast<double>(trace_reps) * n / elapsed_s
               : 0.0;
  };
  const double trace_ips_off = served_ips(obs::TraceMode::kOff, 64);
  const double trace_ips_sampled = served_ips(obs::TraceMode::kSampled, 64);
  const double trace_overhead_pct =
      trace_ips_off > 0.0
          ? (trace_ips_off - trace_ips_sampled) * 100.0 / trace_ips_off
          : 0.0;

  PretraceFloor pretrace;
  for (const char* candidate :
       {"BENCH_throughput.pretrace.json",
        "../bench/baselines/BENCH_throughput.pretrace.json",
        "bench/baselines/BENCH_throughput.pretrace.json"}) {
    pretrace = load_pretrace(candidate);
    if (!pretrace.floor.empty()) break;
  }
  const bool trace_gate_engaged = !pretrace.floor.empty() &&
                                  pretrace.images == n && pretrace.bits == bits;
  bool trace_off_ok = true;
  int trace_gated_backends = 0;
  std::printf("\n");
  if (trace_gate_engaged) {
    const auto& names = runtime::BackendRegistry::instance().names();
    for (const auto& [backend, floor_ips] : pretrace.floor) {
      if (std::find(names.begin(), names.end(), backend) == names.end()) {
        std::printf("tracing: floor backend %s not registered — skipped\n",
                    backend.c_str());
        continue;
      }
      runtime::RuntimeConfig rc;
      rc.threads = 1;
      const auto model = make_model(backend, rc);
      (void)model->classify(split.train.images);  // warm-up
      double best = 0.0;
      for (int k = 0; k < 5; ++k) {
        (void)model->classify(split.train.images);
        best = std::max(best, model->last_stats().images_per_sec);
      }
      const double ratio = best / floor_ips;
      const bool ok = ratio >= 0.99;
      trace_off_ok &= ok;
      ++trace_gated_backends;
      std::printf("tracing: off %-20s best-of-5 %7.1f img/s vs "
                  "pre-instrumentation floor %7.1f -> %.2fx %s\n",
                  backend.c_str(), best, floor_ips, ratio,
                  ok ? "ok" : "SLOW — disabled tracing is not free!");
    }
    std::printf("tracing: off-mode gate (>=0.99x floor) on %d backend(s): "
                "%s\n",
                trace_gated_backends, trace_off_ok ? "ok" : "FAILED");
  } else if (pretrace.floor.empty()) {
    std::printf("tracing: off-mode gate not engaged — no pretrace floor "
                "file found\n");
  } else {
    std::printf("tracing: off-mode gate not engaged — run is n=%d bits=%u, "
                "floor was recorded at n=%d bits=%u\n",
                n, bits, pretrace.images, pretrace.bits);
  }
  std::printf(
      "tracing: served via Server, off %.1f img/s vs sampled:64 %.1f img/s "
      "-> overhead %.2f%% (reported, not gated)\n",
      trace_ips_off, trace_ips_sampled, trace_overhead_pct);

  std::FILE* json = std::fopen("BENCH_throughput.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "error: cannot write BENCH_throughput.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"throughput_serving\",\n"
               "  \"images\": %d,\n  \"bits\": %u,\n"
               "  \"all_predictions_identical\": %s,\n"
               "  \"fast_backends_match_reference\": %s,\n"
               "  \"tail_matches_forward_reference\": %s,\n"
               "  \"trace\": {\"off_within_1pct_of_floor\": %s, "
               "\"gate_engaged\": %s, \"gated_backends\": %d, "
               "\"ips_off\": %.1f, \"ips_sampled64\": %.1f, "
               "\"trace_overhead_pct\": %.2f},\n"
               "  \"results\": [\n",
               n, bits, all_identical ? "true" : "false",
               fast_identical ? "true" : "false",
               tail_referee_ok ? "true" : "false",
               trace_off_ok ? "true" : "false",
               trace_gate_engaged ? "true" : "false", trace_gated_backends,
               trace_ips_off, trace_ips_sampled, trace_overhead_pct);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(json,
                 "    {\"backend\": \"%s\", \"threads\": %u, "
                 "\"latency_ms\": %.3f, \"first_layer_ms\": %.3f, "
                 "\"tail_ms\": %.3f, \"images_per_sec\": %.1f, "
                 "\"speedup_vs_1t\": %.2f, \"speedup_vs_baseline\": %.2f, "
                 "\"energy_nj_per_frame\": %.2f, "
                 "\"identical_predictions\": %s, \"tail_exact\": %s}%s\n",
                 row.backend.c_str(), row.threads, row.latency_ms,
                 row.first_layer_ms, row.tail_ms, row.images_per_sec,
                 row.speedup_vs_1t, row.speedup_vs_baseline,
                 row.energy_nj_per_frame,
                 row.identical_predictions ? "true" : "false",
                 row.tail_exact ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"scaling\": [\n");
  for (std::size_t i = 0; i < scaling_rows.size(); ++i) {
    const ScalingRow& row = scaling_rows[i];
    std::fprintf(json,
                 "    {\"executor\": \"%s\", \"threads\": %u, "
                 "\"models\": %d, \"images_per_sec\": %.1f, "
                 "\"identical_predictions\": %s}%s\n",
                 row.executor.c_str(), row.threads, row.models,
                 row.images_per_sec,
                 row.identical_predictions ? "true" : "false",
                 i + 1 < scaling_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_throughput.json\n");
  return (all_identical && fast_identical && tail_referee_ok &&
          scaling_identical && trace_off_ok)
             ? 0
             : 1;
}
