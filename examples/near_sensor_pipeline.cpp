// Near-sensor system pipeline (Fig. 3 of the paper, middle row), deployed
// the way the paper's system would ship: as a frozen trained artifact.
//
// Startup loads a ModelBundle (training only happens when no matching
// bundle exists — run examples/train_and_export or let this example export
// one on first run), instantiates two servables from it with ZERO training,
// and serves each through its own runtime::Server over one shared executor:
//
//   "fixed"    — a single-rung pipeline at kBits, the paper's static design
//   "adaptive" — the 3/kBits-bit ladder, escalating uncertain frames only
//
// A camera stream is simulated frame by frame: each frame is submitted as a
// single request to one deployment's Server, whose dynamic batch former
// coalesces whatever is waiting into dense micro-batches. The adaptive
// deployment starts AFTER the fixed one has taken traffic — a new bundle
// joins the live process on the same executor without stopping anything.
// Per-frame latency and energy come from the calibrated 65nm model, with
// the all-binary design for comparison.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "hw/binary_design.h"
#include "hw/report.h"
#include "hw/stochastic_design.h"
#include "hybrid/bundle.h"
#include "hybrid/experiment.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/percentile.h"
#include "runtime/server.h"
#include "sensor/frame_source.h"

namespace {

using namespace scbnn;

constexpr std::size_t kPixels =
    static_cast<std::size_t>(hybrid::kImageSize) * hybrid::kImageSize;

/// Submit every frame of the stream as its own request to `server` and
/// wait for all predictions — the sensor-side view of serving.
std::vector<runtime::Prediction> serve_stream(runtime::Server& server,
                                              const data::Dataset& frames) {
  const int n = static_cast<int>(frames.size());
  std::vector<std::future<runtime::Prediction>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    futures.push_back(server.submit(
        frames.images.data() + static_cast<std::size_t>(i) * kPixels));
  }
  std::vector<runtime::Prediction> predictions;
  predictions.reserve(futures.size());
  for (auto& f : futures) predictions.push_back(f.get());
  return predictions;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr unsigned kBits = 6;
  constexpr int kFrames = 16;
  constexpr double kMargin = 0.5;

  hybrid::ExperimentConfig cfg;
  cfg.train_n = 1500;
  cfg.test_n = 400;
  cfg.base_epochs = 5;
  cfg.retrain_epochs = 2;
  cfg.cache_path = "scbnn_example_model_cache.bin";
  cfg.apply_env_overrides();

  const bench::Flags flags(argc, argv);
  const std::string bundle_path =
      flags.get_string("bundle", "SCBNN_BUNDLE", "scbnn_example.bundle");

  // Obtain the trained artifact: load when a matching bundle is on disk
  // (zero training, millisecond startup), train-and-export otherwise.
  const std::vector<unsigned> rung_bits = {3u, kBits};
  auto resolved = data::resolve_dataset(cfg.train_n, cfg.test_n, cfg.seed);
  bool trained_fresh = false;
  hybrid::ModelBundle bundle = hybrid::load_or_train_bundle(
      cfg, rung_bits, hybrid::FirstLayerDesign::kScProposed, bundle_path,
      resolved, kMargin, &trained_fresh);
  std::printf("%s %u/%u-bit ladder from %s\n\n",
              trained_fresh ? "trained and exported" : "loaded (no training)",
              rung_bits[0], kBits, bundle_path.c_str());

  // Both deployments share ONE executor: N models, one set of workers.
  runtime::RuntimeConfig rc = cfg.runtime_config();
  rc.executor = std::make_shared<runtime::Executor>(rc.threads);
  auto fixed = std::make_shared<runtime::AdaptivePipeline>(
      hybrid::instantiate_bundle_ladder(bundle, bundle.rungs.size() - 1),
      0.0, rc);
  auto adaptive = std::make_shared<runtime::AdaptivePipeline>(
      hybrid::instantiate_bundle_ladder(bundle), kMargin, rc);

  runtime::ServerConfig server_cfg;
  server_cfg.max_batch = 8;
  server_cfg.max_delay_us = 2000;
  runtime::Server fixed_server(*fixed, server_cfg);

  // "Sensor" stream = the first frames of the test split, one request each.
  const data::Dataset frames = data::head(resolved.split.test, kFrames);
  const std::vector<runtime::Prediction> predictions =
      serve_stream(fixed_server, frames);
  {
    const runtime::ServerStats stats = fixed_server.stats();
    std::printf("model 'fixed': served %ld single-frame requests on %u "
                "shared workers in %ld micro-batches (mean batch %.1f)\n\n",
                stats.completed, fixed->threads(), stats.batches,
                stats.mean_batch_size());
  }

  hw::StochasticConvDesign sc(kBits);
  hw::BinaryConvDesign bin(kBits);
  const double frame_us = sc.frame_time_s() * 1e6;
  const double frame_nj = sc.energy_per_frame_j() * 1e9;

  std::printf("frame | truth | predicted | wait+compute (ms) | batch | "
              "energy (this work vs binary)\n");
  int correct = 0;
  double total_nj = 0.0;
  for (int i = 0; i < kFrames; ++i) {
    const runtime::Prediction& p = predictions[static_cast<std::size_t>(i)];
    const bool ok = p.label == frames.labels[static_cast<std::size_t>(i)];
    correct += ok ? 1 : 0;
    total_nj += frame_nj;
    std::printf("%5d | %5d | %9d | %7.2f + %6.2f  | %5d | %6.1f nJ vs "
                "%6.1f nJ %s\n",
                i, frames.labels[static_cast<std::size_t>(i)], p.label,
                p.queue_wait_ms, p.compute_ms, p.batch_size, frame_nj,
                bin.energy_per_frame_j() * 1e9, ok ? "" : "  <- miss");
  }

  std::printf("\nstream accuracy: %d/%d\n", correct, kFrames);
  std::printf("stochastic first layer: %.2f us and %.1f nJ per frame "
              "(32 kernel passes x %zu cycles @ 500 MHz)\n",
              frame_us, frame_nj, std::size_t{1} << kBits);
  std::printf("total first-layer energy for the stream: %.2f uJ (binary "
              "design: %.2f uJ, %.1fx more)\n",
              total_nj * 1e-3, bin.energy_per_frame_j() * 1e9 * kFrames * 1e-3,
              bin.energy_per_frame_j() / sc.energy_per_frame_j());

  // ---- The adaptive deployment joins the live process ----
  runtime::Server adaptive_server(*adaptive, server_cfg);
  std::printf("\nstarted model 'adaptive' beside 'fixed' — no restart, "
              "same %u-worker executor\n",
              adaptive->threads());

  const std::vector<runtime::Prediction> outcomes =
      serve_stream(adaptive_server, frames);
  const double adaptive_energy_j = adaptive_server.stats().energy_j;
  int adaptive_correct = 0;
  std::vector<int> exits(adaptive->rung_count(), 0);
  for (int i = 0; i < kFrames; ++i) {
    const runtime::Prediction& p = outcomes[static_cast<std::size_t>(i)];
    if (p.label == frames.labels[static_cast<std::size_t>(i)]) {
      ++adaptive_correct;
    }
    ++exits[static_cast<std::size_t>(p.rung)];
  }

  std::printf("\nAdaptive precision (margin %.2f): %d/%d correct\n", kMargin,
              adaptive_correct, kFrames);
  std::printf("exit histogram:\n");
  int entering = kFrames;
  for (std::size_t r = 0; r < adaptive->rung_count(); ++r) {
    std::printf("  rung %zu (%u-bit): %3d frames entered, %3d exited\n", r,
                adaptive->rung(r).bits, entering, exits[r]);
    entering -= exits[r];
  }
  // Energy of a fixed kBits design over the stream, priced like the
  // pipeline prices its rungs.
  const int kernels = adaptive->rung(0).engine->kernels();
  const double fixed_j =
      kFrames * hw::backend_energy_per_frame_j(
                    adaptive->rung(0).engine->name(), kBits, kernels);
  std::printf("adaptive first-layer energy: %.1f nJ vs %.1f nJ fixed "
              "%u-bit — %.1f%% saved at %+d correct\n",
              adaptive_energy_j * 1e9, fixed_j * 1e9, kBits,
              100.0 * (1.0 - adaptive_energy_j / fixed_j),
              adaptive_correct - correct);

  fixed_server.shutdown();
  adaptive_server.shutdown();

  // ---- Sensor stream: a noisy, bursty camera overloads the ladder ----
  //
  // The full near-sensor loop: frames arrive in bursts through a noisy
  // sensor, and each one is submitted to the adaptive Server at its arrival
  // time. A sensor cannot wait, so a full admission queue sheds the frame
  // (QueueFullError) instead of stalling the stream.
  {
    constexpr long kStreamFrames = 96;

    // Calibrate the ladder's dense-batch peak (its Server is down, so
    // direct classify is safe) and offer 2.5x that: sustained overload.
    const data::Dataset pool = data::head(resolved.split.test, 64);
    nn::Tensor calib({static_cast<int>(pool.size()), 1, hybrid::kImageSize,
                      hybrid::kImageSize});
    std::copy(pool.images.data(), pool.images.data() + calib.size(),
              calib.data());
    (void)adaptive->classify(calib);  // warm-up
    const auto t0 = runtime::ServeClock::now();
    (void)adaptive->classify(calib);
    const double peak_rps =
        static_cast<double>(pool.size()) * 1e3 /
        std::max(1e-6, bench::ms_since(t0));

    sensor::ArrivalConfig arrivals;
    arrivals.kind = sensor::ArrivalKind::kBursty;
    arrivals.rate_hz = std::max(1.0, 2.5 * peak_rps);
    arrivals.burst_len = 24;
    sensor::NoisySensorSource::Noise noise;
    noise.gaussian_stddev = 0.03;
    sensor::NoisySensorSource source(
        std::make_unique<sensor::DatasetReplaySource>(pool, kStreamFrames,
                                                      arrivals, 41),
        noise, 42);

    runtime::ServerConfig stream_cfg;
    stream_cfg.max_batch = 8;
    stream_cfg.max_delay_us = 500;
    stream_cfg.queue_capacity = 24;
    runtime::Server stream_server(*adaptive, stream_cfg);

    // Open loop: arrivals follow the source's gaps whatever the server is
    // doing, so queueing delay lands in the end-to-end latency.
    struct Admitted {
      std::future<runtime::Prediction> future;
      double lag_ms = 0.0;  ///< arrival -> admitted
      int truth = -1;
    };
    std::vector<Admitted> admitted;
    long produced = 0;
    long shed = 0;
    sensor::Frame frame;
    auto arrival = runtime::ServeClock::now();
    while (source.next(frame)) {
      arrival += std::chrono::duration_cast<runtime::ServeClock::duration>(
          std::chrono::duration<double>(frame.gap_s));
      std::this_thread::sleep_until(arrival);
      ++produced;
      try {
        std::future<runtime::Prediction> future =
            stream_server.submit(frame.pixels.data());
        admitted.push_back(
            {std::move(future),
             runtime::ms_between(arrival, runtime::ServeClock::now()),
             frame.label});
      } catch (const runtime::QueueFullError&) {
        ++shed;
      }
    }

    std::vector<double> e2e_ms;
    long correct = 0;
    double energy_j = 0.0;
    for (Admitted& a : admitted) {
      const runtime::Prediction p = a.future.get();
      e2e_ms.push_back(a.lag_ms + p.e2e_ms());
      correct += p.label == a.truth ? 1 : 0;
      energy_j += p.energy_j;
    }
    std::sort(e2e_ms.begin(), e2e_ms.end());
    const long delivered = static_cast<long>(admitted.size());
    const double accuracy_pct =
        delivered > 0 ? 100.0 * static_cast<double>(correct) / delivered : 0.0;
    const double nj_per_frame =
        delivered > 0 ? energy_j * 1e9 / delivered : 0.0;

    std::printf("\nSensor stream (%s, ~%.0f frames/s offered vs ~%.0f "
                "sustainable, queue of %zu):\n",
                source.name().c_str(), arrivals.rate_hz, peak_rps,
                stream_cfg.queue_capacity);
    std::printf("  delivered %ld + shed %ld = %ld frames produced\n",
                delivered, shed, produced);
    std::printf("  e2e latency p50/p99: %.2f/%.2f ms; accuracy %.0f%%; "
                "first-layer energy %.1f nJ per delivered frame\n",
                runtime::percentile(e2e_ms, 50),
                runtime::percentile(e2e_ms, 99), accuracy_pct, nj_per_frame);
  }

  std::printf("\nNote: sensor conversion energy is excluded, as in the "
              "paper (Section IV.A) — prior work\nputs ramp-compare "
              "conversion at ~100 pJ/frame, negligible next to "
              "computation.\n");
  return 0;
}
