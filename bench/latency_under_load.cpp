// Open-loop latency under load for the request-level serving core.
//
// A Poisson load generator submits single-frame requests to runtime::Server
// at a fixed offered rate — open loop: arrival times are drawn up front and
// honored regardless of how the server keeps up, so queueing delay is
// measured instead of hidden (closed-loop generators coordinate with the
// system under test and underestimate tail latency). Each operating point
// sweeps (offered load x max_delay_us x backend); offered load is a
// fraction of the backend's calibrated batch throughput, so the sweep is
// meaningful on any machine. Per point: p50/p95/p99 end-to-end latency,
// achieved throughput, the batch-size histogram the dynamic batch former
// produced, admission rejections, and first-layer energy per frame.
// A bit-identity gate re-classifies the same frame sequence as one direct
// batch and requires the server's predictions to match label for label —
// coalescing must never change the arithmetic.
//
// Knobs (flag / env): --frames/SCBNN_LOAD_FRAMES (requests per point),
// --load-fracs/SCBNN_LOAD_FRACS, --delays-us/SCBNN_LOAD_DELAYS_US,
// --backends/SCBNN_LOAD_BACKENDS (registry names or "adaptive"),
// --max-batch, --queue-cap, --bits/SCBNN_BENCH_BITS, --threads/SCBNN_THREADS.
// Results land in BENCH_serving.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/synthetic_mnist.h"
#include "hw/report.h"
#include "hybrid/hybrid_network.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/percentile.h"
#include "runtime/server.h"
#include "sensor/arrival_schedule.h"

namespace {

using namespace scbnn;

constexpr std::size_t kPixels =
    static_cast<std::size_t>(hybrid::kImageSize) * hybrid::kImageSize;
constexpr std::uint64_t kSeed = 7;

struct Point {
  std::string backend;
  double load_frac = 0.0;
  double offered_rps = 0.0;
  long max_delay_us = 0;
  int submitted = 0;
  long completed = 0;
  long rejected = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double throughput_rps = 0.0;
  double mean_batch = 0.0;
  double energy_nj_per_frame = 0.0;
  std::vector<long> batch_histogram;
  bool identical_vs_direct = true;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int frames_per_point = static_cast<int>(
      flags.get_long("frames", "SCBNN_LOAD_FRAMES", 300, 1, 1000000));
  const std::vector<double> load_fracs = flags.get_double_list(
      "load-fracs", "SCBNN_LOAD_FRACS", "0.4,0.8", 0.01, 4.0);
  const std::vector<double> delays = flags.get_double_list(
      "delays-us", "SCBNN_LOAD_DELAYS_US", "200,2000", 0.0, 1e7);
  const std::vector<std::string> backends = flags.get_list(
      "backends", "SCBNN_LOAD_BACKENDS", "sc-proposed,adaptive");
  const int max_batch = static_cast<int>(
      flags.get_long("max-batch", "SCBNN_LOAD_MAX_BATCH", 32, 1, 4096));
  const auto queue_cap = static_cast<std::size_t>(
      flags.get_long("queue-cap", "SCBNN_LOAD_QUEUE_CAP", 1024, 1, 1 << 20));
  const auto bits =
      static_cast<unsigned>(flags.get_long("bits", "SCBNN_BENCH_BITS", 4, 2, 8));
  runtime::RuntimeConfig rc;
  rc.threads =
      static_cast<unsigned>(flags.get_long("threads", "SCBNN_THREADS", 0, 0,
                                           runtime::Executor::kMaxThreads));

  // A small pool of unique frames, cycled by the generator.
  const int unique = std::min(frames_per_point, 128);
  const data::DataSplit split = data::generate_synthetic_mnist(
      static_cast<std::size_t>(unique), 1, kSeed);
  const float* frame_pool = split.train.images.data();

  std::printf("Latency under load: %d requests/point, max_batch=%d, "
              "%u worker threads\n\n",
              frames_per_point, max_batch,
              runtime::Executor::resolve_threads(rc.threads));

  hw::TableWriter table({"backend", "load", "delay us", "offered/s", "done/s",
                         "p50 ms", "p95 ms", "p99 ms", "mean batch", "rej",
                         "identical"},
                        {24, 5, 9, 9, 8, 8, 8, 8, 10, 5, 9});
  table.print_header();

  std::vector<Point> points;
  bool all_identical = true;
  for (const std::string& name : backends) {
    // Warn-and-skip on a bad backend name: one typo must not abort the
    // bench and discard every completed operating point.
    std::unique_ptr<runtime::Servable> backend;
    try {
      backend = bench::make_frozen_servable(name, bits, rc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: skipping backend '%s': %s\n",
                   name.c_str(), e.what());
      continue;
    }

    // Calibrate the backend's dense-batch peak so offered load fractions
    // mean the same thing on every machine. Capped: the reference batch's
    // feature tensor is [n, kernels, 28, 28], so classifying a huge
    // --frames value in one piece would exhaust memory before any
    // operating point ran.
    const int calibration_n = std::min(frames_per_point, 2048);
    const auto direct = [&] {
      nn::Tensor batch({calibration_n, 1, hybrid::kImageSize,
                        hybrid::kImageSize});
      for (int i = 0; i < calibration_n; ++i) {
        const float* src =
            frame_pool + static_cast<std::size_t>(i % unique) * kPixels;
        std::copy(src, src + kPixels,
                  batch.data() + static_cast<std::size_t>(i) * kPixels);
      }
      return backend->classify(batch);
    };
    (void)direct();  // warm-up (page-in, pool spin-up)
    const auto peak_start = runtime::ServeClock::now();
    const std::vector<runtime::Prediction> reference = direct();
    const double peak_ms =
        runtime::ms_between(peak_start, runtime::ServeClock::now());
    const double peak_rps = peak_ms > 0.0 ? calibration_n * 1e3 / peak_ms : 1e6;

    for (double delay_us : delays) {
      for (double frac : load_fracs) {
        const double offered_rps = std::max(1.0, frac * peak_rps);
        runtime::ServerConfig sc;
        sc.max_batch = max_batch;
        sc.max_delay_us = static_cast<long>(delay_us);
        sc.queue_capacity = queue_cap;
        runtime::Server server(*backend, sc);

        // Open-loop Poisson arrivals from the shared schedule (the same
        // implementation the sensor streams and the fleet bench draw from),
        // deterministically seeded per operating point.
        sensor::ArrivalConfig arrival_cfg;
        arrival_cfg.kind = sensor::ArrivalKind::kPoisson;
        arrival_cfg.rate_hz = offered_rps;
        sensor::ArrivalSchedule interarrival(arrival_cfg, kSeed);
        std::vector<std::future<runtime::Prediction>> futures;
        std::vector<int> frame_of;  // request -> frame index (for identity)
        futures.reserve(static_cast<std::size_t>(frames_per_point));
        long rejected = 0;

        const auto t0 = runtime::ServeClock::now();
        auto next_arrival = t0;
        for (int i = 0; i < frames_per_point; ++i) {
          next_arrival += std::chrono::nanoseconds(
              static_cast<long>(interarrival.next_gap_s() * 1e9));
          std::this_thread::sleep_until(next_arrival);
          try {
            futures.push_back(server.submit(
                frame_pool + static_cast<std::size_t>(i % unique) * kPixels));
            frame_of.push_back(i % unique);
          } catch (const runtime::QueueFullError&) {
            ++rejected;
          }
        }

        std::vector<double> latencies;
        latencies.reserve(futures.size());
        bool identical = true;
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const runtime::Prediction p = futures[i].get();
          latencies.push_back(p.e2e_ms());
          // Direct reference: frame j classified inside a dense batch.
          identical &=
              p.label ==
              reference[static_cast<std::size_t>(frame_of[i])].label;
        }
        const double wall_ms =
            runtime::ms_between(t0, runtime::ServeClock::now());
        server.shutdown();
        const runtime::ServerStats stats = server.stats();

        Point pt;
        pt.backend = backend->name();
        pt.load_frac = frac;
        pt.offered_rps = offered_rps;
        pt.max_delay_us = static_cast<long>(delay_us);
        pt.submitted = frames_per_point;
        pt.completed = stats.completed;
        pt.rejected = rejected;
        const runtime::LatencySummary lat =
            runtime::summarize_latencies(latencies);
        pt.p50_ms = lat.p50;
        pt.p95_ms = lat.p95;
        pt.p99_ms = lat.p99;
        pt.throughput_rps =
            wall_ms > 0.0 ? static_cast<double>(stats.completed) * 1e3 /
                                wall_ms
                          : 0.0;
        pt.mean_batch = stats.mean_batch_size();
        pt.energy_nj_per_frame =
            stats.completed > 0 ? stats.energy_j * 1e9 / stats.completed : 0.0;
        pt.batch_histogram = stats.batch_histogram;
        pt.identical_vs_direct = identical;
        all_identical &= identical;
        points.push_back(pt);

        table.print_row({pt.backend, hw::TableWriter::fmt(frac, 2),
                         std::to_string(pt.max_delay_us),
                         hw::TableWriter::fmt(offered_rps, 0),
                         hw::TableWriter::fmt(pt.throughput_rps, 0),
                         hw::TableWriter::fmt(pt.p50_ms),
                         hw::TableWriter::fmt(pt.p95_ms),
                         hw::TableWriter::fmt(pt.p99_ms),
                         hw::TableWriter::fmt(pt.mean_batch, 1),
                         std::to_string(rejected),
                         identical ? "yes" : "NO"});
      }
    }
    table.print_rule();
  }

  std::printf("\nserver predictions identical to direct batch calls: %s\n",
              all_identical ? "yes" : "NO — coalescing changed results!");

  std::FILE* json = std::fopen("BENCH_serving.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "error: cannot write BENCH_serving.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"latency_under_load\",\n"
               "  \"frames_per_point\": %d,\n  \"max_batch\": %d,\n"
               "  \"all_predictions_identical\": %s,\n  \"results\": [\n",
               frames_per_point, max_batch, all_identical ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    std::fprintf(json,
                 "    {\"backend\": \"%s\", \"load_frac\": %.2f, "
                 "\"offered_rps\": %.1f, \"max_delay_us\": %ld, "
                 "\"submitted\": %d, \"completed\": %ld, \"rejected\": %ld, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"throughput_rps\": %.1f, \"mean_batch\": %.2f, "
                 "\"energy_nj_per_frame\": %.2f, \"identical\": %s, "
                 "\"batch_histogram\": [",
                 pt.backend.c_str(), pt.load_frac, pt.offered_rps,
                 pt.max_delay_us, pt.submitted, pt.completed, pt.rejected,
                 pt.p50_ms,
                 pt.p95_ms, pt.p99_ms, pt.throughput_rps, pt.mean_batch,
                 pt.energy_nj_per_frame,
                 pt.identical_vs_direct ? "true" : "false");
    for (std::size_t b = 0; b < pt.batch_histogram.size(); ++b) {
      std::fprintf(json, "%ld%s", pt.batch_histogram[b],
                   b + 1 < pt.batch_histogram.size() ? ", " : "");
    }
    std::fprintf(json, "]}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_serving.json\n");
  return all_identical ? 0 : 1;
}
