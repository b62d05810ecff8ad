// Sensor-stream serving under load: backpressure policy x offered load x
// backend, through the full sensor -> session -> server -> ladder path.
//
// Each operating point replays a deterministic (optionally noisy) frame
// stream into its own runtime::Server through a SensorSession, with the
// offered rate set as a fraction of the backend's calibrated dense-batch
// peak (so load fractions mean the same thing on every machine; fractions
// > 1 are deliberate overload). The three backpressure policies answer the
// overload question differently, and this bench measures the difference:
//
//   block       — lossless, but p99 latency grows without bound past 1x;
//   drop-oldest — latency stays bounded by shedding frames;
//   degrade     — a StreamSupervisor caps the adaptive ladder's escalation
//                 rung, shedding *precision*: p99 stays bounded, every
//                 frame is delivered, and energy per frame drops.
//
// A bit-identity gate anchors it all: at the lowest load fraction the
// session's predictions must match a direct Servable::classify of the
// replayed frames label for label (frames served under a lowered cap are
// exempt — degradation is allowed to change arithmetic, that is its job).
// The process exits non-zero if the gate fails.
//
// Knobs (flag / env): --frames/SCBNN_STREAM_FRAMES, --load-fracs/
// SCBNN_STREAM_FRACS, --policies/SCBNN_STREAM_POLICIES, --backends/
// SCBNN_STREAM_BACKENDS ("adaptive" or registry names), --arrival/
// SCBNN_STREAM_ARRIVAL (uniform|poisson|bursty|diurnal), --gauss-noise/
// SCBNN_STREAM_NOISE, --adc-ber/SCBNN_STREAM_ADC_BER, --queue-cap,
// --max-batch, --delay-us, --bits/SCBNN_BENCH_BITS, --threads/
// SCBNN_THREADS. Results land in BENCH_stream.json.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/synthetic_mnist.h"
#include "hw/report.h"
#include "hybrid/first_layer.h"
#include "nn/tensor.h"
#include "runtime/percentile.h"
#include "runtime/server.h"
#include "sensor/frame_source.h"
#include "sensor/sensor_session.h"
#include "sensor/stream_supervisor.h"

namespace {

using namespace scbnn;

constexpr std::size_t kPixels =
    static_cast<std::size_t>(hybrid::kImageSize) * hybrid::kImageSize;
constexpr std::uint64_t kSeed = 7;

/// The stream for one operating point: dataset replay at `rate_hz`,
/// wrapped in the noisy-sensor decorator when noise is requested.
std::unique_ptr<sensor::FrameSource> make_source(
    const data::Dataset& pool, long frames, sensor::ArrivalKind kind,
    double rate_hz, double gauss_noise, double adc_ber) {
  sensor::ArrivalConfig arrivals;
  arrivals.kind = kind;
  arrivals.rate_hz = rate_hz;
  std::unique_ptr<sensor::FrameSource> source =
      std::make_unique<sensor::DatasetReplaySource>(pool, frames, arrivals,
                                                    kSeed);
  if (gauss_noise > 0.0 || adc_ber > 0.0) {
    sensor::NoisySensorSource::Noise noise;
    noise.gaussian_stddev = gauss_noise;
    noise.adc_ber = adc_ber;
    source = std::make_unique<sensor::NoisySensorSource>(std::move(source),
                                                         noise, kSeed + 13);
  }
  return source;
}

/// Replay the whole stream into a dense tensor (reset first) — the
/// reference input for peak calibration and the bit-identity gate.
nn::Tensor replay_to_tensor(sensor::FrameSource& source, long frames) {
  nn::Tensor batch({static_cast<int>(frames), 1, hybrid::kImageSize,
                    hybrid::kImageSize});
  source.reset();
  sensor::Frame frame;
  long i = 0;
  while (i < frames && source.next(frame)) {
    std::copy(frame.pixels.begin(), frame.pixels.end(),
              batch.data() + static_cast<std::size_t>(i) * kPixels);
    ++i;
  }
  source.reset();
  return batch;
}

struct Point {
  std::string backend;
  std::string policy;
  double load_frac = 0.0;
  double offered_rps = 0.0;
  sensor::StreamStats stream;
  double throughput_rps = 0.0;
  double mean_batch = 0.0;
  int min_cap = 0;
  int full_rung = 0;
  long cap_changes = 0;
  bool identical_vs_direct = true;
  bool identity_gated = false;  ///< this point participates in the gate
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const long frames = flags.get_long("frames", "SCBNN_STREAM_FRAMES", 400, 1,
                                     1000000);
  const std::vector<double> load_fracs = flags.get_double_list(
      "load-fracs", "SCBNN_STREAM_FRACS", "0.5,1.5", 0.01, 8.0);
  const std::vector<std::string> policies = flags.get_list(
      "policies", "SCBNN_STREAM_POLICIES", "block,drop-oldest,degrade");
  const std::vector<std::string> backends =
      flags.get_list("backends", "SCBNN_STREAM_BACKENDS", "adaptive");
  const std::string arrival_name =
      flags.get_string("arrival", "SCBNN_STREAM_ARRIVAL", "poisson");
  const double gauss_noise = flags.get_double(
      "gauss-noise", "SCBNN_STREAM_NOISE", 0.02, 0.0, 1.0);
  const double adc_ber =
      flags.get_double("adc-ber", "SCBNN_STREAM_ADC_BER", 0.0, 0.0, 1.0);
  const int max_batch = static_cast<int>(
      flags.get_long("max-batch", "SCBNN_STREAM_MAX_BATCH", 16, 1, 4096));
  const auto queue_cap = static_cast<std::size_t>(
      flags.get_long("queue-cap", "SCBNN_STREAM_QUEUE_CAP", 32, 1, 1 << 20));
  const long delay_us =
      flags.get_long("delay-us", "SCBNN_STREAM_DELAY_US", 1000, 0, 1000000);
  const auto bits = static_cast<unsigned>(
      flags.get_long("bits", "SCBNN_BENCH_BITS", 4, 2, 8));
  runtime::RuntimeConfig rc;
  rc.threads = static_cast<unsigned>(
      flags.get_long("threads", "SCBNN_THREADS", 0, 0,
                     runtime::Executor::kMaxThreads));

  sensor::ArrivalKind arrival;
  try {
    arrival = sensor::arrival_from_string(arrival_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s; using poisson\n", e.what());
    arrival = sensor::ArrivalKind::kPoisson;
  }

  const double lowest_frac =
      *std::min_element(load_fracs.begin(), load_fracs.end());

  // A small pool of unique frames, cycled by the replay source.
  const long unique = std::min<long>(frames, 128);
  const data::DataSplit split = data::generate_synthetic_mnist(
      static_cast<std::size_t>(unique), 1, kSeed);

  std::printf("Stream serving: %ld frames/point, %s arrivals, "
              "noise sigma=%.3f adc_ber=%.4f, queue=%zu max_batch=%d\n\n",
              frames, sensor::to_string(arrival).c_str(), gauss_noise,
              adc_ber, queue_cap, max_batch);

  hw::TableWriter table(
      {"backend", "policy", "load", "offered/s", "done/s", "p50 ms", "p99 ms",
       "drop", "degr", "nJ/frm", "cap", "identical"},
      {24, 12, 5, 9, 8, 8, 9, 5, 5, 8, 4, 9});
  table.print_header();

  std::vector<Point> points;
  bool gate_ok = true;
  for (const std::string& backend_name : backends) {
    std::shared_ptr<runtime::Servable> backend;
    try {
      backend = bench::make_frozen_servable(backend_name, bits, rc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: skipping backend '%s': %s\n",
                   backend_name.c_str(), e.what());
      continue;
    }

    // Calibrate the dense-batch peak (and capture the identity reference)
    // on the exact frames the stream will deliver.
    const long calib = std::min<long>(frames, 512);
    auto calib_source = make_source(split.train, calib, arrival,
                                    /*rate placeholder*/ 1000.0, gauss_noise,
                                    adc_ber);
    const nn::Tensor calib_batch = replay_to_tensor(*calib_source, calib);
    (void)backend->classify(calib_batch);  // warm-up (page-in, pool spin-up)
    const auto peak_start = runtime::ServeClock::now();
    (void)backend->classify(calib_batch);
    const double peak_ms = bench::ms_since(peak_start);
    const double peak_rps =
        peak_ms > 0.0 ? static_cast<double>(calib) * 1e3 / peak_ms : 1e6;

    // Full-stream identity reference (direct classify, uncapped).
    auto ref_source = make_source(split.train, frames, arrival, 1000.0,
                                  gauss_noise, adc_ber);
    const nn::Tensor all_frames = replay_to_tensor(*ref_source, frames);
    const std::vector<runtime::Prediction> reference =
        backend->classify(all_frames);

    for (double frac : load_fracs) {
      for (const std::string& policy_name : policies) {
        sensor::BackpressurePolicy policy;
        try {
          policy = sensor::policy_from_string(policy_name);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "warning: skipping policy: %s\n", e.what());
          continue;
        }

        const double offered_rps = std::max(1.0, frac * peak_rps);
        auto source = make_source(split.train, frames, arrival, offered_rps,
                                  gauss_noise, adc_ber);

        runtime::ServerConfig server_cfg;
        server_cfg.max_batch = max_batch;
        server_cfg.max_delay_us = delay_us;
        server_cfg.queue_capacity = queue_cap;
        runtime::Server server(*backend, server_cfg);

        sensor::SessionConfig session_cfg;
        session_cfg.policy = policy;
        sensor::SensorSession session(*source, server, session_cfg);

        // The degrade policy's control loop: watch this session, cap the
        // ladder when the queue backs up past ~3/4 of its capacity.
        std::unique_ptr<sensor::StreamSupervisor> supervisor;
        if (policy == sensor::BackpressurePolicy::kDegrade) {
          sensor::SupervisorConfig sup_cfg;
          sup_cfg.high_inflight =
              std::max<long>(2, static_cast<long>(queue_cap) * 3 / 4);
          sup_cfg.low_inflight = sup_cfg.high_inflight / 4;
          sup_cfg.hold_ticks = 3;
          sup_cfg.tick_us = 1000;
          supervisor = std::make_unique<sensor::StreamSupervisor>(backend,
                                                                  sup_cfg);
          supervisor->watch(&session);
          supervisor->start();
        }

        session.start();
        const sensor::StreamStats stream = session.finish();

        Point pt;
        pt.backend = backend->name();
        pt.policy = policy_name;
        pt.load_frac = frac;
        pt.offered_rps = offered_rps;
        pt.stream = stream;
        if (supervisor) {
          pt.full_rung = supervisor->full_rung();
          pt.min_cap = supervisor->min_cap_seen();
          pt.cap_changes = static_cast<long>(supervisor->events().size());
          supervisor->stop();  // restore the full ladder for the next point
        } else {
          pt.full_rung = backend->max_rung();
          pt.min_cap = pt.full_rung;
        }
        pt.throughput_rps = stream.wall_ms > 0.0
                                ? static_cast<double>(stream.delivered) *
                                      1e3 / stream.wall_ms
                                : 0.0;
        pt.mean_batch = server.stats().mean_batch_size();

        // Identity: every frame delivered at the full ladder must match
        // the direct reference. Degraded frames are exempt by design.
        for (const sensor::SessionOutcome& o : session.outcomes()) {
          if (o.degraded) continue;
          pt.identical_vs_direct &=
              o.predicted ==
              reference[static_cast<std::size_t>(o.sequence)].label;
        }
        pt.identity_gated = frac == lowest_frac;
        if (pt.identity_gated) gate_ok &= pt.identical_vs_direct;
        points.push_back(pt);

        table.print_row(
            {pt.backend, pt.policy, hw::TableWriter::fmt(frac, 2),
             hw::TableWriter::fmt(offered_rps, 0),
             hw::TableWriter::fmt(pt.throughput_rps, 0),
             hw::TableWriter::fmt(stream.e2e_ms.percentile(50)),
             hw::TableWriter::fmt(stream.e2e_ms.percentile(99)),
             std::to_string(stream.dropped), std::to_string(stream.degraded),
             hw::TableWriter::fmt(stream.energy_nj_per_frame(), 1),
             std::to_string(pt.min_cap),
             pt.identical_vs_direct ? "yes" : "NO"});
      }
    }
    table.print_rule();

    // The degrade headline, spelled out: at the highest load fraction,
    // precision shedding should deliver everything at bounded latency for
    // less energy per frame than lossless blocking.
    const double top_frac =
        *std::max_element(load_fracs.begin(), load_fracs.end());
    const Point* block_pt = nullptr;
    const Point* degrade_pt = nullptr;
    for (const Point& pt : points) {
      if (pt.backend != backend->name() || pt.load_frac != top_frac) continue;
      if (pt.policy == "block") block_pt = &pt;
      if (pt.policy == "degrade") degrade_pt = &pt;
    }
    if (block_pt != nullptr && degrade_pt != nullptr &&
        block_pt->stream.delivered > 0 && degrade_pt->stream.delivered > 0) {
      const double e_block = block_pt->stream.energy_nj_per_frame();
      const double e_degrade = degrade_pt->stream.energy_nj_per_frame();
      std::printf(
          "\n%s @ %.2fx load — degrade vs block: energy %.1f vs %.1f "
          "nJ/frame (%.1f%% saved), p99 %.2f vs %.2f ms, degraded %ld of "
          "%ld frames (cap floor %d/%d)\n",
          backend->name().c_str(), top_frac, e_degrade, e_block,
          e_block > 0.0 ? 100.0 * (1.0 - e_degrade / e_block) : 0.0,
          degrade_pt->stream.e2e_ms.percentile(99),
          block_pt->stream.e2e_ms.percentile(99),
          degrade_pt->stream.degraded, degrade_pt->stream.delivered,
          degrade_pt->min_cap, degrade_pt->full_rung);
    }
  }

  std::printf("\nlow-load predictions identical to direct classify: %s\n",
              gate_ok ? "yes" : "NO — the stream path changed arithmetic!");

  std::FILE* json = std::fopen("BENCH_stream.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "error: cannot write BENCH_stream.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"stream_serving\",\n"
               "  \"frames_per_point\": %ld,\n  \"arrival\": \"%s\",\n"
               "  \"gauss_noise\": %.4f,\n  \"adc_ber\": %.5f,\n"
               "  \"queue_capacity\": %zu,\n  \"max_batch\": %d,\n"
               "  \"identity_gate_ok\": %s,\n  \"results\": [\n",
               frames, sensor::to_string(arrival).c_str(), gauss_noise,
               adc_ber, queue_cap, max_batch, gate_ok ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    const sensor::StreamStats& s = pt.stream;
    std::fprintf(
        json,
        "    {\"backend\": \"%s\", \"policy\": \"%s\", \"load_frac\": %.2f, "
        "\"offered_rps\": %.1f, \"produced\": %ld, \"delivered\": %ld, "
        "\"dropped\": %ld, \"degraded\": %ld, \"failed\": %ld, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"throughput_rps\": %.1f, \"mean_batch\": %.2f, "
        "\"energy_nj_per_frame\": %.2f, \"accuracy\": %.4f, "
        "\"min_rung_cap\": %d, \"full_rung\": %d, \"cap_changes\": %ld, "
        "\"identical\": %s, \"identity_gated\": %s}%s\n",
        pt.backend.c_str(), pt.policy.c_str(), pt.load_frac, pt.offered_rps,
        s.produced, s.delivered, s.dropped, s.degraded, s.failed,
        s.e2e_ms.percentile(50), s.e2e_ms.percentile(95),
        s.e2e_ms.percentile(99), pt.throughput_rps,
        pt.mean_batch, s.energy_nj_per_frame(), s.accuracy(), pt.min_cap,
        pt.full_rung, pt.cap_changes, pt.identical_vs_direct ? "true"
                                                             : "false",
        pt.identity_gated ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_stream.json\n");
  return gate_ok ? 0 : 1;
}
