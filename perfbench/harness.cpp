// The repository benchmark: three fixed workloads, one load generator.
//
// Each workload is built from a frozen ModelBundle (bench::make_frozen_bundle,
// saved to a file) and driven by this process's main thread:
//
//   1. set-up, timed several times: bundle file -> first frame answered;
//   2. an open-loop phase replaying a seeded arrival schedule at a fixed
//      offered rate, each frame timed from its due time to its result;
//   3. a closed-loop saturation phase holding a window of outstanding frames
//      at the admission bound: frames completed per second;
//   4. a referee: every served prediction is compared bitwise with a direct
//      Servable::classify of the same frame, from the same bundle file.
//
// With --trace 1 the open-loop phase runs twice, untraced and then traced:
// the backend wrapped in a forwarding Servable that times every batch, and
// one span per frame kept in memory and written out at the end. The
// per-layer metrics come from the traced pass, the tracing overhead from
// the difference between the two. The program's own SCBNN_TRACE stays off.
//
// stdout: a metric table, then one JSON line {"correct", "attempted",
// "failed", "metrics"}. Any prediction mismatch exits with code 1.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/synthetic_mnist.h"
#include "fleet/coordinator.h"
#include "hybrid/bundle.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/percentile.h"
#include "runtime/process_stats.h"
#include "runtime/server.h"
#include "sensor/arrival_schedule.h"
#include "sensor/session_driver.h"

namespace {

using namespace scbnn;
using Clock = runtime::ServeClock;
using Answers = std::vector<std::pair<int, runtime::Prediction>>;

constexpr int kPixels = hybrid::kImageSize * hybrid::kImageSize;

// ------------------------------------------------------------- workloads

enum class Kind { kServer, kFleet };

/// One workload, fixed for the life of the benchmark. Offered rates are
/// absolute numbers, never recalibrated per run: a faster layer shows up as
/// lower latency and higher sustained_fps, not as a higher offered load.
struct Workload {
  const char* name;
  Kind kind;
  const char* backend;
  std::vector<unsigned> ladder;
  /// Escalation threshold written into the bundle. The ladder's is pinned
  /// at the median rung-0 margin of these frames (the bundle default, 0.5,
  /// escalates every frame), so about half the frames escalate.
  double confidence_margin;
  double rate_fps;  ///< mean offered rate of the open-loop phase
};

// sc4-stream: the paper's 4-bit design point, Poisson single frames; the SC
// first layer dominates a classify, so SC-engine, executor and Server
// changes show here. ladder-burst: the energy-accuracy knob; bursts swing
// batches between single frames and max_batch, and half the frames pay for
// the 8-bit first layer. binary-fleet: the all-binary 4-bit baseline behind
// forked shards; compute is cheapest, so ring transit, the coordinator and
// the shard loop carry the largest share of latency, and the SC engines and
// the Server are bypassed.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sc4-stream", Kind::kServer, "sc-proposed-fast", {4}, 0.5, 75.0},
      {"ladder-burst", Kind::kServer, "sc-proposed-fast", {4, 8}, 0.032, 60.0},
      {"binary-fleet", Kind::kFleet, "binary-quantized", {4}, 0.5, 600.0},
  };
  return all;
}

constexpr unsigned kWorkers = 2;         ///< Server workers
constexpr int kBurstLen = 24;            ///< frames per ladder burst
constexpr double kBurstRateHz = 500.0;   ///< arrival rate inside a burst
constexpr long kSessions = 256;          ///< fleet sensor sessions
constexpr int kShards = 2;               ///< fleet shards, 1 worker each
constexpr std::size_t kWindow = 256;     ///< frames outstanding at saturation
constexpr int kRefereeBatch = 64;

runtime::ServerConfig server_config() {
  runtime::ServerConfig cfg;
  cfg.max_batch = 16;
  cfg.max_delay_us = 1000;
  cfg.queue_capacity = kWindow;
  return cfg;
}

fleet::FleetConfig fleet_config(const std::string& bundle_path) {
  fleet::FleetConfig cfg;
  cfg.shards = kShards;
  cfg.bundle_path = bundle_path;
  cfg.ring_capacity = 1024;
  cfg.shard_max_batch = 32;
  cfg.shard_threads = 1;
  return cfg;
}

// --------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics of the untraced run, then its noise diagnostics.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"sustained_fps", "1/s"},
    {"cpu_ms_per_frame", "ms"},
    {"energy_nj_per_frame", "nJ"},
    {"failed_pct", "%"},
    {"peak_rss_mb", "MB"},
    {"host.steal_pct", "%"},
    {"sensor.gen_lag_p99_ms", "ms"},
};

/// Per-layer metrics of the traced run; 0 where the workload's frames do
/// not pass through the layer.
constexpr MetricDef kPerLayer[] = {
    {"hybrid.first_layer_us_per_frame", "us"},
    {"nn.tail_us_per_frame", "us"},
    {"runtime.classify_us_per_frame", "us"},
    {"runtime.glue_us_per_frame", "us"},
    {"runtime.pipeline.escalated_pct", "%"},
    {"runtime.pipeline.rung0_us_per_frame", "us"},
    {"runtime.pipeline.rung1_us_per_frame", "us"},
    {"runtime.server.queue_wait_p50_ms", "ms"},
    {"runtime.server.queue_wait_p99_ms", "ms"},
    {"runtime.server.batch_mean", "count"},
    {"runtime.server.singleton_batch_pct", "%"},
    {"runtime.executor.chunks_per_batch", "count"},
    {"runtime.executor.steals_per_batch", "count"},
    {"runtime.executor.parks_per_batch", "count"},
    {"fleet.transit_p50_ms", "ms"},
    {"fleet.transit_p99_ms", "ms"},
    {"fleet.shard_compute_p50_ms", "ms"},
    {"fleet.batch_mean", "count"},
    {"fleet.shard_cpu_ms_per_frame", "ms"},
    {"fleet.coord_cpu_ms_per_frame", "ms"},
    {"fleet.ctx_switches_per_frame", "count"},
    {"fleet.ring_full_pct", "%"},
    {"fleet.duplicates", "count"},
    {"sensor.gen_lag_p99_ms", "ms"},
    {"host.steal_pct", "%"},
    {"harness.trace_overhead_pct", "%"},
};

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny inputs and few set-ups: a shape check only
  std::string workdir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return args;
}

/// Phase lengths and input sizes. An untraced run splits --seconds 2:1
/// between the open-loop and the saturation phase; a traced run spends it on
/// two open-loop passes, untraced and traced.
struct Sizes {
  double open_s;
  double sat_s;
  int setups;
  int pool;  ///< distinct frames of the Server workloads
  long sessions;
};

Sizes sizes_for(const Args& args) {
  if (args.smoke) return {0.5, 0.3, 2, 64, 32};
  if (args.trace) return {0.5 * args.seconds, 0.0, 1, 1024, kSessions};
  return {args.seconds * 2 / 3, args.seconds / 3, 11, 1024, kSessions};
}

// --------------------------------------------------------------- helpers

double pct(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return runtime::percentile(v, p);
}

/// Progress on stderr: how long each stage of a run took.
void log_stage(const char* stage, Clock::time_point& since) {
  const Clock::time_point now = Clock::now();
  std::fprintf(stderr, "perfbench: %-12s %7.2f s\n", stage,
               1e-3 * runtime::ms_between(since, now));
  since = now;
}

/// CPU seconds and context switches of this whole process so far.
struct Usage {
  double cpu_s = 0.0;
  long ctx_switches = 0;
};

Usage usage_now() {
  const runtime::ProcessUsage u = runtime::process_usage();
  return {u.utime_s + u.stime_s,
          static_cast<long>(u.voluntary_ctx_switches +
                            u.involuntary_ctx_switches)};
}

/// Host-wide jiffies from /proc/stat: steal, and all states together.
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    double v = 0.0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

bool same_arithmetic(const runtime::Prediction& a,
                     const runtime::Prediction& b) {
  return a.label == b.label && a.rung == b.rung &&
         a.bits_used == b.bits_used &&
         std::memcmp(&a.margin, &b.margin, sizeof(double)) == 0;
}

/// The frame every set-up answers first: the same in every run, so set-up
/// time never depends on whether the seed's first frame escalates.
std::vector<float> probe_frame() {
  const data::DataSplit split = data::generate_synthetic_mnist(1, 1, 1);
  return {split.train.images.data(), split.train.images.data() + kPixels};
}

// ---------------------------------------------------------------- inputs

/// Everything the load generator sends, made from the seed before any clock
/// starts: the frames, the open-loop schedule, and (fleet) the session and
/// tenant of each frame.
struct Inputs {
  std::vector<float> pixels;           ///< frames x 784
  std::vector<double> due_s;           ///< open-loop due times
  std::vector<int> frame_of;           ///< frame sent at each due time
  std::vector<std::uint64_t> session;  ///< placement key per frame (fleet)
  std::vector<std::uint32_t> tenant;   ///< tenant per frame (fleet)

  [[nodiscard]] int frames() const {
    return static_cast<int>(pixels.size() / kPixels);
  }
  [[nodiscard]] const float* frame(int f) const {
    return pixels.data() + static_cast<std::size_t>(f) * kPixels;
  }
};

/// Server workloads: a pool of synthetic digits, cycled by a Poisson
/// schedule (sc4-stream) or by bursts of kBurstLen frames at kBurstRateHz
/// (ladder-burst).
Inputs server_inputs(const Workload& w, std::uint64_t seed, double open_s,
                     int pool) {
  Inputs in;
  const data::DataSplit split =
      data::generate_synthetic_mnist(static_cast<std::size_t>(pool), 1, seed);
  in.pixels.assign(split.train.images.data(),
                   split.train.images.data() +
                       static_cast<std::size_t>(pool) * kPixels);
  const auto add = [&in, pool](double t) {
    in.frame_of.push_back(static_cast<int>(in.due_s.size() % pool));
    in.due_s.push_back(t);
  };
  if (w.ladder.size() > 1) {
    // Bursts start on a fixed period. With exponential idle gaps, p99 would
    // hinge on how the few dozen bursts of one run happen to clump together.
    const double period_s = kBurstLen / w.rate_fps;
    for (long i = 0;; ++i) {
      const double t = static_cast<double>(i / kBurstLen) * period_s +
                       static_cast<double>(i % kBurstLen) / kBurstRateHz;
      if (t >= open_s) break;
      add(t);
    }
    return in;
  }
  sensor::ArrivalConfig ac;
  ac.kind = sensor::ArrivalKind::kPoisson;
  ac.rate_hz = w.rate_fps;
  sensor::ArrivalSchedule schedule(ac.validate(), seed);
  for (double t = schedule.next_gap_s(); t < open_s;
       t += schedule.next_gap_s()) {
    add(t);
  }
  return in;
}

/// The fleet: a session population (Poisson, bursty and diurnal sessions in
/// turn, each rendering its own drifting camera) merged by due time at a
/// fixed aggregate rate, cut at the end of the open-loop phase.
Inputs fleet_inputs(const Workload& w, std::uint64_t seed, double open_s,
                    long sessions) {
  sensor::SessionStreamConfig sc;
  sc.sessions = sessions;
  sc.rate_hz = w.rate_fps / static_cast<double>(sessions);
  sc.frames_per_session =
      static_cast<long>(std::ceil(1.5 * sc.rate_hz * open_s)) + 4;
  sc.seed = seed;
  sensor::SessionStreamDriver stream(sc.validate());
  Inputs in;
  sensor::SessionEvent event;
  while (stream.next(event) && event.due_s < open_s) {
    in.pixels.insert(in.pixels.end(), event.frame.pixels.begin(),
                     event.frame.pixels.end());
    in.frame_of.push_back(static_cast<int>(in.due_s.size()));
    in.due_s.push_back(event.due_s);
    in.session.push_back(event.sensor_id);
    in.tenant.push_back(static_cast<std::uint32_t>(event.session % 4));
  }
  return in;
}

// ----------------------------------------------------------- timed layer

/// Sums over the batches a TimedServable saw.
struct LayerTotals {
  long batches = 0;
  long frames = 0;
  double wall_ms = 0.0;
  double first_layer_ms = 0.0;
  double tail_ms = 0.0;
  std::uint64_t chunks = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  long rung_in[2] = {0, 0};  ///< ladder only
  double rung_ms[2] = {0.0, 0.0};
};

struct BatchSpan {
  Clock::time_point start;
  double wall_ms;
  int frames;
};

/// Forwarding Servable that times every batch from outside: wall time and
/// frame count, the backend's first-layer/tail split, executor-counter
/// deltas and, for a ladder, the per-rung counts of last_stats().
class TimedServable : public runtime::Servable {
 public:
  explicit TimedServable(runtime::Servable& inner)
      : inner_(inner),
        ladder_(dynamic_cast<runtime::AdaptivePipeline*>(&inner)) {}

  runtime::ServeStats classify(const float* images, int n,
                               runtime::Prediction* out) override {
    const runtime::ExecutorStats e0 = inner_.executor_stats();
    const Clock::time_point t0 = Clock::now();
    const runtime::ServeStats s = inner_.classify(images, n, out);
    const double wall = runtime::ms_between(t0, Clock::now());
    const runtime::ExecutorStats e1 = inner_.executor_stats();
    totals_.batches += 1;
    totals_.frames += n;
    totals_.wall_ms += wall;
    totals_.first_layer_ms += s.first_layer_ms;
    totals_.tail_ms += s.tail_ms;
    totals_.chunks += e1.chunks_run - e0.chunks_run;
    totals_.steals += e1.steals - e0.steals;
    totals_.parks += e1.parks - e0.parks;
    if (ladder_ != nullptr) {
      const runtime::PipelineStats& ps = ladder_->last_stats();
      for (std::size_t r = 0; r < ps.rungs.size() && r < 2; ++r) {
        totals_.rung_in[r] += ps.rungs[r].images_in;
        totals_.rung_ms[r] += ps.rungs[r].latency_ms;
      }
    }
    batches_.push_back({t0, wall, n});
    return s;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] unsigned threads() const noexcept override {
    return inner_.threads();
  }
  [[nodiscard]] runtime::ExecutorStats executor_stats() const override {
    return inner_.executor_stats();
  }
  void set_max_rung(int cap) noexcept override { inner_.set_max_rung(cap); }
  [[nodiscard]] int max_rung() const noexcept override {
    return inner_.max_rung();
  }

  [[nodiscard]] const LayerTotals& totals() const { return totals_; }
  [[nodiscard]] const std::vector<BatchSpan>& batches() const {
    return batches_;
  }
  [[nodiscard]] bool ladder() const { return ladder_ != nullptr; }

 private:
  runtime::Servable& inner_;
  runtime::AdaptivePipeline* ladder_;
  LayerTotals totals_;
  std::vector<BatchSpan> batches_;
};

// ------------------------------------------------------------ the phases

/// One answered frame as the load generator saw it.
struct Served {
  runtime::Prediction pred;
  double e2e_ms = 0.0;  ///< submit -> result, as the serving system timed it
};

/// Adapters giving the Server and the fleet one submit/resolve shape.
struct ServerTarget {
  runtime::Server& server;
  const Inputs& in;
  std::future<runtime::Prediction> submit(int frame) {
    return server.submit(in.frame(frame));
  }
  static Served resolve(std::future<runtime::Prediction>& f) {
    const runtime::Prediction p = f.get();
    return {p, p.e2e_ms()};
  }
};

struct FleetTarget {
  fleet::FleetCoordinator& coordinator;
  const Inputs& in;
  std::future<fleet::FleetResult> submit(int frame) {
    const auto f = static_cast<std::size_t>(frame);
    return coordinator.submit(in.session[f], in.tenant[f], in.frame(frame));
  }
  static Served resolve(std::future<fleet::FleetResult>& f) {
    const fleet::FleetResult r = f.get();
    if (r.deadline_dropped) throw std::runtime_error("deadline-dropped");
    return {r.prediction, r.e2e_ms};
  }
};

/// Per-frame span of a traced open-loop pass: due -> submit -> result, in
/// ms since the pass began; the id is the frame's place in the schedule.
struct RequestSpan {
  std::uint64_t id;
  double due_ms;
  double submit_ms;
  double result_ms;
};

struct OpenLoop {
  long attempted = 0;
  long failed = 0;                 ///< rejected, dropped, or errored
  std::vector<double> latency_ms;  ///< due -> result
  std::vector<double> lag_ms;      ///< due -> submit: generator lateness
  std::vector<double> queue_wait_ms;
  std::vector<double> compute_ms;
  Answers answers;
  std::vector<RequestSpan> spans;  ///< traced pass only
  double energy_j = 0.0;
  double cpu_s = 0.0;  ///< this process; the fleet adds its shards'
  long ctx_switches = 0;
  double steal_pct = 0.0;
  Clock::time_point epoch;  ///< the schedule's time zero

  [[nodiscard]] double served() const {
    return static_cast<double>(std::max<std::size_t>(1, latency_ms.size()));
  }
  [[nodiscard]] double cpu_ms_per_frame() const {
    return 1e3 * cpu_s / served();
  }
};

/// Replay the schedule open loop: each frame is submitted at its due time
/// whatever the system is doing and timed from that due time, so a stall is
/// charged to every frame it delays.
template <typename Target>
OpenLoop run_open_loop(Target target, const Inputs& in, bool record_spans) {
  using Future = decltype(target.submit(0));
  OpenLoop out;
  const std::size_t n = in.due_s.size();
  std::vector<std::pair<std::size_t, Future>> pending;
  pending.reserve(n);
  std::vector<double> submit_ms(n, 0.0);

  const Usage u0 = usage_now();
  const HostTicks h0 = host_ticks();
  out.epoch = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        out.epoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(in.due_s[i])));
    submit_ms[i] = runtime::ms_between(out.epoch, Clock::now());
    ++out.attempted;
    try {
      pending.emplace_back(i, target.submit(in.frame_of[i]));
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  for (auto& [i, future] : pending) {
    try {
      const Served s = Target::resolve(future);
      const double due_ms = 1e3 * in.due_s[i];
      const double result_ms = submit_ms[i] + s.e2e_ms;
      out.latency_ms.push_back(result_ms - due_ms);
      out.lag_ms.push_back(submit_ms[i] - due_ms);
      out.queue_wait_ms.push_back(s.pred.queue_wait_ms);
      out.compute_ms.push_back(s.pred.compute_ms);
      out.energy_j += s.pred.energy_j;
      out.answers.emplace_back(in.frame_of[i], s.pred);
      if (record_spans) {
        out.spans.push_back(
            {static_cast<std::uint64_t>(i), due_ms, submit_ms[i], result_ms});
      }
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  const Usage u1 = usage_now();
  const HostTicks h1 = host_ticks();
  out.cpu_s = u1.cpu_s - u0.cpu_s;
  out.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  out.steal_pct = h1.total > h0.total
                      ? 100.0 * (h1.steal - h0.steal) / (h1.total - h0.total)
                      : 0.0;
  return out;
}

struct Saturation {
  long attempted = 0;
  long failed = 0;
  double fps = 0.0;
  Answers answers;
};

/// Closed loop at the admission bound: keep kWindow frames outstanding,
/// cycling through the inputs, and count completions per second.
template <typename Target>
Saturation run_saturation(Target target, const Inputs& in, double seconds) {
  using Future = decltype(target.submit(0));
  Saturation out;
  std::vector<std::pair<int, Future>> window(kWindow);  // ring of slots
  int next = 0;
  const auto submit_into = [&](std::pair<int, Future>& slot) {
    ++out.attempted;
    slot.first = next;
    try {
      slot.second = target.submit(next);
    } catch (const std::exception&) {
      ++out.failed;
      slot.second = Future{};
    }
    next = (next + 1) % in.frames();
  };
  const auto resolve = [&](std::pair<int, Future>& slot) {
    if (!slot.second.valid()) return false;
    try {
      out.answers.emplace_back(slot.first, Target::resolve(slot.second).pred);
      return true;
    } catch (const std::exception&) {
      ++out.failed;
      return false;
    }
  };

  const Clock::time_point start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (auto& slot : window) submit_into(slot);
  long completed = 0;
  Clock::time_point last = start;
  for (std::size_t head = 0; Clock::now() < end; head = (head + 1) % kWindow) {
    if (resolve(window[head])) {
      ++completed;
      last = Clock::now();
    }
    submit_into(window[head]);
  }
  out.fps = static_cast<double>(completed) /
            std::max(1e-9, 1e-3 * runtime::ms_between(start, last));
  // What is still outstanding is served and refereed, not counted.
  for (auto& slot : window) resolve(slot);
  return out;
}

// --------------------------------------------------------------- referee

/// Direct Servable::classify of every frame, from the bundle file the
/// serving side started from. With `timed`, the batches are timed through a
/// TimedServable and its totals stored there.
std::vector<runtime::Prediction> referee(const std::string& bundle_path,
                                         const Inputs& in, unsigned threads,
                                         int batch, LayerTotals* timed) {
  hybrid::ModelBundle bundle = hybrid::load_bundle(bundle_path);
  runtime::RuntimeConfig rc;
  rc.threads = threads;
  std::unique_ptr<runtime::Servable> backend =
      hybrid::instantiate_servable(bundle, rc);
  std::optional<TimedServable> wrapper;
  if (timed != nullptr) wrapper.emplace(*backend);
  runtime::Servable& target =
      wrapper ? static_cast<runtime::Servable&>(*wrapper) : *backend;
  std::vector<runtime::Prediction> ref(static_cast<std::size_t>(in.frames()));
  for (int f = 0; f < in.frames(); f += batch) {
    target.classify(in.frame(f), std::min(batch, in.frames() - f),
                    ref.data() + f);
  }
  if (wrapper) *timed = wrapper->totals();
  return ref;
}

// ------------------------------------------------------------------ runs

/// What one run measured, by metric name, plus its correctness counts.
struct Run {
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;
  long attempted = 0;
  long failed = 0;
  long mismatched = 0;
  Answers answers;  ///< every served frame, for the referee

  void set(const std::string& name, double value, std::string note = "") {
    values[name] = value;
    if (!note.empty()) notes[name] = std::move(note);
  }
  template <typename Phase>
  void count(const Phase& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
    answers.insert(answers.end(), phase.answers.begin(), phase.answers.end());
  }
  void referee_against(const std::vector<runtime::Prediction>& ref) {
    for (const auto& [frame, pred] : answers) {
      if (!same_arithmetic(pred, ref[static_cast<std::size_t>(frame)])) {
        ++mismatched;
      }
    }
  }
};

/// End-to-end metrics and noise diagnostics of an untraced run.
void set_end_to_end(Run& run, std::vector<double> setup_s, const OpenLoop& ol,
                    double sustained_fps, double peak_rss_bytes) {
  const std::string samples =
      std::to_string(ol.latency_ms.size()) + " samples";
  run.set("setup_s", pct(setup_s, 50.0),
          "median of " + std::to_string(setup_s.size()));
  run.set("p50_ms", pct(ol.latency_ms, 50.0), samples);
  run.set("p99_ms", pct(ol.latency_ms, 99.0), samples);
  run.set("sustained_fps", sustained_fps,
          std::to_string(kWindow) + " outstanding");
  run.set("cpu_ms_per_frame", ol.cpu_ms_per_frame(), "open-loop phase");
  run.set("energy_nj_per_frame", 1e9 * ol.energy_j / ol.served(),
          "65 nm model");
  run.set("peak_rss_mb", peak_rss_bytes / 1048576.0);
  run.set("host.steal_pct", ol.steal_pct, "open-loop phase");
  run.set("sensor.gen_lag_p99_ms", pct(ol.lag_ms, 99.0), "open-loop phase");
}

/// Compute layers seen through a TimedServable.
void set_compute_layers(Run& run, const LayerTotals& t, bool ladder) {
  const double frames = std::max<long>(1, t.frames);
  const double batches = std::max<long>(1, t.batches);
  const double classify = 1e3 * t.wall_ms / frames;
  const double first = 1e3 * t.first_layer_ms / frames;
  const double tail = 1e3 * t.tail_ms / frames;
  run.set("hybrid.first_layer_us_per_frame", first);
  run.set("nn.tail_us_per_frame", tail);
  run.set("runtime.classify_us_per_frame", classify);
  run.set("runtime.glue_us_per_frame", classify - first - tail,
          "classify - first layer - tail");
  run.set("runtime.executor.chunks_per_batch", t.chunks / batches);
  run.set("runtime.executor.steals_per_batch", t.steals / batches);
  run.set("runtime.executor.parks_per_batch", t.parks / batches);
  if (!ladder) return;
  const double in0 = std::max<long>(1, t.rung_in[0]);
  const double in1 = std::max<long>(1, t.rung_in[1]);
  run.set("runtime.pipeline.escalated_pct", 100.0 * t.rung_in[1] / in0);
  run.set("runtime.pipeline.rung0_us_per_frame", 1e3 * t.rung_ms[0] / in0);
  run.set("runtime.pipeline.rung1_us_per_frame", 1e3 * t.rung_ms[1] / in1);
}

/// Validity checks of a traced run against its untraced pass.
void set_noise_layers(Run& run, const OpenLoop& plain, const OpenLoop& traced) {
  run.set("sensor.gen_lag_p99_ms", pct(traced.lag_ms, 99.0));
  run.set("host.steal_pct", traced.steal_pct);
  run.set("harness.trace_overhead_pct",
          100.0 * (traced.cpu_ms_per_frame() / plain.cpu_ms_per_frame() - 1.0),
          "cpu_ms_per_frame, traced vs untraced pass");
}

std::string trace_path(const Args& args, const Workload& w) {
  return args.workdir + "/trace-" + w.name + "-seed" +
         std::to_string(args.seed) + ".json";
}

/// Chrome trace_event JSON on the pass's clock: per frame a due->submit and
/// a submit->result span sharing the frame's id, and per backend batch a
/// classify span.
void write_trace(const std::string& path, const OpenLoop& pass,
                 const std::vector<BatchSpan>& batches) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const char* sep = "";
  const auto event = [&](const char* name, int tid, double start_ms,
                         double end_ms, const char* key, long long value) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"%s\":%lld}}",
                 sep, name, tid, 1e3 * start_ms, 1e3 * (end_ms - start_ms),
                 key, value);
    sep = ",\n";
  };
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (const RequestSpan& s : pass.spans) {
    const auto id = static_cast<long long>(s.id);
    event("due->submit", 1, s.due_ms, s.submit_ms, "id", id);
    event("submit->result", 2, s.submit_ms, s.result_ms, "id", id);
  }
  for (const BatchSpan& b : batches) {
    const double start_ms = runtime::ms_between(pass.epoch, b.start);
    event("classify", 3, start_ms, start_ms + b.wall_ms, "frames", b.frames);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

std::string bundle_file(const Args& args, const Workload& w) {
  hybrid::ModelBundle bundle = bench::make_frozen_bundle(w.backend, w.ladder);
  bundle.confidence_margin = w.confidence_margin;
  const std::string path = args.workdir + "/" + w.name + ".bundle";
  hybrid::save_bundle(bundle, path);
  return path;
}

Run run_server_workload(const Args& args, const Workload& w) {
  const Sizes sz = sizes_for(args);
  Clock::time_point stage = Clock::now();
  const std::string path = bundle_file(args, w);
  const Inputs in = server_inputs(w, args.seed, sz.open_s, sz.pool);
  const std::vector<float> probe = probe_frame();
  log_stage("inputs", stage);
  Run run;

  // Set-up: bundle file -> servable -> Server -> first frame answered. The
  // last servable stays up and serves the phases below.
  std::vector<double> setup_s;
  std::unique_ptr<runtime::Servable> backend;
  for (int k = 0; k < sz.setups; ++k) {
    backend.reset();
    const Clock::time_point t0 = Clock::now();
    hybrid::ModelBundle bundle = hybrid::load_bundle(path);
    runtime::RuntimeConfig rc;
    rc.threads = kWorkers;
    backend = hybrid::instantiate_servable(bundle, rc);
    runtime::Server server(*backend, server_config());
    server.submit(probe.data()).get();
    setup_s.push_back(1e-3 * runtime::ms_between(t0, Clock::now()));
  }
  log_stage("setup", stage);

  auto server = std::make_unique<runtime::Server>(*backend, server_config());
  OpenLoop ol = run_open_loop(ServerTarget{*server, in}, in, false);
  run.count(ol);
  log_stage("open-loop", stage);

  if (!args.trace) {
    Saturation sat = run_saturation(ServerTarget{*server, in}, in, sz.sat_s);
    run.count(sat);
    log_stage("saturation", stage);
    set_end_to_end(run, setup_s, ol, sat.fps,
                   static_cast<double>(bench::peak_rss_bytes()));
  } else {
    // The same schedule again, through a Server over the timing wrapper.
    server.reset();
    TimedServable timed(*backend);
    server = std::make_unique<runtime::Server>(timed, server_config());
    const runtime::ServerStats s0 = server->stats();
    OpenLoop tol = run_open_loop(ServerTarget{*server, in}, in, true);
    const runtime::ServerStats s1 = server->stats();
    server.reset();
    run.count(tol);
    log_stage("traced", stage);

    set_compute_layers(run, timed.totals(), timed.ladder());
    const double batches = std::max<long>(1, s1.batches - s0.batches);
    run.set("runtime.server.queue_wait_p50_ms", pct(tol.queue_wait_ms, 50.0));
    run.set("runtime.server.queue_wait_p99_ms", pct(tol.queue_wait_ms, 99.0));
    run.set("runtime.server.batch_mean",
            (s1.completed + s1.failed - s0.completed - s0.failed) / batches);
    run.set("runtime.server.singleton_batch_pct",
            100.0 * (s1.batch_histogram.at(1) - s0.batch_histogram.at(1)) /
                batches);
    set_noise_layers(run, ol, tol);
    write_trace(trace_path(args, w), tol, timed.batches());
  }
  server.reset();
  backend.reset();

  run.referee_against(referee(path, in, 0, kRefereeBatch, nullptr));
  log_stage("referee", stage);
  return run;
}

/// Fork a fleet and wait until every shard is up and has answered a frame.
std::unique_ptr<fleet::FleetCoordinator> start_fleet(const std::string& path,
                                                     const float* probe) {
  // A shard's resident set starts with every page this process holds at
  // fork; hand freed heap back first so the shards' peak RSS is the model's
  // and not the allocator's history.
  malloc_trim(0);
  auto fleet = std::make_unique<fleet::FleetCoordinator>(fleet_config(path));
  std::uint64_t key = 1ull << 62;  // far from the sessions' sensor ids
  std::vector<std::uint64_t> keys;
  std::vector<std::future<fleet::FleetResult>> answered;
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(kShards); ++s) {
    while (fleet->shard_of(++key) != s) fleet->end_session(key);
    keys.push_back(key);
    answered.push_back(fleet->submit(key, 0, probe));
  }
  for (auto& f : answered) f.get();
  for (const std::uint64_t k : keys) fleet->end_session(k);
  return fleet;
}

/// Sums over the shards of a fleet's published status words.
struct ShardTotals {
  double cpu_s = 0.0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t peak_rss = 0;  ///< largest shard

  explicit ShardTotals(const fleet::FleetStats& stats) {
    for (const fleet::ShardReport& s : stats.shards) {
      cpu_s += s.cpu_utime_s + s.cpu_stime_s;
      ctx_switches += s.vol_ctx_switches + s.invol_ctx_switches;
      served += s.served;
      batches += s.batches;
      peak_rss = std::max(peak_rss, s.peak_rss_bytes);
    }
  }
};

/// One open-loop pass on a started fleet, which is then shut down so every
/// shard publishes its final counters. ol.cpu_s covers this process only.
struct FleetPass {
  OpenLoop ol;
  fleet::FleetStats before;
  fleet::FleetStats after;

  [[nodiscard]] double shard_cpu_s() const {
    return ShardTotals(after).cpu_s - ShardTotals(before).cpu_s;
  }
};

FleetPass fleet_pass(std::unique_ptr<fleet::FleetCoordinator> fleet,
                     const Inputs& in, bool record_spans) {
  FleetPass p;
  p.before = fleet->stats();
  p.ol = run_open_loop(FleetTarget{*fleet, in}, in, record_spans);
  const Usage u0 = usage_now();
  fleet->shutdown();
  const Usage u1 = usage_now();
  p.ol.cpu_s += u1.cpu_s - u0.cpu_s;
  p.ol.ctx_switches += u1.ctx_switches - u0.ctx_switches;
  p.after = fleet->stats();
  return p;
}

Run run_fleet_workload(const Args& args, const Workload& w) {
  const Sizes sz = sizes_for(args);
  Clock::time_point stage = Clock::now();
  const std::string path = bundle_file(args, w);
  const std::vector<float> probe = probe_frame();
  Run run;

  // Set-up: fork -> every shard ready and answered. The fleets fork before
  // the inputs exist, so a shard's resident memory holds the model and not
  // the harness's frames.
  std::vector<double> setup_s;
  std::unique_ptr<fleet::FleetCoordinator> fleet;
  for (int k = 0; k < sz.setups; ++k) {
    fleet.reset();
    const Clock::time_point t0 = Clock::now();
    fleet = start_fleet(path, probe.data());
    setup_s.push_back(1e-3 * runtime::ms_between(t0, Clock::now()));
  }
  log_stage("setup", stage);
  const Inputs in = fleet_inputs(w, args.seed, sz.open_s, sz.sessions);
  log_stage("inputs", stage);

  Saturation sat;
  double peak_rss = 0.0;
  if (!args.trace) {
    // Saturation runs first, on the last set-up fleet: its shards serve full
    // batches, so their peak RSS (the model, its batch buffers and the
    // rings) does not depend on how large the open-loop batches happened to
    // get.
    sat = run_saturation(FleetTarget{*fleet, in}, in, sz.sat_s);
    fleet->shutdown();
    peak_rss = static_cast<double>(ShardTotals(fleet->stats()).peak_rss);
    fleet.reset();
    fleet = start_fleet(path, probe.data());
    run.count(sat);
    log_stage("saturation", stage);
  }

  FleetPass plain = fleet_pass(std::move(fleet), in, false);
  plain.ol.cpu_s += plain.shard_cpu_s();
  run.count(plain.ol);
  log_stage("open-loop", stage);

  if (!args.trace) {
    set_end_to_end(run, setup_s, plain.ol, sat.fps, peak_rss);
    run.referee_against(referee(path, in, 0, kRefereeBatch, nullptr));
    log_stage("referee", stage);
    return run;
  }

  FleetPass traced = fleet_pass(start_fleet(path, probe.data()), in, true);
  const double coord_cpu_s = traced.ol.cpu_s;
  traced.ol.cpu_s += traced.shard_cpu_s();
  const OpenLoop& tol = traced.ol;
  run.count(traced.ol);
  log_stage("traced", stage);

  // The shards' backends live in other processes, so the compute layers are
  // timed on the referee pass instead: one worker, like a shard, in batches
  // of the shards' mean batch size.
  const ShardTotals s0(traced.before);
  const ShardTotals s1(traced.after);
  const double batch_mean = static_cast<double>(s1.served - s0.served) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, s1.batches - s0.batches));
  LayerTotals compute;
  run.referee_against(referee(path, in, 1,
                              std::max(1, static_cast<int>(
                                              std::lround(batch_mean))),
                              &compute));
  log_stage("referee", stage);
  set_compute_layers(run, compute, false);

  std::vector<double> transit;
  for (std::size_t i = 0; i < tol.latency_ms.size(); ++i) {
    transit.push_back(tol.latency_ms[i] - tol.lag_ms[i] - tol.compute_ms[i]);
  }
  run.set("fleet.transit_p50_ms", pct(transit, 50.0),
          "result - submit - shard compute");
  run.set("fleet.transit_p99_ms", pct(transit, 99.0));
  run.set("fleet.shard_compute_p50_ms", pct(tol.compute_ms, 50.0));
  run.set("fleet.batch_mean", batch_mean);
  run.set("fleet.shard_cpu_ms_per_frame",
          1e3 * traced.shard_cpu_s() / tol.served());
  run.set("fleet.coord_cpu_ms_per_frame", 1e3 * coord_cpu_s / tol.served());
  run.set("fleet.ctx_switches_per_frame",
          static_cast<double>(s1.ctx_switches - s0.ctx_switches +
                              static_cast<std::uint64_t>(tol.ctx_switches)) /
              tol.served());
  run.set("fleet.ring_full_pct",
          100.0 *
              static_cast<double>(traced.after.rejected_backpressure -
                                  traced.before.rejected_backpressure) /
              static_cast<double>(std::max<long>(1, tol.attempted)));
  run.set("fleet.duplicates",
          static_cast<double>(traced.after.duplicates -
                              traced.before.duplicates));
  set_noise_layers(run, plain.ol, tol);
  write_trace(trace_path(args, w), tol, {});
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const Workload* workload = nullptr;
  try {
    args = parse_args(argc, argv);
    for (const Workload& w : workloads()) {
      if (args.workload == w.name) workload = &w;
    }
    if (workload == nullptr) {
      throw std::invalid_argument("unknown --workload '" + args.workload +
                                  "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  Run run;
  try {
    run = workload->kind == Kind::kServer
              ? run_server_workload(args, *workload)
              : run_fleet_workload(args, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name,
                 e.what());
    return 3;
  }
  const long failed = run.failed + run.mismatched;
  if (!args.trace) {
    run.set("failed_pct",
            100.0 * static_cast<double>(failed) /
                static_cast<double>(std::max<long>(1, run.attempted)),
            std::to_string(failed) + " of " + std::to_string(run.attempted) +
                " frames, " + std::to_string(run.mismatched) + " mismatched");
  } else {
    run.notes["harness.trace_overhead_pct"] +=
        "; spans in " + trace_path(args, *workload);
  }

  std::printf("%s seed=%llu seconds=%g trace=%d%s\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::string json = "{\"correct\": ";
  json += run.mismatched == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kPerLayer) : kEndToEnd;
  const char* sep = "";
  for (const MetricDef& m : defs) {
    const auto value = run.values.find(m.name);
    const double v = value == run.values.end() ? 0.0 : value->second;
    const auto note = run.notes.find(m.name);
    std::printf("  %-36s %14.6f %-6s %s\n", m.name, v, m.unit,
                value == run.values.end() ? "not on this workload's path"
                : note == run.notes.end() ? ""
                                          : note->second.c_str());
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", v);
    json += sep + std::string("\"") + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
    sep = ", ";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  if (run.mismatched != 0) {
    std::fprintf(stderr, "perfbench: %ld predictions differ from the referee\n",
                 run.mismatched);
    return 1;
  }
  return 0;
}
