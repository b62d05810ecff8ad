#include "sensor/sensor_session.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace scbnn::sensor {

namespace {

using Clock = runtime::ServeClock;

}  // namespace

const SessionConfig& SessionConfig::validate() const {
  if (max_pending < 1) {
    throw std::invalid_argument("SessionConfig: max_pending must be >= 1");
  }
  if (retry_us < 1) {
    throw std::invalid_argument("SessionConfig: retry_us must be >= 1");
  }
  if (recent_window < 1) {
    throw std::invalid_argument("SessionConfig: recent_window must be >= 1");
  }
  if (recent_max_age_ms < 1) {
    throw std::invalid_argument(
        "SessionConfig: recent_max_age_ms must be >= 1");
  }
  return *this;
}

SensorSession::SensorSession(FrameSource& source, runtime::Server& server,
                             SessionConfig config)
    : source_(source),
      server_(server),
      config_(config.validate()),
      // Sampled before any supervisor lowers the cap: this is the ladder a
      // frame is "degraded" relative to.
      full_rung_(server.backend().max_rung()) {
  stats_.min_rung_cap_seen = full_rung_;
}

SensorSession::~SensorSession() {
  if (producer_.joinable()) producer_.join();
  if (collector_.joinable()) collector_.join();
}

void SensorSession::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) {
      throw std::logic_error("SensorSession: start() called twice");
    }
    started_ = true;
    started_at_ = Clock::now();
  }
  producer_ = std::thread([this] { produce(); });
  collector_ = std::thread([this] { collect(); });
}

bool SensorSession::try_submit(Staged& staged) {
  std::future<runtime::Prediction> future;
  try {
    future = server_.submit(staged.frame.pixels.data());
  } catch (const runtime::QueueFullError&) {
    return false;
  } catch (...) {
    // Server shut down mid-stream: the frame cannot be served; account it
    // and move on rather than killing the producer.
    // (Not counted in submitted, so inflight() must not subtract it —
    // resolved_failed_ tracks only failures of genuinely admitted frames.)
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failed;
    return true;  // staged entry is consumed
  }

  InFlight record;
  record.future = std::move(future);
  record.arrival = staged.arrival;
  record.sequence = staged.frame.sequence;
  record.truth = staged.frame.label;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    inflight_queue_.push_back(std::move(record));
  }
  cv_.notify_one();
  return true;
}

void SensorSession::pump(std::deque<Staged>& staging, bool draining) {
  while (!staging.empty()) {
    if (try_submit(staging.front())) {
      staging.pop_front();
      continue;
    }
    // Admission queue full: the policy decides who pays.
    if (config_.policy == BackpressurePolicy::kDropOldest && !draining) {
      if (staging.size() > config_.max_pending) {
        staging.pop_front();  // shed the stalest frame, keep the freshest
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.dropped;
      }
      return;  // wait for the next arrival instead of stalling the sensor
    }
    // kBlock / kDegrade (and end-of-stream draining for every policy):
    // apply backpressure — the sensor stalls until the server catches up.
    std::this_thread::sleep_for(std::chrono::microseconds(config_.retry_us));
  }
}

void SensorSession::produce() {
  std::deque<Staged> staging;
  auto next_arrival = started_at_;
  Frame frame;
  while (source_.next(frame)) {
    // Open-loop schedule: arrivals follow the source's gaps regardless of
    // how serving keeps up, so queueing delay lands in e2e latency instead
    // of silently stretching the stream. (Under kBlock past saturation the
    // producer itself lags the schedule — that lag is queueing delay too,
    // and stamping the *scheduled* arrival charges it honestly.)
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(frame.gap_s));
    std::this_thread::sleep_until(next_arrival);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.produced;
    }
    staging.push_back({std::move(frame), next_arrival});
    frame = Frame{};
    pump(staging, /*draining=*/false);
  }
  pump(staging, /*draining=*/true);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    producer_done_ = true;
  }
  cv_.notify_all();
}

void SensorSession::collect() {
  for (;;) {
    InFlight record;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return !inflight_queue_.empty() || producer_done_;
      });
      if (inflight_queue_.empty()) return;  // done and drained
      record = std::move(inflight_queue_.front());
      inflight_queue_.pop_front();
    }

    runtime::Prediction prediction;
    bool failed = false;
    try {
      prediction = record.future.get();
    } catch (...) {
      failed = true;
    }
    const auto done_at = Clock::now();
    const double e2e = runtime::ms_between(record.arrival, done_at);

    std::lock_guard<std::mutex> lock(mutex_);
    if (failed) {
      ++stats_.failed;
      ++resolved_failed_;
      continue;
    }
    ++stats_.delivered;
    stats_.energy_j += prediction.energy_j;
    // Degradation is attributed from the Prediction itself: rung_cap is
    // the ceiling the *serving batch* ran under, exact however the
    // supervisor moved the cap between submit and dispatch.
    const bool degraded = prediction.rung_cap < full_rung_;
    if (degraded) ++stats_.degraded;
    stats_.min_rung_cap_seen =
        std::min(stats_.min_rung_cap_seen, prediction.rung_cap);
    if (record.truth >= 0) {
      ++stats_.labeled;
      if (prediction.label == record.truth) ++stats_.correct;
    }
    stats_.e2e_ms.record(e2e);
    recent_e2e_.emplace_back(done_at, e2e);
    while (recent_e2e_.size() >
           static_cast<std::size_t>(config_.recent_window)) {
      recent_e2e_.pop_front();
    }
    SessionOutcome outcome;
    outcome.sequence = record.sequence;
    outcome.predicted = prediction.label;
    outcome.truth = record.truth;
    outcome.rung = prediction.rung;
    outcome.bits_used = prediction.bits_used;
    outcome.degraded = degraded;
    outcome.e2e_ms = e2e;
    outcomes_.push_back(outcome);
  }
}

StreamStats SensorSession::finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) {
      throw std::logic_error("SensorSession: finish() before start()");
    }
  }
  if (producer_.joinable()) producer_.join();
  if (collector_.joinable()) collector_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

StreamStats SensorSession::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SensorSession::register_metrics(obs::MetricsRegistry& registry,
                                     const std::string& label) {
  const obs::Labels labels{{"model", server_.backend().name()},
                           {"session", label}};
  auto counter = [&](const char* name, const char* help,
                     long StreamStats::* field) {
    registry.counter_fn(name, help, labels, [this, field] {
      return static_cast<std::uint64_t>(std::max(0L, stats().*field));
    });
  };
  counter("scbnn_session_produced_total", "Frames pulled from the source",
          &StreamStats::produced);
  counter("scbnn_session_submitted_total", "Frames admitted to the server",
          &StreamStats::submitted);
  counter("scbnn_session_delivered_total",
          "Frames whose Prediction resolved", &StreamStats::delivered);
  counter("scbnn_session_failed_total",
          "Frames whose future resolved with an exception",
          &StreamStats::failed);
  counter("scbnn_session_dropped_total",
          "Frames shed by drop-oldest backpressure", &StreamStats::dropped);
  counter("scbnn_session_degraded_total",
          "Frames served under a lowered rung cap", &StreamStats::degraded);

  registry.gauge_fn("scbnn_session_accuracy",
                    "Accuracy over labeled delivered frames", labels,
                    [this] { return stats().accuracy(); });
  registry.gauge_fn("scbnn_session_energy_joules",
                    "Summed per-frame first-layer energy", labels,
                    [this] { return stats().energy_j; });
  registry.gauge_fn("scbnn_session_inflight",
                    "Admitted frames awaiting their Prediction", labels,
                    [this] { return static_cast<double>(inflight()); });
  registry.gauge_fn("scbnn_session_recent_p99_ms",
                    "Sliding-window end-to-end p99 (the LoadSignal)",
                    labels, [this] { return recent_p99_ms(); });
  registry.histogram_fn("scbnn_session_e2e_latency_ms",
                        "Arrival to resolved Prediction latency", labels,
                        [this] { return stats().e2e_ms; });
}

long SensorSession::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Only admitted frames can be in flight: stats_.failed also counts
  // admission-path failures that never reached the server, so subtracting
  // it wholesale could drive the supervisor's load signal negative.
  return stats_.submitted - stats_.delivered - resolved_failed_;
}

double SensorSession::recent_p99_ms() const {
  // Age out stale samples at read time: a stream that went quiet must
  // read 0, or a past burst's tail latency would hold the supervisor's
  // latency trigger hot forever and block cap recovery.
  const auto oldest_allowed =
      Clock::now() - std::chrono::milliseconds(config_.recent_max_age_ms);
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    window.reserve(recent_e2e_.size());
    for (const auto& [done_at, e2e] : recent_e2e_) {
      if (done_at >= oldest_allowed) window.push_back(e2e);
    }
  }
  std::sort(window.begin(), window.end());
  return runtime::percentile(window, 99.0);
}

}  // namespace scbnn::sensor
