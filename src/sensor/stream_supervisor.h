// Overload-adaptive precision degradation for sensor streams.
//
// The headline property of the paper's hybrid design is that precision is a
// *dial*: the SC first layer can run at fewer bits for exponentially less
// energy at a graceful accuracy cost. The StreamSupervisor turns that dial
// under load: it watches per-session queue depth (in-flight frames) and
// recent p99 end-to-end latency, and when a stream is overloaded it lowers
// the serving backend's escalation-rung cap (Servable::set_max_rung) one
// step at a time — the system sheds *precision* instead of shedding frames.
// When load subsides and stays calm for `hold_ticks` consecutive control
// ticks, the cap is raised back one rung at a time until the full ladder is
// restored. Step-by-step moves plus the calm-hold give hysteresis, so a
// noisy load signal cannot make the cap flap.
//
// The control loop is exposed two ways: tick() evaluates one step
// synchronously (tests drive this with fake signals, deterministically),
// and start()/stop() run it on a background thread every tick_us.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/servable.h"

namespace scbnn::sensor {

/// What the supervisor watches: a stream's live overload signal. A
/// SensorSession implements this; tests substitute fakes.
class LoadSignal {
 public:
  virtual ~LoadSignal();

  /// Frames admitted to the serving layer but not yet resolved — the
  /// stream's queue-depth proxy.
  [[nodiscard]] virtual long inflight() const = 0;

  /// p99 end-to-end latency (ms) over a recent sliding window; 0 when the
  /// stream has no recent completions.
  [[nodiscard]] virtual double recent_p99_ms() const = 0;
};

struct SupervisorConfig {
  long high_inflight = 64;  ///< degrade when total in-flight exceeds this
  long low_inflight = 16;   ///< eligible to recover at or below this
  /// Optional latency trigger: degrade when recent p99 exceeds this (ms).
  /// 0 disables it and only the in-flight watermarks act.
  double high_p99_ms = 0.0;
  int hold_ticks = 3;   ///< consecutive calm ticks required per recovery step
  long tick_us = 2000;  ///< background control-loop period

  /// high_inflight > low_inflight >= 0, high_p99_ms >= 0, hold_ticks >= 1,
  /// tick_us >= 1. Throws std::invalid_argument naming the offending field.
  const SupervisorConfig& validate() const;
};

/// One cap change, for tests and bench reports.
struct SupervisorEvent {
  long tick = 0;       ///< control tick the change happened on
  int old_cap = 0;
  int new_cap = 0;
  long inflight = 0;   ///< aggregate in-flight that triggered it
  double p99_ms = 0.0; ///< aggregate recent p99 at that moment
};

class StreamSupervisor {
 public:
  /// Supervise `backend` (shared with the Server that serves it). The
  /// backend's current max_rung() is taken as the full ladder to restore
  /// to, so construct the supervisor before anything else caps the rungs.
  explicit StreamSupervisor(std::shared_ptr<runtime::Servable> backend,
                            SupervisorConfig config = {});

  /// Stops the control thread and restores the full ladder.
  ~StreamSupervisor();

  StreamSupervisor(const StreamSupervisor&) = delete;
  StreamSupervisor& operator=(const StreamSupervisor&) = delete;

  /// Add a stream to the aggregate load signal (in-flights sum, p99s max).
  /// The signal must outlive the supervisor's run.
  void watch(const LoadSignal* signal);

  /// Evaluate one control step now: read the signals, then lower the cap
  /// (overloaded), raise it (calm for hold_ticks), or hold. Thread-safe;
  /// the background loop calls exactly this.
  void tick();

  /// Run tick() every tick_us on a background thread. Idempotent.
  void start();

  /// Stop the background thread and restore the backend's full ladder
  /// (events and min_cap_seen are preserved). Idempotent; the destructor
  /// calls it.
  void stop();

  /// Current escalation cap the supervisor maintains.
  [[nodiscard]] int cap() const;
  /// The uncapped top rung recorded at construction.
  [[nodiscard]] int full_rung() const noexcept { return full_rung_; }
  /// Deepest degradation reached so far.
  [[nodiscard]] int min_cap_seen() const;
  [[nodiscard]] std::vector<SupervisorEvent> events() const;
  [[nodiscard]] const SupervisorConfig& config() const noexcept {
    return config_;
  }

 private:
  void loop();

  std::shared_ptr<runtime::Servable> backend_;
  SupervisorConfig config_;
  int full_rung_;

  mutable std::mutex mutex_;
  std::vector<const LoadSignal*> signals_;
  int cap_;
  int min_cap_seen_;
  int calm_ticks_ = 0;
  long ticks_ = 0;
  std::vector<SupervisorEvent> events_;

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace scbnn::sensor
