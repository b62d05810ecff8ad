// One sensor stream, end to end: source -> session -> server -> ladder.
//
// A SensorSession owns the life of one stream. Its producer thread pulls
// frames from a FrameSource, honors the source's inter-arrival gaps
// (open-loop: arrival times are scheduled from the gaps, so queueing delay
// is measured, not hidden), stamps each frame's arrival, and submits it as
// a single request to a runtime::Server. Its collector thread resolves the
// returned futures in admission order and accumulates per-session
// StreamStats. What happens when the server's admission queue is full is
// the session's pluggable backpressure policy:
//
//   - kBlock: retry until admitted. No frame is lost, but the sensor
//     stalls and end-to-end latency grows without bound past saturation.
//   - kDropOldest: frames wait in a small session-side staging buffer;
//     when it overflows, the *oldest* staged frame is shed (a sensor wants
//     the freshest data). Latency stays bounded; frames are lost.
//   - kDegrade: like kBlock, but paired with a StreamSupervisor that caps
//     the backend's escalation rungs under overload — the system sheds
//     *precision* (energy per frame drops, accuracy degrades gracefully)
//     instead of shedding frames, and recovers when load subsides.
//
// The session is also the supervisor's LoadSignal: in-flight count and a
// recent-p99 sliding window feed the degrade control loop.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/percentile.h"
#include "runtime/server.h"
#include "sensor/frame_source.h"
#include "sensor/stream_supervisor.h"

namespace scbnn::sensor {

enum class BackpressurePolicy { kBlock, kDropOldest, kDegrade };

struct SessionConfig {
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// kDropOldest: staged frames allowed to wait for admission before the
  /// oldest is shed.
  std::size_t max_pending = 32;
  /// kBlock / kDegrade: sleep between admission retries on a full queue.
  long retry_us = 200;
  /// Sliding-window size for recent_p99_ms() — the supervisor's latency
  /// signal reacts within this many completions.
  int recent_window = 64;
  /// Samples older than this fall out of the recent window even with no
  /// new completions, so a quiescent stream reads 0 and a stale burst
  /// cannot wedge the supervisor's latency trigger.
  long recent_max_age_ms = 1000;

  /// max_pending >= 1, retry_us >= 1, recent_window >= 1,
  /// recent_max_age_ms >= 1. Throws std::invalid_argument naming the
  /// offending field.
  const SessionConfig& validate() const;
};

/// Per-session serving statistics.
struct StreamStats {
  long produced = 0;    ///< frames pulled from the source
  long submitted = 0;   ///< frames admitted to the server
  long delivered = 0;   ///< frames whose Prediction resolved
  long failed = 0;      ///< frames whose future resolved with an exception
  long dropped = 0;     ///< frames shed by kDropOldest backpressure
  long degraded = 0;    ///< frames *served* under a lowered rung cap
  long labeled = 0;     ///< delivered frames with known ground truth
  long correct = 0;     ///< labeled frames predicted correctly
  double energy_j = 0.0;            ///< summed per-frame first-layer energy
  runtime::LatencyHistogram e2e_ms; ///< arrival -> prediction resolved
  /// Deepest escalation cap any delivered frame was served under
  /// (Prediction::rung_cap), i.e. the full ladder top when never degraded.
  int min_rung_cap_seen = 0;

  [[nodiscard]] double accuracy() const noexcept {
    return labeled > 0 ? static_cast<double>(correct) / labeled : 0.0;
  }
  [[nodiscard]] double energy_nj_per_frame() const noexcept {
    return delivered > 0 ? energy_j * 1e9 / delivered : 0.0;
  }
};

/// One delivered frame's outcome — what the session tests compare, frame
/// by frame, against a direct Servable::classify of the same stream.
struct SessionOutcome {
  long sequence = -1;
  int predicted = -1;
  int truth = -1;
  int rung = 0;
  unsigned bits_used = 0;
  bool degraded = false;
  double e2e_ms = 0.0;
};

class SensorSession : public LoadSignal {
 public:
  /// Stream `source` into `server`. The source and server must outlive
  /// the session; the backend's full ladder is sampled at construction
  /// (construct before any supervisor lowers the cap).
  SensorSession(FrameSource& source, runtime::Server& server,
                SessionConfig config = {});

  /// Joins the worker threads (blocking until the stream completes) if
  /// finish() was not called.
  ~SensorSession() override;

  SensorSession(const SensorSession&) = delete;
  SensorSession& operator=(const SensorSession&) = delete;

  /// Launch the producer and collector threads. Call once.
  void start();

  /// Block until the source is exhausted, every staged frame was admitted
  /// (or shed, per policy), and every future resolved; then return the
  /// final stats. Call once, after start().
  StreamStats finish();

  /// Live snapshot (callable from any thread while streaming).
  [[nodiscard]] StreamStats stats() const;

  /// Per-frame outcomes in delivery order. Stable only after finish().
  [[nodiscard]] const std::vector<SessionOutcome>& outcomes() const {
    return outcomes_;
  }

  [[nodiscard]] const SessionConfig& config() const noexcept {
    return config_;
  }

  /// Compute-executor counters behind this session's server (fleet-wide
  /// totals when servers share one executor) — lets a stream supervisor
  /// see steals/parks next to its latency signal.
  [[nodiscard]] runtime::ExecutorStats executor_stats() const {
    return server_.executor_stats();
  }

  /// Register registry views over this session's live StreamStats (frame
  /// flow, drops, degradation, accuracy, e2e latency histogram, recent
  /// p99), labeled session=`label`, model=<the server's backend name>. The
  /// session must outlive exports from `registry`.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& label);

  // ------------------------------------------------------------ LoadSignal
  [[nodiscard]] long inflight() const override;
  [[nodiscard]] double recent_p99_ms() const override;

 private:
  /// A frame waiting for admission, with its scheduled arrival stamp.
  struct Staged {
    Frame frame;
    runtime::ServeClock::time_point arrival;
  };
  /// An admitted frame awaiting its Prediction.
  struct InFlight {
    std::future<runtime::Prediction> future;
    runtime::ServeClock::time_point arrival;
    long sequence = 0;
    int truth = -1;
  };

  void produce();
  void collect();
  /// Admit staged frames until empty or the queue is full (policy applied).
  void pump(std::deque<Staged>& staging, bool draining);
  /// One admission attempt; false on QueueFullError.
  bool try_submit(Staged& staged);

  FrameSource& source_;
  runtime::Server& server_;
  SessionConfig config_;
  int full_rung_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<InFlight> inflight_queue_;
  bool producer_done_ = false;
  StreamStats stats_;
  /// Failures of frames that WERE admitted (future resolved with an
  /// exception) — the subtractable part of stats_.failed for inflight().
  long resolved_failed_ = 0;
  /// {completion time, e2e_ms}: bounded by recent_window entries AND
  /// recent_max_age_ms of age.
  std::deque<std::pair<runtime::ServeClock::time_point, double>> recent_e2e_;
  std::vector<SessionOutcome> outcomes_;

  // started_/started_at_ are guarded by mutex_.
  runtime::ServeClock::time_point started_at_{};
  bool started_ = false;
  std::thread producer_;
  std::thread collector_;
};

}  // namespace scbnn::sensor
