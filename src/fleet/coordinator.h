// The fleet front end: N forked router shards behind one submit() call.
//
// A FleetCoordinator owns the serving fleet's control plane:
//
//   placement  — sessions ride a bounded-load consistent-hash ring keyed
//                by sensor id, so a shard joining or leaving remaps only
//                the minimal slice of sessions;
//   admission  — per-tenant in-flight quotas and ring backpressure reject
//                at submit() (typed exceptions, never blocking the
//                producer), and the SLO class decides what overload does
//                to the frames that are admitted: hard-deadline traffic is
//                dropped when stale, degrade-tolerant traffic gets a
//                reduced rung cap stamped into its header once the target
//                shard's ring backs up;
//   transport  — one pair of lock-free SPSC shared-memory rings per shard
//                (shm_ring.h), created before fork() and inherited, plus
//                one fleet-wide response doorbell the collector parks on;
//   liveness   — a supervisor thread watches waitpid + heartbeat words,
//                respawns killed shards onto the same rings (the
//                unacknowledged ring tail replays — at-least-once,
//                deduped by sequence), and timestamps recovery.
//
// Every submit returns a std::future<FleetResult> resolved by the
// collector thread that drains the response rings. Prediction arithmetic
// is bit-identical to a single in-process Servable over the same frames —
// the fleet moves bytes, never math.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/consistent_hash.h"
#include "fleet/shard.h"
#include "fleet/shm_ring.h"
#include "fleet/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/percentile.h"
#include "runtime/servable.h"

namespace scbnn::fleet {

/// Admission rejected a frame (quota or ring backpressure) — the fleet
/// counterpart of runtime::QueueFullError, carrying which limit fired.
class FleetRejectError : public std::runtime_error {
 public:
  enum class Reason { kTenantQuota, kRingFull, kShutdown };
  FleetRejectError(Reason reason, std::string what)
      : std::runtime_error(std::move(what)), reason_(reason) {}
  [[nodiscard]] Reason reason() const noexcept { return reason_; }

 private:
  Reason reason_;
};

/// One completed request.
struct FleetResult {
  runtime::Prediction prediction;  ///< arithmetic fields bit-identical to
                                   ///< a direct in-process classify
  std::uint32_t shard = 0;
  bool deadline_dropped = false;  ///< hard-deadline frame arrived stale
  double e2e_ms = 0.0;            ///< submit -> future resolution
};

struct FleetConfig {
  int shards = 2;
  std::string bundle_path;  ///< ModelBundle every shard cold-starts from
  /// Request-ring slots per shard (power of two). The response ring gets
  /// twice as many so a replayed batch can never wedge a shard.
  std::size_t ring_capacity = 1024;
  int shard_max_batch = 32;
  unsigned shard_threads = 1;

  /// Per-tenant in-flight ceilings; tenants absent from the map are
  /// unlimited.
  std::unordered_map<std::uint32_t, std::uint64_t> tenant_quota;
  /// Request-ring depth beyond which degrade-tolerant admissions carry
  /// `degraded_rung_cap` instead of kUncappedRung.
  std::size_t degrade_watermark = 64;
  int degraded_rung_cap = 0;

  bool respawn = true;  ///< revive kill -9'd shards
  /// Stale-heartbeat watchdog: a shard whose heartbeat word stays flat
  /// longer than this while the process is alive is reported wedged (log
  /// line + FleetStats::wedged_events). 0 disables. waitpid only sees
  /// death; this catches alive-but-stuck.
  double wedged_threshold_ms = 1000.0;

  /// shards >= 1, power-of-two ring_capacity >= 2, max_batch >= 1,
  /// non-empty bundle path. Throws std::invalid_argument naming the field.
  const FleetConfig& validate() const;
};

/// Per-shard snapshot assembled from the shm status words + supervisor
/// bookkeeping.
struct ShardReport {
  std::uint32_t shard = 0;
  std::int32_t pid = 0;
  bool alive = false;
  std::uint32_t epoch = 0;       ///< incarnations (>1 means respawned)
  std::uint64_t heartbeat = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped_deadline = 0;
  std::uint64_t batches = 0;
  double energy_j = 0.0;
  double compute_ms = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  double cpu_utime_s = 0.0;  ///< shard user CPU seconds (getrusage)
  double cpu_stime_s = 0.0;  ///< shard system CPU seconds
  std::uint64_t vol_ctx_switches = 0;
  std::uint64_t invol_ctx_switches = 0;
  std::size_t request_ring_depth = 0;
  std::size_t sessions = 0;  ///< sticky sessions currently placed here
};

struct FleetStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t duplicates = 0;  ///< replayed responses dropped by dedup
  std::uint64_t deadline_dropped = 0;
  std::uint64_t respawns = 0;
  /// Stale-heartbeat watchdog trips (alive-but-wedged transitions).
  std::uint64_t wedged_events = 0;
  /// One flight-recorder post-mortem per detected shard death: the dead
  /// incarnation's last spans, recovered from its shm trace rings.
  std::vector<std::string> postmortems;
  /// Detect-death -> shard ready again (bundle reloaded), one entry per
  /// respawn.
  std::vector<double> recovery_ready_ms;
  std::vector<ShardReport> shards;
  /// Per-tenant end-to-end latency histograms, merged across shards
  /// (mergeable log-bucket histograms — per-shard p99s are never
  /// averaged).
  std::map<std::uint32_t, runtime::LatencyHistogram> tenant_latency;
  /// All tenants merged — the fleet-level latency distribution.
  runtime::LatencyHistogram fleet_latency;
  double energy_j = 0.0;  ///< summed over shards
};

class FleetCoordinator {
 public:
  /// Lays out the shared segments and forks the shard fleet; serving
  /// starts immediately. Throws on invalid config or when a shard cannot
  /// be spawned.
  explicit FleetCoordinator(FleetConfig config);
  /// Graceful: equivalent to shutdown().
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  /// Route one 28x28 frame for `session_key` (copied into the ring).
  /// `deadline_ms` (relative, only for kHardDeadline; 0 = none) is stamped
  /// into the header. Throws FleetRejectError on quota/backpressure and
  /// std::runtime_error after shutdown.
  [[nodiscard]] std::future<FleetResult> submit(
      std::uint64_t session_key, std::uint32_t tenant, const float* pixels,
      SloClass slo = SloClass::kDegradeTolerant, double deadline_ms = 0.0);

  /// Forget a session's sticky placement (frees its bounded-load slot).
  void end_session(std::uint64_t session_key);

  /// SIGKILL shard `shard` (fault injection for tests and the recovery
  /// bench). The supervisor notices and — when config.respawn — forks a
  /// replacement that replays the ring tail.
  void kill_shard(std::uint32_t shard);

  /// The shard a session would be (or is) placed on.
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t session_key);

  [[nodiscard]] int shards() const noexcept { return config_.shards; }
  [[nodiscard]] FleetStats stats() const;

  /// Merge the coordinator's span recorder with every shard's shm flight
  /// recorder into one Chrome/Perfetto trace_event JSON file — one
  /// timeline, one pid lane per process (steady_clock is shared across
  /// fork, so shard spans land on the coordinator's clock).
  bool dump_trace(const std::string& path) const;

  /// Register registry views over the fleet's live stats: admission and
  /// completion counters, per-shard shm status gauges (heartbeat, CPU,
  /// context switches, ring depth, RSS), and the merged end-to-end
  /// latency histogram. `this` must outlive exports from `registry`.
  void register_metrics(obs::MetricsRegistry& registry);

  /// Stop admissions, close the request rings, drain every shard, reap
  /// the children, resolve all outstanding futures (exceptionally for
  /// frames that never got served), and join the control threads.
  /// Idempotent.
  void shutdown();

 private:
  struct Pending {
    std::promise<FleetResult> promise;
    runtime::ServeClock::time_point submitted;
    std::uint64_t session_key = 0;
    std::uint32_t tenant = 0;
    std::uint32_t shard = 0;
  };

  struct ShardSlot {
    std::unique_ptr<ShmSegment> segment;
    ShardChannel channel;
    pid_t pid = -1;
    bool alive = false;
    /// Set when the supervisor notices a death; recovery_ready_ms is
    /// measured from it.
    runtime::ServeClock::time_point death_detected;
    bool awaiting_ready = false;
  };

  void spawn_shard(std::uint32_t shard);
  void collector_loop();
  void supervisor_loop();
  void complete_response(std::uint32_t shard, const ResponseSlot& slot);
  /// Records `slot`'s recovery time once its respawned incarnation has
  /// raised its ready flag. Caller holds mutex_.
  void note_recovery(ShardSlot& slot);

  FleetConfig config_;
  /// The collector's doorbell, in its own shared page mapped before any
  /// fork so every shard incarnation can ring it.
  ShmSegment bell_segment_{sizeof(Doorbell)};
  Doorbell* response_bell_ = new (bell_segment_.data()) Doorbell();
  std::vector<ShardSlot> shards_;

  mutable std::mutex mutex_;  ///< placement, pending map, stats, quotas
  ConsistentHashRing placement_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_map<std::uint32_t, std::uint64_t> tenant_inflight_;
  FleetStats stats_;
  std::map<std::uint32_t, std::map<std::uint32_t, runtime::LatencyHistogram>>
      shard_tenant_latency_;  ///< shard -> tenant -> histogram

  std::atomic<std::uint64_t> next_sequence_{1};
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> accepting_{true};
  std::thread collector_;
  std::thread supervisor_;
  std::once_flag shutdown_once_;
};

}  // namespace scbnn::fleet
