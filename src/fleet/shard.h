// One shard: a forked router process serving its slice of the session space.
//
// A shard is deliberately boring: it attaches to the rings the coordinator
// laid out before fork(), cold-starts its serving ladder from the
// ModelBundle artifact (milliseconds — PR 4's whole point), and then loops
// popping request batches, classifying them, and pushing responses. All
// the interesting policy (placement, quotas, respawn) lives in the
// coordinator; all the shard adds is the SLO enforcement that must happen
// next to the compute: stale hard-deadline requests are dropped without
// touching the model, and the batch's escalation ceiling is the minimum
// rung_cap its request headers carry (the PR 5 degrade machinery, now per
// shard).
//
// Crash contract: requests are released from the ring only after every
// response of the batch is pushed, so a shard killed -9 mid-batch leaves
// those requests in the ring for its successor to replay (at-least-once;
// the coordinator dedupes by sequence).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "fleet/shm_ring.h"
#include "fleet/wire.h"
#include "obs/trace.h"

namespace scbnn::fleet {

/// Per-shard status words in shared memory: single-writer (the shard),
/// read by the coordinator's supervisor. The heartbeat is the liveness
/// signal; the rest is stats plumbing.
struct alignas(64) ShardStatus {
  std::atomic<std::uint64_t> heartbeat{0};  ///< bumped every loop iteration
  std::atomic<std::uint32_t> epoch{0};      ///< incarnations (1 = original)
  std::atomic<std::uint32_t> ready{0};      ///< model loaded, serving
  std::atomic<std::int32_t> pid{0};
  /// Set by the coordinator; the shard drains its ring and exits.
  std::atomic<std::uint32_t> shutdown{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> dropped_deadline{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> energy_j_bits{0};     ///< double as bits
  std::atomic<std::uint64_t> compute_ms_bits{0};   ///< double as bits
  std::atomic<std::uint64_t> peak_rss_bytes{0};
  /// getrusage(RUSAGE_SELF) of the shard, refreshed with peak RSS:
  /// CPU split and scheduler pressure, per process.
  std::atomic<std::uint64_t> cpu_utime_us{0};
  std::atomic<std::uint64_t> cpu_stime_us{0};
  std::atomic<std::uint64_t> vol_ctx_switches{0};
  std::atomic<std::uint64_t> invol_ctx_switches{0};
};

/// Flight-recorder geometry: each shard's trace rings live in its shm
/// segment, so the supervisor can read the dead shard's last spans after a
/// kill -9 (the spans are plain atomic words — no heap, no locks).
inline constexpr unsigned kShardTraceRings = 4;
inline constexpr std::size_t kShardTraceSpans = 256;  ///< slots per ring

/// Addresses of one shard's channel, valid in every process that maps the
/// segment: [ShardStatus][flight recorder][request ring][response ring].
struct ShardChannel {
  ShardStatus* status = nullptr;
  obs::TraceRecorder trace;  ///< shard-side spans, readable post-mortem
  SpscRing<RequestSlot> requests;
  SpscRing<ResponseSlot> responses;
  /// The fleet-wide response doorbell (its own shared segment, mapped by
  /// the coordinator before fork): the shard rings it after each batch's
  /// responses, and the coordinator's collector parks on it.
  Doorbell* response_bell = nullptr;

  /// Bytes one channel occupies for the given ring capacities.
  [[nodiscard]] static std::size_t bytes_for(std::size_t request_slots,
                                             std::size_t response_slots);
  /// Map a channel at `memory`; `initialize` exactly once per segment.
  [[nodiscard]] static ShardChannel attach(void* memory,
                                           std::size_t request_slots,
                                           std::size_t response_slots,
                                           bool initialize);
};

/// What a shard needs to serve (plain values — inherited through fork).
struct ShardSpec {
  std::string bundle_path;   ///< ModelBundle artifact to cold-start from
  unsigned threads = 1;      ///< compute threads of the shard's executor
  int max_batch = 32;        ///< dense-batch ceiling per ring pop
};

/// Shard process body: attach, cold-start from the bundle, serve until the
/// request ring closes or status->shutdown is set, then close the response
/// ring and return (callers `_exit` right after — no global teardown in a
/// forked child). Returns 0 on a clean drain, nonzero on setup failure.
int shard_main(const ShardChannel& channel, const ShardSpec& spec);

/// Load+read helpers for the double-as-bits status words.
[[nodiscard]] double status_double(const std::atomic<std::uint64_t>& bits);

}  // namespace scbnn::fleet
