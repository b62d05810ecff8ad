// Fixed-size wire frames for the fleet's shared-memory transport.
//
// Coordinator and shard processes exchange work through SPSC rings of
// fixed-size slots (shm_ring.h); these are the slot types. Everything is
// trivially copyable and self-contained — a slot is valid in any process
// that maps the segment, carries no pointers, and is sized to a multiple of
// a cache line so slots never share a line across the producer/consumer
// boundary.
//
// The request header carries the per-tenant admission and SLO machinery:
// tenant id (quota accounting), SLO class (hard-deadline requests are
// dropped by the shard once stale; degrade-tolerant requests instead carry
// the rung cap the coordinator computed from its load signal, reusing the
// PR 5 precision-degradation machinery per shard), the deadline itself, and
// the escalation cap.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace scbnn::fleet {

/// 28x28 frames, like everything else in this repo.
inline constexpr int kFrameSide = 28;
inline constexpr int kFramePixels = kFrameSide * kFrameSide;

/// splitmix64 finalizer — the fleet's one hash for sensor keys and
/// consistent-hash ring points.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Service classes carried in the request header.
enum class SloClass : std::uint8_t {
  /// Keep the answer, degrade precision under load: the shard honors the
  /// header's rung_cap (the coordinator lowers it when the shard's ring
  /// backs up), shedding precision instead of frames.
  kDegradeTolerant = 0,
  /// Answer by the deadline or not at all: the shard drops the request
  /// (kFlagDeadlineDropped response, no compute) once deadline_ns passed.
  kHardDeadline = 1,
};

/// One frame of work: coordinator -> shard.
struct alignas(64) RequestSlot {
  std::uint64_t session_key = 0;  ///< sensor id (placement + identity)
  std::uint64_t sequence = 0;     ///< coordinator-global request id
  /// Hard deadline on the serving steady clock (ns since epoch of
  /// ServeClock), 0 = none. Only meaningful for kHardDeadline.
  std::int64_t deadline_ns = 0;
  /// Trace id minted at FleetCoordinator::submit; the shard echoes it in
  /// the response and uses it as the ambient id for its compute spans, so
  /// one frame's spans connect across the fork boundary.
  std::uint64_t trace_id = 0;
  /// Escalation ceiling the shard must apply for this request's batch
  /// (Servable::set_max_rung). Admission fills kUncappedRung when the
  /// shard is keeping up.
  std::int32_t rung_cap = 0;
  std::uint32_t tenant = 0;
  SloClass slo = SloClass::kDegradeTolerant;
  std::uint8_t pad_[7] = {};
  float pixels[kFramePixels] = {};
};

/// Response flags.
inline constexpr std::uint32_t kFlagDeadlineDropped = 1u << 0;

/// One prediction (or drop notice): shard -> coordinator. Exactly one
/// cache line.
struct alignas(64) ResponseSlot {
  std::uint64_t sequence = 0;  ///< echoes RequestSlot::sequence
  std::uint64_t trace_id = 0;  ///< echoes RequestSlot::trace_id
  double margin = 0.0;
  double energy_j = 0.0;      ///< this frame's Prediction::energy_j
  double compute_ms = 0.0;    ///< shard-side batch latency
  std::int32_t label = -1;
  std::int32_t rung = 0;
  std::uint32_t bits_used = 0;
  std::int32_t rung_cap = 0;
  std::uint32_t flags = 0;
  std::int32_t batch_size = 0;
};

static_assert(std::is_trivially_copyable_v<RequestSlot>);
static_assert(std::is_trivially_copyable_v<ResponseSlot>);
static_assert(sizeof(RequestSlot) % 64 == 0);
static_assert(sizeof(ResponseSlot) == 64);

}  // namespace scbnn::fleet
