#pragma once

// Low-overhead tracing for the serving stack.
//
// A TraceSpan is a 64-byte record (trace id, monotonic nanosecond start,
// duration, name, small args) written into a fixed-size lock-free ring.
// Rings are plain arrays of relaxed atomic words, so the same layout works
// on the heap (in-process recorder) and inside a fleet shard's ShmSegment
// (flight recorder): after a kill -9 the supervisor can still read the dead
// shard's last spans, because every write was a plain atomic store into
// shared memory — no heap, no locks, no destructors involved.
//
// Timestamps come from std::chrono::steady_clock (CLOCK_MONOTONIC on
// Linux), which is shared across fork(), so coordinator and shard spans
// land on one common timeline and merge into a single Chrome trace.
//
// Sampling: SCBNN_TRACE=off|sampled:N|all (or set_trace_mode()). The
// disabled fast path is a single relaxed load + branch — no time reads, no
// ring traffic — so instrumentation can stay on hot paths permanently.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace scbnn::obs {

// ---------------------------------------------------------------------------
// Span vocabulary

enum class SpanName : std::uint32_t {
  kNone = 0,
  kCoordSubmit,      // FleetCoordinator::submit: place + admit + enqueue
  kRingPush,         // instant: request entered a shard's request ring
  kShardBatchBegin,  // instant: shard formed a batch (flight-recorder key)
  kShardBatch,       // shard-side batch: SLO pass + classify + respond
  kPipelineRung,     // one rung of AdaptivePipeline::classify
  kFirstLayer,       // stochastic/binary first layer stage
  kTail,             // float tail stage
  kParallelFor,      // executor fan-out (jobs, workers)
  kServerSubmit,     // Server::submit admission
  kServerBatch,      // Server::serve_loop batch: pop + pack + classify
  kCoordComplete,    // instant: response matched back to its future
  kCount,
};

[[nodiscard]] const char* to_string(SpanName name) noexcept;
[[nodiscard]] const char* span_category(SpanName name) noexcept;
// Per-arg labels for a span name (nullptr entries = unused arg); used by
// the Chrome encoder and the post-mortem formatter.
[[nodiscard]] const char* const* span_arg_names(SpanName name) noexcept;

struct TraceSpan {
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;  // steady_clock nanoseconds
  std::int64_t dur_ns = 0;    // 0 => instant event
  SpanName name = SpanName::kNone;
  std::uint32_t tid = 0;  // small per-thread ordinal, stable per process
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
};

// ---------------------------------------------------------------------------
// Recorder: N rings of `capacity` slots, each slot kSpanWords atomic words.
// Writers claim a slot with a free-running fetch_add on the ring cursor
// (multi-writer safe: two threads mapped to one ring never collide on a
// slot), then store the payload words relaxed and a generation word last
// (release). A concurrent reader validates the generation seqlock-style
// and drops the (rare) slots that are mid-overwrite at the write head.

inline constexpr int kSpanWords = 8;

struct alignas(64) TraceBufferHeader {
  static constexpr std::uint64_t kMagic = 0x5cb2017'0b5eull;
  std::uint64_t magic = 0;
  std::uint32_t rings = 0;
  std::uint32_t capacity = 0;  // slots per ring, power of two
  std::atomic<std::uint32_t> next_ring{0};
};

struct alignas(64) TraceRingHeader {
  std::atomic<std::uint64_t> cursor{0};  // total spans ever claimed
};

// Non-owning view over a trace buffer (heap or shared memory); copyable,
// like SpscRing. All methods are safe from any thread/process attached to
// the same memory.
class TraceRecorder {
 public:
  TraceRecorder() = default;

  [[nodiscard]] static std::size_t bytes_for(unsigned rings,
                                             std::size_t capacity);
  // `capacity` (slots per ring) must be a power of two >= 2.
  [[nodiscard]] static TraceRecorder attach(void* memory, unsigned rings,
                                            std::size_t capacity,
                                            bool initialize);

  [[nodiscard]] bool valid() const noexcept { return header_ != nullptr; }
  [[nodiscard]] unsigned rings() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept;

  // Lock-free; callable from any thread. The calling thread is assigned a
  // ring round-robin on first use (cached thread-locally).
  void record(const TraceSpan& span) noexcept;

  // Every span currently readable, oldest data included up to ring
  // capacity, sorted by start_ns. Safe concurrently with writers (torn
  // slots at the write head are skipped) and safe on a dead shard's shm.
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;

  // Total spans ever recorded / overwritten by ring wrap.
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  [[nodiscard]] std::uint64_t overwritten() const noexcept;

 private:
  TraceRingHeader* ring_header(unsigned ring) const noexcept;
  std::atomic<std::uint64_t>* ring_words(unsigned ring) const noexcept;

  TraceBufferHeader* header_ = nullptr;
};

// Heap-backed recorder owning its storage (the in-process default).
class OwnedTraceRecorder {
 public:
  OwnedTraceRecorder(unsigned rings, std::size_t capacity);
  [[nodiscard]] TraceRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const TraceRecorder& recorder() const noexcept {
    return recorder_;
  }

 private:
  std::unique_ptr<unsigned char[]> storage_;
  TraceRecorder recorder_;
};

// ---------------------------------------------------------------------------
// Process-global mode, recorder, and ambient trace id.

enum class TraceMode : std::uint32_t { kOff = 0, kSampled = 1, kAll = 2 };

namespace detail {
extern std::atomic<std::uint32_t> g_mode;          // TraceMode
extern std::atomic<std::uint64_t> g_sample_every;  // N for kSampled
}  // namespace detail

// Branch-only fast path: one relaxed load when tracing is off.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_mode.load(std::memory_order_relaxed) !=
         static_cast<std::uint32_t>(TraceMode::kOff);
}

// Should spans for this trace id be recorded? off: never; all: always;
// sampled:N: ids that are nonzero multiples of N.
[[nodiscard]] inline bool trace_sampled(std::uint64_t trace_id) noexcept {
  const std::uint32_t mode = detail::g_mode.load(std::memory_order_relaxed);
  if (mode == static_cast<std::uint32_t>(TraceMode::kOff)) return false;
  if (mode == static_cast<std::uint32_t>(TraceMode::kAll)) return true;
  const std::uint64_t n =
      detail::g_sample_every.load(std::memory_order_relaxed);
  return trace_id != 0 && trace_id % n == 0;
}

void set_trace_mode(TraceMode mode, std::uint64_t sample_every = 64);
// Parse SCBNN_TRACE (off|sampled:N|all); unset or unparsable => off.
void set_trace_mode_from_env();
[[nodiscard]] TraceMode trace_mode() noexcept;
[[nodiscard]] std::uint64_t trace_sample_every() noexcept;

// steady_clock now, in nanoseconds (comparable across fork on Linux).
[[nodiscard]] std::int64_t monotonic_ns() noexcept;
// Small per-thread ordinal for Chrome "tid".
[[nodiscard]] std::uint32_t trace_tid() noexcept;

// Redirect recording into an external buffer (a shard points this at its
// ShmSegment flight recorder after fork). Pass nullptr to restore the
// default lazily-created heap recorder. The pointed-to recorder must
// outlive recording.
void install_recorder(TraceRecorder* recorder) noexcept;
// The active recorder: the installed one, else the process-wide heap
// recorder (created on first use).
[[nodiscard]] TraceRecorder& active_recorder();

void record_span(const TraceSpan& span) noexcept;

// Ambient trace id: set by whoever owns the request boundary (server batch
// loop, shard batch loop), read by nested layers (pipeline rungs, engine
// stages, executor fan-outs) so their spans join the same trace.
[[nodiscard]] std::uint64_t ambient_trace_id() noexcept;

class AmbientTrace {
 public:
  explicit AmbientTrace(std::uint64_t trace_id) noexcept;
  ~AmbientTrace();
  AmbientTrace(const AmbientTrace&) = delete;
  AmbientTrace& operator=(const AmbientTrace&) = delete;

 private:
  std::uint64_t previous_;
};

// RAII duration span; arms only if trace_sampled(trace_id).
class SpanScope {
 public:
  explicit SpanScope(SpanName name, std::uint64_t trace_id,
                     std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
                     std::uint64_t arg2 = 0) noexcept {
    if (!trace_sampled(trace_id)) return;
    armed_ = true;
    span_.name = name;
    span_.trace_id = trace_id;
    span_.arg0 = arg0;
    span_.arg1 = arg1;
    span_.arg2 = arg2;
    span_.start_ns = monotonic_ns();
  }
  ~SpanScope() {
    if (!armed_) return;
    span_.dur_ns = monotonic_ns() - span_.start_ns;
    if (span_.dur_ns == 0) span_.dur_ns = 1;  // keep it a duration event
    record_span(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceSpan span_{};
  bool armed_ = false;
};

// Instant event, gated on trace_sampled(trace_id).
void trace_instant(SpanName name, std::uint64_t trace_id,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
                   std::uint64_t arg2 = 0) noexcept;
// Instant event recorded whenever tracing is enabled at all, regardless of
// sampling — the flight-recorder events (batch formation) use this so a
// post-mortem always has the in-flight batch even under sampled:N.
void trace_instant_always(SpanName name, std::uint64_t trace_id,
                          std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
                          std::uint64_t arg2 = 0) noexcept;

// ---------------------------------------------------------------------------
// Export

// One process lane in a merged Chrome trace.
struct TraceProcessDump {
  std::string name;
  std::uint32_t pid = 0;
  std::vector<TraceSpan> spans;
};

// Chrome/Perfetto trace_event JSON ("traceEvents" array of ph:"X" duration
// and ph:"i" instant events; ts/dur in microseconds).
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<TraceProcessDump>& processes);
bool write_chrome_trace(const std::string& path,
                        const std::vector<TraceProcessDump>& processes);
// Dump the current process's active recorder.
bool dump_trace(const std::string& path);

// Human-readable flight-recorder post-mortem: the newest `last_n` spans,
// oldest first, one line each.
[[nodiscard]] std::string format_postmortem(std::vector<TraceSpan> spans,
                                            std::size_t last_n);

// JSON string escaping (shared by the trace and metrics encoders).
[[nodiscard]] std::string escape_json(const std::string& s);

}  // namespace scbnn::obs
