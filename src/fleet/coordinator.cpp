#include "fleet/coordinator.h"

#include "obs/watchdog.h"
#include "runtime/process_stats.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace scbnn::fleet {

namespace {

using Clock = runtime::ServeClock;

std::int64_t to_epoch_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

const FleetConfig& FleetConfig::validate() const {
  if (shards < 1) {
    throw std::invalid_argument("FleetConfig: shards must be >= 1");
  }
  if (!valid_ring_capacity(ring_capacity)) {
    throw std::invalid_argument(
        "FleetConfig: ring_capacity must be a power of two >= 2");
  }
  if (shard_max_batch < 1) {
    throw std::invalid_argument("FleetConfig: shard_max_batch must be >= 1");
  }
  if (bundle_path.empty()) {
    throw std::invalid_argument("FleetConfig: bundle_path must be set");
  }
  if (wedged_threshold_ms < 0.0) {
    throw std::invalid_argument(
        "FleetConfig: wedged_threshold_ms must be >= 0 (0 disables)");
  }
  return *this;
}

FleetCoordinator::FleetCoordinator(FleetConfig config)
    : config_(config.validate()) {
  shards_.resize(static_cast<std::size_t>(config_.shards));
  const std::size_t response_slots = config_.ring_capacity * 2;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(config_.shards);
       ++i) {
    ShardSlot& slot = shards_[i];
    slot.segment = std::make_unique<ShmSegment>(
        ShardChannel::bytes_for(config_.ring_capacity, response_slots));
    slot.channel = ShardChannel::attach(slot.segment->data(),
                                        config_.ring_capacity,
                                        response_slots, /*initialize=*/true);
    slot.channel.response_bell = response_bell_;
    placement_.add_shard(i);
  }
  // Fork the whole fleet BEFORE starting any coordinator thread: the
  // initial children are forked from a single-threaded process, which
  // sidesteps every fork-vs-threads hazard for the common path. (Respawns
  // do fork from the supervisor thread; the child immediately re-runs
  // shard_main, which allocates — glibc's atfork handling of the malloc
  // arenas makes that safe on the platforms this transport targets.)
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(config_.shards);
       ++i) {
    spawn_shard(i);
  }
  collector_ = std::thread([this] { collector_loop(); });
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

FleetCoordinator::~FleetCoordinator() { shutdown(); }

void FleetCoordinator::spawn_shard(std::uint32_t shard) {
  ShardSlot& slot = shards_[shard];
  const ShardSpec spec{config_.bundle_path, config_.shard_threads,
                       config_.shard_max_batch};
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: serve until the request ring closes, then vanish without
    // running parent-owned global teardown.
    const int rc = shard_main(slot.channel, spec);
    std::_Exit(rc);
  }
  if (pid < 0) {
    throw std::runtime_error("FleetCoordinator: fork() failed");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  slot.pid = pid;
  slot.alive = true;
}

std::future<FleetResult> FleetCoordinator::submit(std::uint64_t session_key,
                                                  std::uint32_t tenant,
                                                  const float* pixels,
                                                  SloClass slo,
                                                  double deadline_ms) {
  if (!accepting_.load(std::memory_order_acquire)) {
    throw std::runtime_error("FleetCoordinator: submit after shutdown");
  }

  // Trace ids are minted here (= the coordinator-global sequence) and ride
  // the wire headers; only read the clock when tracing is on at all.
  const std::int64_t trace_t0 =
      obs::tracing_enabled() ? obs::monotonic_ns() : 0;

  RequestSlot req;
  req.session_key = session_key;
  req.tenant = tenant;
  req.slo = slo;
  const auto now = Clock::now();
  req.deadline_ns =
      slo == SloClass::kHardDeadline && deadline_ms > 0.0
          ? to_epoch_ns(now + std::chrono::nanoseconds(
                                  static_cast<long>(deadline_ms * 1e6)))
          : 0;
  std::memcpy(req.pixels, pixels, sizeof(float) * kFramePixels);

  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t shard = placement_.place(session_key);
  ShardSlot& slot = shards_[shard];

  if (const auto quota = config_.tenant_quota.find(tenant);
      quota != config_.tenant_quota.end() &&
      tenant_inflight_[tenant] >= quota->second) {
    ++stats_.rejected_quota;
    throw FleetRejectError(
        FleetRejectError::Reason::kTenantQuota,
        "tenant " + std::to_string(tenant) + " at its in-flight quota (" +
            std::to_string(quota->second) + ")");
  }

  // Overload-adaptive precision: once this shard's ring backs up past the
  // watermark, degrade-tolerant admissions carry the reduced cap — the
  // shard sheds precision instead of frames (hard-deadline traffic keeps
  // the full ladder; its recourse is the deadline).
  const bool backlogged =
      slot.channel.requests.size() > config_.degrade_watermark;
  req.rung_cap = slo == SloClass::kDegradeTolerant && backlogged
                     ? config_.degraded_rung_cap
                     : runtime::Servable::kUncappedRung;

  req.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  req.trace_id = req.sequence;
  Pending pending;
  pending.submitted = now;
  pending.session_key = session_key;
  pending.tenant = tenant;
  pending.shard = shard;
  std::future<FleetResult> future = pending.promise.get_future();

  if (!slot.channel.requests.try_push(req)) {
    ++stats_.rejected_backpressure;
    throw FleetRejectError(
        FleetRejectError::Reason::kRingFull,
        "shard " + std::to_string(shard) + " request ring full (" +
            std::to_string(slot.channel.requests.capacity()) + " slots)");
  }
  pending_.emplace(req.sequence, std::move(pending));
  ++tenant_inflight_[tenant];
  ++stats_.submitted;

  if (obs::trace_sampled(req.trace_id)) {
    obs::TraceSpan span;
    span.name = obs::SpanName::kCoordSubmit;
    span.trace_id = req.trace_id;
    span.start_ns = trace_t0;
    span.dur_ns = std::max<std::int64_t>(obs::monotonic_ns() - trace_t0, 1);
    span.arg0 = shard;
    span.arg1 = tenant;
    span.arg2 = slot.channel.requests.size();
    obs::record_span(span);
    obs::trace_instant(obs::SpanName::kRingPush, req.trace_id, shard,
                       req.sequence, slot.channel.requests.size());
  }
  return future;
}

void FleetCoordinator::end_session(std::uint64_t session_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  placement_.release(session_key);
}

std::uint32_t FleetCoordinator::shard_of(std::uint64_t session_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  return placement_.place(session_key);
}

void FleetCoordinator::kill_shard(std::uint32_t shard) {
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard >= shards_.size() || !shards_[shard].alive) return;
    pid = shards_[shard].pid;
  }
  ::kill(pid, SIGKILL);
}

void FleetCoordinator::complete_response(std::uint32_t shard,
                                         const ResponseSlot& slot) {
  std::promise<FleetResult> promise;
  FleetResult result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pending_.find(slot.sequence);
    if (it == pending_.end()) {
      // A replayed batch from a respawned shard: the original incarnation
      // already answered this sequence. At-least-once delivery, deduped
      // here.
      ++stats_.duplicates;
      return;
    }
    // A response from a respawned incarnation proves it ready: record
    // the recovery before the frame's future resolves, rather than at the
    // supervisor's next tick, so whoever waited on the frame sees it.
    note_recovery(shards_[shard]);
    Pending pending = std::move(it->second);
    pending_.erase(it);
    if (auto inflight = tenant_inflight_.find(pending.tenant);
        inflight != tenant_inflight_.end() && inflight->second > 0) {
      --inflight->second;
    }

    const auto now = Clock::now();
    result.shard = shard;
    result.deadline_dropped = (slot.flags & kFlagDeadlineDropped) != 0;
    result.e2e_ms = runtime::ms_between(pending.submitted, now);
    result.prediction.trace_id = slot.trace_id;
    result.prediction.label = slot.label;
    result.prediction.margin = slot.margin;
    result.prediction.rung = slot.rung;
    result.prediction.bits_used = slot.bits_used;
    result.prediction.rung_cap = slot.rung_cap;
    result.prediction.energy_j = slot.energy_j;
    result.prediction.compute_ms = slot.compute_ms;
    result.prediction.batch_size = slot.batch_size;
    result.prediction.queue_wait_ms =
        std::max(0.0, result.e2e_ms - slot.compute_ms);

    ++stats_.completed;
    if (result.deadline_dropped) {
      ++stats_.deadline_dropped;
    } else {
      shard_tenant_latency_[shard][pending.tenant].record(result.e2e_ms);
    }
    promise = std::move(pending.promise);
  }
  obs::trace_instant(
      obs::SpanName::kCoordComplete, slot.trace_id, shard, slot.sequence,
      static_cast<std::uint64_t>(std::max(0.0, result.e2e_ms * 1000.0)));
  promise.set_value(result);
}

void FleetCoordinator::collector_loop() {
  // Something to do: a response is waiting, or shutdown closed every ring.
  const auto ready = [this] {
    bool all_closed = true;
    for (const ShardSlot& shard : shards_) {
      if (shard.channel.responses.size() > 0) return true;
      all_closed = all_closed && shard.channel.responses.closed();
    }
    return all_closed && shutting_down_.load(std::memory_order_acquire);
  };
  ResponseSlot slot;
  while (true) {
    bool any = false;
    bool all_drained = true;
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
      SpscRing<ResponseSlot> responses = shards_[i].channel.responses;
      // Bounded drain per shard per round so one hot shard cannot starve
      // the others' completions.
      for (int budget = 0; budget < 512; ++budget) {
        if (!responses.try_pop(slot)) break;
        complete_response(i, slot);
        any = true;
      }
      if (!(responses.closed() && responses.size() == 0)) {
        all_drained = false;
      }
    }
    if (any) continue;
    if (shutting_down_.load(std::memory_order_acquire) && all_drained) {
      return;
    }
    // Spin briefly, then park until a shard announces a batch of
    // responses, the supervisor reaps a dead shard, or shutdown closes
    // the rings — each rings the response doorbell.
    response_bell_->wait(ready);
  }
}

namespace {

/// Supervisor tick: death detection, respawn readiness and the heartbeat
/// watchdog run at this period. A kill -9 is noticed at most one tick
/// late, well inside the respawn budget, and an idle coordinator wakes
/// only 100 times a second for it.
constexpr auto kSuperviseInterval = std::chrono::milliseconds(10);

}  // namespace

void FleetCoordinator::supervisor_loop() {
  obs::HeartbeatWatchdog watchdog(
      static_cast<std::int64_t>(config_.wedged_threshold_ms * 1e6));
  while (!shutting_down_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(kSuperviseInterval);
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
      ShardSlot& slot = shards_[i];
      pid_t pid = -1;
      bool alive = false;
      bool awaiting_ready = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        pid = slot.pid;
        alive = slot.alive;
        awaiting_ready = slot.awaiting_ready;
      }

      if (awaiting_ready) {
        std::lock_guard<std::mutex> lock(mutex_);
        note_recovery(slot);
      }

      if (!alive) continue;

      // Stale-heartbeat watchdog: waitpid only sees death, this catches
      // alive-but-wedged. Only meaningful while the shard has queued work
      // it should be consuming — an idle shard parks in wait_nonempty with
      // a legitimately flat heartbeat, so the empty-ring case re-seeds the
      // baseline instead of counting toward the threshold.
      if (config_.wedged_threshold_ms > 0.0 &&
          slot.channel.status->ready.load(std::memory_order_acquire) != 0) {
        if (slot.channel.requests.size() == 0) {
          watchdog.forget(i);
        } else {
          const auto event = watchdog.observe(
              i, slot.channel.status->heartbeat.load(std::memory_order_relaxed),
              obs::monotonic_ns());
          if (event == obs::HeartbeatWatchdog::Event::kWedged) {
            std::fprintf(stderr,
                         "fleet: shard %u (pid %ld) wedged — heartbeat flat "
                         ">%.0fms with %zu requests queued\n",
                         i, static_cast<long>(pid),
                         config_.wedged_threshold_ms,
                         slot.channel.requests.size());
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.wedged_events;
          } else if (event == obs::HeartbeatWatchdog::Event::kRecovered) {
            std::fprintf(stderr, "fleet: shard %u (pid %ld) recovered\n", i,
                         static_cast<long>(pid));
          }
        }
      }

      int wait_status = 0;
      if (::waitpid(pid, &wait_status, WNOHANG) != pid) continue;

      // The shard died (kill -9, crash, or a failed start). Mark it, and
      // respawn onto the SAME rings: head never advanced past unanswered
      // requests, so the new incarnation replays the ring tail.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        slot.alive = false;
        slot.death_detected = Clock::now();
      }
      // A killed shard never lowers its ready flag; lower it here, before
      // the respawn, so the flag reports the next incarnation.
      slot.channel.status->ready.store(0, std::memory_order_release);
      watchdog.forget(i);
      // A shard killed between its last push and its ring left responses
      // unannounced; wake the collector for them now.
      response_bell_->ring();

      // Flight-recorder post-mortem: the dead incarnation's spans are
      // still sitting in the shm trace rings (plain atomic words — no
      // heap, nothing lost to the kill). Extract them BEFORE the respawn
      // starts writing over the same rings. A shard reaped while the
      // fleet is shutting down exited on request — no post-mortem.
      if (!shutting_down_.load(std::memory_order_acquire)) {
        const std::uint32_t epoch =
            slot.channel.status->epoch.load(std::memory_order_relaxed);
        std::string postmortem =
            "fleet: shard " + std::to_string(i) + " (pid " +
            std::to_string(static_cast<long>(pid)) + ", epoch " +
            std::to_string(epoch) + ") died; flight-recorder post-mortem:\n" +
            obs::format_postmortem(slot.channel.trace.snapshot(), 32);
        std::fputs(postmortem.c_str(), stderr);
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.postmortems.push_back(std::move(postmortem));
      }

      if (config_.respawn && !shutting_down_.load()) {
        spawn_shard(i);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.respawns;
        slot.awaiting_ready = true;
      }
    }
  }
}

void FleetCoordinator::note_recovery(ShardSlot& slot) {
  if (slot.awaiting_ready &&
      slot.channel.status->ready.load(std::memory_order_acquire) != 0) {
    slot.awaiting_ready = false;
    stats_.recovery_ready_ms.push_back(
        runtime::ms_between(slot.death_detected, Clock::now()));
  }
}

FleetStats FleetCoordinator::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  FleetStats out = stats_;
  out.shards.clear();
  out.energy_j = 0.0;
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    const ShardSlot& slot = shards_[i];
    const ShardStatus& status = *slot.channel.status;
    ShardReport report;
    report.shard = i;
    report.pid = status.pid.load(std::memory_order_relaxed);
    report.alive = slot.alive;
    report.epoch = status.epoch.load(std::memory_order_relaxed);
    report.heartbeat = status.heartbeat.load(std::memory_order_relaxed);
    report.served = status.served.load(std::memory_order_relaxed);
    report.dropped_deadline =
        status.dropped_deadline.load(std::memory_order_relaxed);
    report.batches = status.batches.load(std::memory_order_relaxed);
    report.energy_j = status_double(status.energy_j_bits);
    report.compute_ms = status_double(status.compute_ms_bits);
    report.peak_rss_bytes =
        status.peak_rss_bytes.load(std::memory_order_relaxed);
    report.cpu_utime_s =
        static_cast<double>(
            status.cpu_utime_us.load(std::memory_order_relaxed)) *
        1e-6;
    report.cpu_stime_s =
        static_cast<double>(
            status.cpu_stime_us.load(std::memory_order_relaxed)) *
        1e-6;
    report.vol_ctx_switches =
        status.vol_ctx_switches.load(std::memory_order_relaxed);
    report.invol_ctx_switches =
        status.invol_ctx_switches.load(std::memory_order_relaxed);
    report.request_ring_depth = slot.channel.requests.size();
    report.sessions = placement_.load(i);
    out.energy_j += report.energy_j;
    out.shards.push_back(report);
  }
  out.tenant_latency.clear();
  for (const auto& [shard, tenants] : shard_tenant_latency_) {
    for (const auto& [tenant, histogram] : tenants) {
      out.tenant_latency[tenant].merge(histogram);
      out.fleet_latency.merge(histogram);
    }
  }
  lock.unlock();

  // The shard only refreshes its status word periodically; for a live
  // process the kernel's current high-water mark is authoritative. Read
  // after unlocking: a /proc read per shard must not stall submit() and
  // the collector.
  for (ShardReport& report : out.shards) {
    if (report.alive) {
      report.peak_rss_bytes = std::max(report.peak_rss_bytes,
                                       runtime::peak_rss_bytes(report.pid));
    }
  }
  return out;
}

bool FleetCoordinator::dump_trace(const std::string& path) const {
  std::vector<obs::TraceProcessDump> processes;
  processes.push_back(
      {"coordinator", 1, obs::active_recorder().snapshot()});
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    processes.push_back({"shard " + std::to_string(i), i + 2,
                         shards_[i].channel.trace.snapshot()});
  }
  return obs::write_chrome_trace(path, processes);
}

void FleetCoordinator::register_metrics(obs::MetricsRegistry& registry) {
  auto counter = [&](const char* name, const char* help,
                     std::uint64_t FleetStats::* field) {
    registry.counter_fn(name, help, {}, [this, field] {
      std::lock_guard<std::mutex> lock(mutex_);
      return stats_.*field;
    });
  };
  counter("scbnn_fleet_submitted_total", "Frames admitted by the fleet",
          &FleetStats::submitted);
  counter("scbnn_fleet_completed_total", "Futures resolved with a response",
          &FleetStats::completed);
  counter("scbnn_fleet_rejected_quota_total",
          "Admissions rejected by tenant quota", &FleetStats::rejected_quota);
  counter("scbnn_fleet_rejected_backpressure_total",
          "Admissions rejected by ring backpressure",
          &FleetStats::rejected_backpressure);
  counter("scbnn_fleet_duplicates_total",
          "Replayed responses dropped by sequence dedup",
          &FleetStats::duplicates);
  counter("scbnn_fleet_deadline_dropped_total",
          "Hard-deadline frames dropped stale by shards",
          &FleetStats::deadline_dropped);
  counter("scbnn_fleet_respawns_total", "Shard respawns after death",
          &FleetStats::respawns);
  counter("scbnn_fleet_wedged_events_total",
          "Stale-heartbeat watchdog trips (alive but wedged)",
          &FleetStats::wedged_events);

  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    const obs::Labels labels{{"shard", std::to_string(i)}};
    const ShardStatus* status = shards_[i].channel.status;
    auto status_gauge = [&](const char* name, const char* help,
                            const std::atomic<std::uint64_t>& word) {
      registry.gauge_fn(name, help, labels, [&word] {
        return static_cast<double>(word.load(std::memory_order_relaxed));
      });
    };
    status_gauge("scbnn_fleet_shard_heartbeat",
                 "Shard serve-loop iterations", status->heartbeat);
    status_gauge("scbnn_fleet_shard_served", "Frames computed",
                 status->served);
    status_gauge("scbnn_fleet_shard_peak_rss_bytes",
                 "Shard peak resident set size", status->peak_rss_bytes);
    status_gauge("scbnn_fleet_shard_vol_ctx_switches",
                 "Voluntary context switches (getrusage)",
                 status->vol_ctx_switches);
    status_gauge("scbnn_fleet_shard_invol_ctx_switches",
                 "Involuntary context switches (getrusage)",
                 status->invol_ctx_switches);
    registry.gauge_fn("scbnn_fleet_shard_cpu_utime_seconds",
                      "Shard user CPU seconds (getrusage)", labels, [status] {
                        return static_cast<double>(status->cpu_utime_us.load(
                                   std::memory_order_relaxed)) *
                               1e-6;
                      });
    registry.gauge_fn("scbnn_fleet_shard_cpu_stime_seconds",
                      "Shard system CPU seconds (getrusage)", labels,
                      [status] {
                        return static_cast<double>(status->cpu_stime_us.load(
                                   std::memory_order_relaxed)) *
                               1e-6;
                      });
    registry.gauge_fn("scbnn_fleet_shard_epoch", "Shard incarnations",
                      labels, [status] {
                        return static_cast<double>(
                            status->epoch.load(std::memory_order_relaxed));
                      });
    registry.gauge_fn("scbnn_fleet_shard_alive",
                      "1 while the shard process is alive", labels,
                      [this, i] {
                        std::lock_guard<std::mutex> lock(mutex_);
                        return shards_[i].alive ? 1.0 : 0.0;
                      });
    registry.gauge_fn("scbnn_fleet_shard_request_ring_depth",
                      "Requests queued in the shard's shm ring", labels,
                      [this, i] {
                        return static_cast<double>(
                            shards_[i].channel.requests.size());
                      });
  }

  registry.gauge_fn("scbnn_fleet_energy_joules",
                    "Modeled energy summed over shards", {}, [this] {
                      std::lock_guard<std::mutex> lock(mutex_);
                      double total = 0.0;
                      for (const ShardSlot& slot : shards_) {
                        total += status_double(
                            slot.channel.status->energy_j_bits);
                      }
                      return total;
                    });
  registry.histogram_fn(
      "scbnn_fleet_e2e_latency_ms",
      "End-to-end latency (submit to future resolution), merged over "
      "shards and tenants",
      {}, [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        runtime::LatencyHistogram merged;
        for (const auto& [shard, tenants] : shard_tenant_latency_) {
          for (const auto& [tenant, histogram] : tenants) {
            merged.merge(histogram);
          }
        }
        return merged;
      });
}

void FleetCoordinator::shutdown() {
  std::call_once(shutdown_once_, [this] {
    accepting_.store(false, std::memory_order_release);

    // Set BEFORE signaling the shards: the supervisor must stop racing us
    // on waitpid, or it mistakes a shard exiting on the drain request for
    // a crash (spurious post-mortem + respawn). The gate in
    // supervisor_loop re-checks this flag for the same reason.
    shutting_down_.store(true, std::memory_order_release);

    // Closing the request rings is the drain signal: each live shard
    // finishes what is queued, pushes the responses, closes its response
    // ring, and exits.
    for (ShardSlot& slot : shards_) {
      slot.channel.status->shutdown.store(1, std::memory_order_release);
      slot.channel.requests.close();
    }

    // Reap children; anything that ignores the drain window is killed.
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (ShardSlot& slot : shards_) {
      bool alive;
      pid_t pid;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        alive = slot.alive;
        pid = slot.pid;
      }
      if (!alive) continue;
      int wait_status = 0;
      while (::waitpid(pid, &wait_status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &wait_status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::lock_guard<std::mutex> lock(mutex_);
      slot.alive = false;
    }

    // A shard killed -9 never closed its response ring; close them all so
    // the collector's drain condition is reachable (idempotent for rings
    // the shard closed itself).
    for (ShardSlot& slot : shards_) {
      slot.channel.responses.close();
    }
    response_bell_->ring();

    if (supervisor_.joinable()) supervisor_.join();
    if (collector_.joinable()) collector_.join();

    // Whatever is still pending was admitted but never answered (e.g. a
    // dead shard with respawn disabled). Resolve exceptionally — a future
    // must never dangle.
    std::unordered_map<std::uint64_t, Pending> orphaned;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      orphaned.swap(pending_);
    }
    for (auto& [sequence, pending] : orphaned) {
      pending.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("fleet shutdown before response")));
    }
  });
}

}  // namespace scbnn::fleet
