// Fleet coordinator integration tests: real fork()ed shard processes over
// real shared-memory rings. Covered here: bit-identity of fleet predictions
// vs an in-process Servable from the same bundle, kill -9 recovery (respawn
// + ring-tail replay) under the 250 ms budget, per-tenant admission quotas,
// hard-deadline SLO drops, graceful shutdown serving every accepted frame,
// an idle fleet parking instead of polling, and the metric families
// register_metrics exports.
//
// Skipped under ThreadSanitizer: TSan does not support fork() from a
// multi-threaded process (the coordinator runs collector + supervisor
// threads). The transport's sanitizer coverage lives in test_shm_ring.cpp,
// which drives the same ring code with in-process threads.
#include "fleet/coordinator.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hybrid/bundle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "hybrid/hybrid_network.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "nn/tensor.h"
#include "runtime/servable.h"
#include "sensor/session_driver.h"

#if defined(__SANITIZE_THREAD__)
#define SCBNN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCBNN_TSAN 1
#endif
#endif

#ifdef SCBNN_TSAN
#define SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork()-based fleet tests are unsupported under TSan"
#else
#define SKIP_UNDER_TSAN() (void)0
#endif

namespace scbnn::fleet {
namespace {

constexpr std::uint64_t kSeed = 7;

/// A bundle saved under a per-process name, so concurrent test runs never
/// share a file, and removed when the test binary exits. Forked shards
/// leave through std::_Exit, so they never run the destructor and never
/// delete the file under their coordinator.
struct SavedBundle {
  SavedBundle(const std::string& stem, hybrid::ModelBundle bundle)
      : path(stem + "_" + std::to_string(::getpid()) + ".bundle") {
    hybrid::save_bundle(bundle, path);
  }
  ~SavedBundle() { std::remove(path.c_str()); }
  SavedBundle(const SavedBundle&) = delete;
  SavedBundle& operator=(const SavedBundle&) = delete;
  const std::string path;
};

/// A tiny deterministic frozen-weight bundle (no training), saved once per
/// test binary run — the artifact every shard and the in-process reference
/// instantiate from.
std::string frozen_bundle_path() {
  static const SavedBundle file("test_fleet_frozen", [] {
    const hybrid::LeNetConfig lenet{32, 8, 32, 0.0f};
    nn::Rng base_rng(kSeed);
    nn::Network base = hybrid::build_lenet(lenet, base_rng);
    hybrid::ModelBundle bundle;
    bundle.backend = "sc-proposed-fast";
    bundle.lenet = lenet;
    bundle.confidence_margin = 0.5;
    bundle.trained_seed = kSeed;
    hybrid::BundleRung rung;
    rung.bits = 4;
    rung.qw = nn::quantize_conv_weights(hybrid::base_conv1_weights(base), 4);
    rung.flc.bits = 4;
    rung.flc.soft_threshold = 0.30;
    rung.flc.seed = static_cast<std::uint32_t>(kSeed | 1u);
    nn::Rng tail_rng(kSeed + 1);
    rung.tail = hybrid::build_tail(lenet, tail_rng);
    hybrid::copy_tail_params(base, rung.tail);
    bundle.rungs.push_back(std::move(rung));
    return bundle;
  }());
  return file.path;
}

/// Restores process-global trace state however the test exits. Mode must
/// be set BEFORE constructing the coordinator: shards inherit it at fork.
struct TraceModeGuard {
  explicit TraceModeGuard(obs::TraceMode mode, std::uint64_t every = 64) {
    obs::set_trace_mode(mode, every);
  }
  ~TraceModeGuard() { obs::set_trace_mode(obs::TraceMode::kOff); }
};

/// Like frozen_bundle_path(), but with a two-rung escalation ladder (2 then
/// 4 bits) so the shards instantiate an AdaptivePipeline and the connected-
/// trace test sees per-rung spans.
std::string ladder_bundle_path() {
  static const SavedBundle file("test_fleet_ladder", [] {
    const hybrid::LeNetConfig lenet{32, 8, 32, 0.0f};
    nn::Rng base_rng(kSeed);
    nn::Network base = hybrid::build_lenet(lenet, base_rng);
    hybrid::ModelBundle bundle;
    bundle.backend = "sc-proposed-fast";
    bundle.lenet = lenet;
    bundle.confidence_margin = 0.5;
    bundle.trained_seed = kSeed;
    for (const unsigned bits : {2u, 4u}) {
      hybrid::BundleRung rung;
      rung.bits = bits;
      rung.qw =
          nn::quantize_conv_weights(hybrid::base_conv1_weights(base), bits);
      rung.flc.bits = bits;
      rung.flc.soft_threshold = 0.30;
      rung.flc.seed = static_cast<std::uint32_t>(kSeed | 1u);
      nn::Rng tail_rng(kSeed + 1);
      rung.tail = hybrid::build_tail(lenet, tail_rng);
      hybrid::copy_tail_params(base, rung.tail);
      bundle.rungs.push_back(std::move(rung));
    }
    return bundle;
  }());
  return file.path;
}

FleetConfig small_config(int shards) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.bundle_path = frozen_bundle_path();
  cfg.ring_capacity = 64;
  cfg.shard_max_batch = 8;
  cfg.degrade_watermark = 64;  // parked: identity covers every frame
  return cfg;
}

/// Deterministic frames from the session driver, flattened in event order.
struct Workload {
  std::vector<std::uint64_t> keys;
  std::vector<std::vector<float>> frames;
};

Workload make_workload(long sessions, long frames_per_session) {
  sensor::SessionStreamConfig cfg;
  cfg.sessions = sessions;
  cfg.frames_per_session = frames_per_session;
  cfg.seed = kSeed;
  sensor::SessionStreamDriver driver(cfg);
  Workload out;
  sensor::SessionEvent event;
  while (driver.next(event)) {
    out.keys.push_back(event.sensor_id);
    out.frames.push_back(event.frame.pixels);
  }
  return out;
}

std::vector<runtime::Prediction> reference_predictions(
    const Workload& work) {
  hybrid::ModelBundle bundle = hybrid::load_bundle(frozen_bundle_path());
  const std::unique_ptr<runtime::Servable> direct =
      hybrid::instantiate_servable(bundle, runtime::RuntimeConfig{});
  nn::Tensor all({static_cast<int>(work.frames.size()), 1, kFrameSide,
                  kFrameSide});
  for (std::size_t i = 0; i < work.frames.size(); ++i) {
    std::copy(work.frames[i].begin(), work.frames[i].end(),
              all.data() + i * static_cast<std::size_t>(kFramePixels));
  }
  return direct->classify(all);
}

/// Voluntary context switches of this process so far, summed over threads.
std::uint64_t own_voluntary_switches() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_nvcsw);
}

/// Voluntary context switches of every live thread of process `pid`, read
/// from /proc/<pid>/task/*/status.
std::uint64_t voluntary_switches(std::int32_t pid) {
  std::uint64_t total = 0;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks)) {
    std::ifstream status(task.path() / "status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        total += std::stoull(line.substr(line.find(':') + 1));
      }
    }
  }
  return total;
}

TEST(FleetConfigTest, ValidateNamesTheOffendingField) {
  FleetConfig cfg = small_config(2);
  cfg.shards = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(2);
  cfg.ring_capacity = 3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(2);
  cfg.bundle_path.clear();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_config(2).validate());
}

TEST(Fleet, PredictionsBitIdenticalToInProcessServable) {
  SKIP_UNDER_TSAN();
  const Workload work = make_workload(24, 2);
  const std::vector<runtime::Prediction> reference =
      reference_predictions(work);

  FleetCoordinator fleet(small_config(2));
  std::vector<std::future<FleetResult>> futures;
  for (std::size_t i = 0; i < work.keys.size(); ++i) {
    futures.push_back(
        fleet.submit(work.keys[i], /*tenant=*/0, work.frames[i].data()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const FleetResult r = futures[i].get();
    EXPECT_FALSE(r.deadline_dropped);
    EXPECT_EQ(r.prediction.label, reference[i].label) << "frame " << i;
    EXPECT_EQ(r.prediction.margin, reference[i].margin) << "frame " << i;
    EXPECT_EQ(r.prediction.rung, reference[i].rung) << "frame " << i;
    EXPECT_EQ(r.prediction.bits_used, reference[i].bits_used)
        << "frame " << i;
    EXPECT_EQ(r.prediction.energy_j, reference[i].energy_j) << "frame " << i;
  }

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.completed, work.keys.size());
  EXPECT_EQ(stats.fleet_latency.count(), work.keys.size());
  fleet.shutdown();
}

TEST(Fleet, SessionsStickToTheirShard) {
  SKIP_UNDER_TSAN();
  FleetCoordinator fleet(small_config(2));
  const Workload work = make_workload(16, 1);
  for (const std::uint64_t key : work.keys) {
    const std::uint32_t shard = fleet.shard_of(key);
    EXPECT_EQ(fleet.shard_of(key), shard);
    EXPECT_LT(shard, 2u);
  }
  fleet.shutdown();
}

TEST(Fleet, KillDashNineRecoversWithinBudgetAndLosesNothing) {
  SKIP_UNDER_TSAN();
  const Workload work = make_workload(32, 2);
  const std::vector<runtime::Prediction> reference =
      reference_predictions(work);

  // CI's sampling mode: the flight recorder's batch-begin events bypass
  // per-id sampling, so the post-mortem must reconstruct the dead shard's
  // batches even though most trace ids are not sampled.
  TraceModeGuard trace(obs::TraceMode::kSampled, 16);
  FleetCoordinator fleet(small_config(2));
  // Let both shards finish cold-starting before injecting the fault, so
  // the kill hits a serving incarnation (epoch 1) and the respawn is
  // observable as epoch 2.
  for (bool serving = false; !serving;) {
    serving = true;
    for (const ShardReport& shard : fleet.stats().shards) {
      serving &= shard.epoch >= 1;
    }
    if (!serving) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Kill only after at least one frame was routed to shard 0 AND shard 0
  // served something, so its flight recorder provably holds the batches
  // the post-mortem must reconstruct.
  std::size_t first_on_shard0 = 0;
  while (first_on_shard0 < work.keys.size() &&
         fleet.shard_of(work.keys[first_on_shard0]) != 0) {
    ++first_on_shard0;
  }
  ASSERT_LT(first_on_shard0, work.keys.size());
  const std::size_t kill_at =
      std::max(work.keys.size() / 4, first_on_shard0 + 1);

  std::vector<std::future<FleetResult>> futures;
  for (std::size_t i = 0; i < work.keys.size(); ++i) {
    futures.push_back(
        fleet.submit(work.keys[i], /*tenant=*/0, work.frames[i].data()));
    if (i == kill_at) {
      while (fleet.stats().shards[0].served == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      fleet.kill_shard(0);  // SIGKILL mid-stream
    }
  }
  // Every future still resolves — the respawned shard replays the ring
  // tail — and the replayed arithmetic is still bit-identical.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const FleetResult r = futures[i].get();
    EXPECT_EQ(r.prediction.label, reference[i].label) << "frame " << i;
    EXPECT_EQ(r.prediction.margin, reference[i].margin) << "frame " << i;
  }

  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.respawns, 1u);
  ASSERT_FALSE(stats.recovery_ready_ms.empty());
  for (const double ms : stats.recovery_ready_ms) {
    EXPECT_LT(ms, 250.0) << "respawn took too long";
  }
  bool respawned_epoch = false;
  for (const ShardReport& shard : stats.shards) {
    respawned_epoch |= shard.epoch > 1;
  }
  EXPECT_TRUE(respawned_epoch);

  // The supervisor extracted the dead incarnation's flight recorder
  // before the respawn overwrote the shm rings: the post-mortem must
  // name the killed shard and reconstruct its in-flight batches.
  ASSERT_FALSE(stats.postmortems.empty());
  const std::string& postmortem = stats.postmortems.front();
  EXPECT_NE(postmortem.find("fleet: shard 0"), std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("shard.batch.begin"), std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("seq="), std::string::npos) << postmortem;
  fleet.shutdown();
}

// One frame through a 2-shard fleet with a 2-rung ladder must yield a
// single connected trace: the same trace id on the coordinator's submit
// span, the ring-push instant, the shard's batch span, the pipeline's
// per-rung span, and the completion instant — across the fork boundary,
// merged into one Chrome trace by dump_trace().
TEST(Fleet, OneFrameYieldsOneConnectedTraceAcrossTheForkBoundary) {
  SKIP_UNDER_TSAN();
  TraceModeGuard trace(obs::TraceMode::kAll);
  FleetConfig cfg = small_config(2);
  cfg.bundle_path = ladder_bundle_path();
  FleetCoordinator fleet(cfg);
  const Workload work = make_workload(1, 1);

  const FleetResult r =
      fleet.submit(work.keys[0], /*tenant=*/2, work.frames[0].data()).get();
  EXPECT_FALSE(r.deadline_dropped);
  ASSERT_NE(r.prediction.trace_id, 0u);  // the minted id rode the wire back

  const std::string path = "test_fleet_connected_trace.json";
  ASSERT_TRUE(fleet.dump_trace(path));
  fleet.shutdown();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());

  // Every event is one line of the dump; a span belongs to our trace iff
  // its line carries our trace_id arg.
  const std::string id_arg =
      "\"trace_id\":" + std::to_string(r.prediction.trace_id);
  const auto has_span_with_id = [&](const char* name) {
    std::istringstream lines(json);
    std::string line;
    const std::string name_key = std::string("\"name\":\"") + name + "\"";
    while (std::getline(lines, line)) {
      if (line.find(name_key) != std::string::npos &&
          line.find(id_arg) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_span_with_id("coord.submit")) << json;
  EXPECT_TRUE(has_span_with_id("ring.push")) << json;
  EXPECT_TRUE(has_span_with_id("shard.batch")) << json;
  EXPECT_TRUE(has_span_with_id("pipeline.rung")) << json;
  EXPECT_TRUE(has_span_with_id("coord.complete")) << json;

  // The merged dump has a coordinator lane and shard lanes.
  EXPECT_NE(json.find("\"name\":\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard 1\""), std::string::npos);
}

TEST(Fleet, TenantQuotaRejectsAtAdmission) {
  SKIP_UNDER_TSAN();
  FleetConfig cfg = small_config(1);
  cfg.tenant_quota[5] = 0;  // tenant 5 may have nothing in flight
  FleetCoordinator fleet(cfg);
  const Workload work = make_workload(2, 1);

  bool threw = false;
  try {
    (void)fleet.submit(work.keys[0], /*tenant=*/5, work.frames[0].data());
  } catch (const FleetRejectError& e) {
    threw = true;
    EXPECT_EQ(e.reason(), FleetRejectError::Reason::kTenantQuota);
  }
  EXPECT_TRUE(threw);

  // Other tenants are unaffected.
  auto ok = fleet.submit(work.keys[1], /*tenant=*/1, work.frames[1].data());
  EXPECT_GE(ok.get().prediction.label, 0);

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.rejected_quota, 1u);
  EXPECT_EQ(stats.completed, 1u);
  fleet.shutdown();
}

TEST(Fleet, HardDeadlineFramesDropWhenStale) {
  SKIP_UNDER_TSAN();
  FleetCoordinator fleet(small_config(1));
  const Workload work = make_workload(8, 1);

  // A deadline far in the past relative to any queueing: submit with a
  // microscopic budget, then give the shard time — every frame must come
  // back marked dropped, with no compute spent on it.
  std::vector<std::future<FleetResult>> futures;
  for (std::size_t i = 0; i < work.keys.size(); ++i) {
    futures.push_back(fleet.submit(work.keys[i], /*tenant=*/0,
                                   work.frames[i].data(),
                                   SloClass::kHardDeadline,
                                   /*deadline_ms=*/0.000001));
  }
  long dropped = 0;
  for (auto& future : futures) {
    const FleetResult r = future.get();
    if (r.deadline_dropped) ++dropped;
  }
  // Timing-dependent: the first batch may beat the deadline, but under a
  // 1 us budget at least some frames must be shed.
  EXPECT_GT(dropped, 0);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deadline_dropped, static_cast<std::uint64_t>(dropped));
  // Dropped frames are excluded from the latency distribution.
  EXPECT_EQ(stats.fleet_latency.count(),
            work.keys.size() - static_cast<std::size_t>(dropped));
  fleet.shutdown();
}

TEST(Fleet, DegradeTolerantBacklogGetsTheReducedRungCap) {
  SKIP_UNDER_TSAN();
  FleetConfig cfg = small_config(1);
  cfg.degrade_watermark = 2;  // trip the degrade path almost immediately
  cfg.degraded_rung_cap = 0;
  FleetCoordinator fleet(cfg);
  const Workload work = make_workload(32, 1);

  std::vector<std::future<FleetResult>> futures;
  for (std::size_t i = 0; i < work.keys.size(); ++i) {
    futures.push_back(fleet.submit(work.keys[i], /*tenant=*/0,
                                   work.frames[i].data(),
                                   SloClass::kDegradeTolerant));
  }
  long capped = 0;
  for (auto& future : futures) {
    const FleetResult r = future.get();
    if (r.prediction.rung_cap != runtime::Servable::kUncappedRung) ++capped;
  }
  // With a watermark of 2 and a burst of 32, the ring must have been
  // backlogged for most submissions.
  EXPECT_GT(capped, 0);
  fleet.shutdown();
}

TEST(Fleet, ShutdownDrainsEveryAcceptedFrameAndIsIdempotent) {
  SKIP_UNDER_TSAN();
  const Workload work = make_workload(12, 4);
  const std::vector<runtime::Prediction> reference =
      reference_predictions(work);
  FleetConfig cfg = small_config(2);
  cfg.respawn = false;
  FleetCoordinator fleet(cfg);
  std::vector<std::future<FleetResult>> futures;
  for (std::size_t i = 0; i < work.keys.size(); ++i) {
    futures.push_back(
        fleet.submit(work.keys[i], /*tenant=*/0, work.frames[i].data()));
  }
  // Shut down while frames are still queued on live shards: the drain
  // must serve every one of them, none lost, failed or answered twice.
  fleet.shutdown();
  fleet.shutdown();  // idempotent
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const FleetResult r = futures[i].get();
    EXPECT_EQ(r.prediction.label, reference[i].label) << "frame " << i;
    EXPECT_EQ(r.prediction.margin, reference[i].margin) << "frame " << i;
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, work.keys.size());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_THROW((void)fleet.submit(work.keys[0], 0, work.frames[0].data()),
               std::runtime_error);
}

TEST(Fleet, StatsReportPerShardFootprint) {
  SKIP_UNDER_TSAN();
  FleetCoordinator fleet(small_config(2));
  const Workload work = make_workload(8, 1);
  std::vector<std::future<FleetResult>> futures;
  for (std::size_t i = 0; i < work.keys.size(); ++i) {
    futures.push_back(
        fleet.submit(work.keys[i], /*tenant=*/static_cast<std::uint32_t>(i % 2),
                     work.frames[i].data()));
  }
  for (auto& future : futures) (void)future.get();
  const FleetStats stats = fleet.stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  for (const ShardReport& shard : stats.shards) {
    EXPECT_TRUE(shard.alive);
    EXPECT_GT(shard.pid, 0);
    EXPECT_GT(shard.heartbeat, 0u);
    EXPECT_GT(shard.peak_rss_bytes, 0u);  // a live process has a footprint
  }
  EXPECT_EQ(stats.shards[0].served + stats.shards[1].served,
            work.keys.size());
  // Per-tenant histograms merge to the fleet distribution.
  std::uint64_t tenant_total = 0;
  for (const auto& [tenant, histogram] : stats.tenant_latency) {
    tenant_total += histogram.count();
  }
  EXPECT_EQ(tenant_total, stats.fleet_latency.count());
  fleet.shutdown();
}

TEST(Fleet, IdleFleetStaysParked) {
  SKIP_UNDER_TSAN();
  // An idle fleet sleeps instead of polling: every waiting thread parks on
  // a doorbell its producer rings, so over 200 ms of idle only the
  // supervisor's 10 ms tick and the parks' 20 ms lost-wake backstops wake
  // anything (~30 coordinator and ~10 shard switches). These are counts,
  // not times: a sleep or a timed park never ends early, so a slow or
  // loaded host cannot raise them.
  FleetCoordinator fleet(small_config(2));
  const Workload work = make_workload(8, 1);
  std::vector<std::future<FleetResult>> futures;
  for (std::size_t i = 0; i < work.keys.size(); ++i) {
    futures.push_back(
        fleet.submit(work.keys[i], /*tenant=*/0, work.frames[i].data()));
  }
  for (auto& future : futures) (void)future.get();
  for (bool serving = false; !serving;) {
    serving = true;
    for (const ShardReport& shard : fleet.stats().shards) {
      serving &= shard.epoch >= 1;
    }
    if (!serving) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // A parked shard does not refresh the counters in its status words, so
  // the shards' switches are read from /proc.
  std::vector<std::int32_t> pids;
  std::vector<std::uint64_t> shard_before;
  for (const ShardReport& shard : fleet.stats().shards) {
    pids.push_back(shard.pid);
    shard_before.push_back(voluntary_switches(shard.pid));
  }
  const std::uint64_t coordinator_before = own_voluntary_switches();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(own_voluntary_switches() - coordinator_before, 150u)
      << "coordinator";
  for (std::size_t i = 0; i < pids.size(); ++i) {
    EXPECT_LT(voluntary_switches(pids[i]) - shard_before[i], 50u)
        << "shard " << i;
  }
  fleet.shutdown();
}

TEST(Fleet, RegisterMetricsExportsEveryFamilyAndCountsCompletions) {
  SKIP_UNDER_TSAN();
  FleetCoordinator fleet(small_config(2));
  obs::MetricsRegistry registry;  // destroyed first: its views read `fleet`
  fleet.register_metrics(registry);

  const std::vector<std::string> shard_gauges = {
      "scbnn_fleet_shard_heartbeat",
      "scbnn_fleet_shard_served",
      "scbnn_fleet_shard_peak_rss_bytes",
      "scbnn_fleet_shard_vol_ctx_switches",
      "scbnn_fleet_shard_invol_ctx_switches",
      "scbnn_fleet_shard_cpu_utime_seconds",
      "scbnn_fleet_shard_cpu_stime_seconds",
      "scbnn_fleet_shard_epoch",
      "scbnn_fleet_shard_alive",
      "scbnn_fleet_shard_request_ring_depth",
  };
  std::set<std::string> expected = {
      "scbnn_fleet_submitted_total",
      "scbnn_fleet_completed_total",
      "scbnn_fleet_rejected_quota_total",
      "scbnn_fleet_rejected_backpressure_total",
      "scbnn_fleet_duplicates_total",
      "scbnn_fleet_deadline_dropped_total",
      "scbnn_fleet_respawns_total",
      "scbnn_fleet_wedged_events_total",
      "scbnn_fleet_energy_joules",
      "scbnn_fleet_e2e_latency_ms",
  };
  expected.insert(shard_gauges.begin(), shard_gauges.end());

  // The family set is the exposition's "# TYPE" lines.
  const std::string text = registry.prometheus();
  std::set<std::string> families;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      families.insert(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  EXPECT_EQ(families, expected);
  // Every shard gauge has one series per shard.
  for (const std::string& name : shard_gauges) {
    for (const char* shard : {"0", "1"}) {
      EXPECT_NE(text.find(name + "{shard=\"" + shard + "\"} "),
                std::string::npos)
          << name << " shard " << shard;
    }
  }

  const Workload work = make_workload(8, 1);
  std::vector<std::future<FleetResult>> futures;
  for (std::size_t i = 0; i < work.keys.size(); ++i) {
    futures.push_back(
        fleet.submit(work.keys[i], /*tenant=*/0, work.frames[i].data()));
  }
  for (auto& future : futures) (void)future.get();
  EXPECT_NE(registry.prometheus().find("scbnn_fleet_completed_total 8\n"),
            std::string::npos)
      << registry.prometheus();
  fleet.shutdown();
}

}  // namespace
}  // namespace scbnn::fleet
