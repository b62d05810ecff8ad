// WorkStealingExecutor tests: lifecycle and exception safety of the
// Executor contract, the concurrency contract (concurrent
// parallel_for callers, exception mid-steal, shutdown racing stealers),
// steal-on/off bit identity across the fast SC backends, the
// zero-allocation guarantee of the parallel_for hot path, per-worker stat
// aggregation, and the pure topology/pin-plan layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic_mnist.h"
#include "hybrid/first_layer.h"
#include "hybrid/hybrid_network.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/backend_registry.h"
#include "runtime/topology.h"
#include "runtime/work_stealing_executor.h"

#include "counting_allocator.h"

namespace scbnn::runtime {
namespace {

// ----------------------------------------------------- lifecycle contract

TEST(WorkStealingExecutor, RunsSubmittedTasks) {
  WorkStealingExecutor pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(WorkStealingExecutor, TaskExceptionSurfacesInFutureAndPoolSurvives) {
  WorkStealingExecutor pool(2);
  auto bad = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 8);
}

TEST(WorkStealingExecutor, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    WorkStealingExecutor pool(2);
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 32);
}

TEST(WorkStealingExecutor, ParallelForCoversEveryJobOnceWithValidSlots) {
  WorkStealingExecutor pool(4);
  constexpr int kJobs = 123;
  std::vector<std::atomic<int>> hits(kJobs);
  pool.parallel_for(kJobs, [&](int job, unsigned worker) {
    ASSERT_LT(worker, pool.size());
    hits[static_cast<std::size_t>(job)]++;
  });
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "job " << i;
  }
}

TEST(WorkStealingExecutor, ParallelForZeroJobsIsANoOp) {
  WorkStealingExecutor pool(2);
  pool.parallel_for(0, [](int, unsigned) { FAIL() << "must not run"; });
}

TEST(WorkStealingExecutor, SubmitAndParallelForAfterShutdownThrowClearly) {
  WorkStealingExecutor pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; }).get();
  pool.shutdown();
  try {
    (void)pool.submit([&counter] { ++counter; });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shut down"), std::string::npos);
  }
  EXPECT_THROW(pool.parallel_for(4, [](int, unsigned) {}),
               std::runtime_error);
  EXPECT_EQ(counter.load(), 1);
  pool.shutdown();  // idempotent; the destructor calls it again
}

TEST(WorkStealingExecutor, SingleWorkerRunsSubmitInlineWithResolvedFuture) {
  WorkStealingExecutor pool(1);
  std::thread::id ran_on;
  auto f = pool.submit([&ran_on] { ran_on = std::this_thread::get_id(); });
  // The documented size()==1 fast path: no queue round-trip — the task
  // already ran, on the calling thread, and the future is resolved.
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  // Exceptions still land in the future, not on the submit call.
  auto bad = pool.submit([] { throw std::runtime_error("inline boom"); });
  EXPECT_EQ(bad.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_THROW(bad.get(), std::runtime_error);

  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

TEST(WorkStealingExecutor, NestedParallelForRunsInlineUnderWorkerSlot) {
  WorkStealingExecutor pool(3);
  std::atomic<int> jobs_run{0};
  std::atomic<int> distinct_slots{0};
  pool.submit([&] {
        std::atomic<unsigned> first_slot{~0u};
        pool.parallel_for(10, [&](int, unsigned worker) {
          unsigned expect = ~0u;
          if (!first_slot.compare_exchange_strong(expect, worker) &&
              expect != worker) {
            distinct_slots = 1;  // inline contract broken
          }
          ++jobs_run;
        });
      })
      .get();
  EXPECT_EQ(jobs_run.load(), 10);
  EXPECT_EQ(distinct_slots.load(), 0) << "nested fan-out left its worker";
}

TEST(WorkStealingExecutor, SubmitFromWorkerTaskRuns) {
  WorkStealingExecutor pool(2);
  std::atomic<int> inner_ran{0};
  pool.submit([&] { (void)pool.submit([&inner_ran] { ++inner_ran; }); })
      .get();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (inner_ran.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(inner_ran.load(), 1);
}

// --------------------------------------------------- concurrency contract

TEST(WorkStealingExecutor, ConcurrentParallelForCallersEachSeeFullCoverage) {
  // The multi-model serving shape: several external threads fan out on one
  // shared executor at once. Every caller must observe every one of its
  // own jobs exactly once, every time.
  WorkStealingExecutor pool(3);
  constexpr int kCallers = 4;
  constexpr int kReps = 25;
  constexpr int kJobs = 57;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &failures] {
      std::vector<int> hits(kJobs);
      for (int rep = 0; rep < kReps; ++rep) {
        std::fill(hits.begin(), hits.end(), 0);
        pool.parallel_for(kJobs,
                          [&hits](int job, unsigned) { ++hits[job]; });
        for (int j = 0; j < kJobs; ++j) {
          if (hits[j] != 1) ++failures;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(WorkStealingExecutor, ExceptionMidStealPropagatesAndPoolStaysUsable) {
  // Many jobs across many workers guarantee the throwing job is reachable
  // by a thief; whoever runs it, exactly that exception must surface at
  // the caller and the executor must keep serving afterwards.
  WorkStealingExecutor pool(4);
  for (int rep = 0; rep < 5; ++rep) {
    try {
      pool.parallel_for(400, [](int job, unsigned) {
        if (job == 217) throw std::invalid_argument("job 217");
      });
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("217"), std::string::npos);
    }
  }
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](int, unsigned) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(WorkStealingExecutor, FailingCallerDoesNotPoisonConcurrentCaller) {
  WorkStealingExecutor pool(3);
  std::atomic<int> clean_failures{0};
  std::thread chaos([&pool] {
    for (int rep = 0; rep < 20; ++rep) {
      try {
        pool.parallel_for(120, [](int job, unsigned) {
          if (job % 17 == 3) throw std::runtime_error("chaos");
        });
      } catch (const std::runtime_error&) {
      }
    }
  });
  std::thread clean([&pool, &clean_failures] {
    for (int rep = 0; rep < 20; ++rep) {
      try {
        std::atomic<int> n{0};
        pool.parallel_for(90, [&n](int, unsigned) { ++n; });
        if (n.load() != 90) ++clean_failures;
      } catch (...) {
        ++clean_failures;  // a neighbor's exception leaked into this op
      }
    }
  });
  chaos.join();
  clean.join();
  EXPECT_EQ(clean_failures.load(), 0);
}

TEST(WorkStealingExecutor, ShutdownRacingProducersNeverLosesAdmittedWork) {
  // Producers hammer submit()/parallel_for() while the main thread shuts
  // the executor down. Every call must either be refused with
  // runtime_error or fully honored — an admitted future always resolves.
  WorkStealingExecutor pool(4);
  std::atomic<long> executed{0};
  std::atomic<long> admitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      std::vector<std::future<void>> futures;
      try {
        for (;;) {
          futures.push_back(pool.submit([&executed] { ++executed; }));
          ++admitted;
        }
      } catch (const std::runtime_error&) {
      }
      for (auto& f : futures) f.get();  // must not hang or rethrow
    });
  }
  producers.emplace_back([&] {
    try {
      for (;;) {
        std::atomic<int> n{0};
        pool.parallel_for(64, [&n](int, unsigned) { ++n; });
        if (n.load() != 64) std::abort();  // admitted fan-out half-run
      }
    } catch (const std::runtime_error&) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.shutdown();
  for (auto& t : producers) t.join();
  EXPECT_EQ(executed.load(), admitted.load());
}

// ------------------------------------------------------- steal on/off knob

TEST(WorkStealingExecutor, StealEnvToggleIsRespected) {
  ASSERT_EQ(setenv("SCBNN_STEAL", "off", 1), 0);
  EXPECT_FALSE(WorkStealingExecutor(2).stealing_enabled());
  ASSERT_EQ(setenv("SCBNN_STEAL", "0", 1), 0);
  EXPECT_FALSE(WorkStealingExecutor(2).stealing_enabled());
  ASSERT_EQ(setenv("SCBNN_STEAL", "on", 1), 0);
  EXPECT_TRUE(WorkStealingExecutor(2).stealing_enabled());
  ASSERT_EQ(unsetenv("SCBNN_STEAL"), 0);
  EXPECT_TRUE(WorkStealingExecutor(2).stealing_enabled());
  // An explicit Options::steal wins over the environment.
  ASSERT_EQ(setenv("SCBNN_STEAL", "off", 1), 0);
  WorkStealingExecutor::Options opt;
  opt.threads = 2;
  opt.steal = true;
  EXPECT_TRUE(WorkStealingExecutor(opt).stealing_enabled());
  ASSERT_EQ(unsetenv("SCBNN_STEAL"), 0);
}

nn::QuantizedConvWeights sample_qweights(int kernels, unsigned bits,
                                         std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor w({kernels, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  return nn::quantize_conv_weights(w, bits);
}

/// A one-rung pipeline over a registry backend, with a small tail (the
/// feature-level tests below never run it).
std::unique_ptr<AdaptivePipeline> one_rung(const std::string& backend,
                                           const nn::QuantizedConvWeights& qw,
                                           const hybrid::FirstLayerConfig& cfg,
                                           RuntimeConfig rc) {
  nn::Rng rng(99);
  return std::make_unique<AdaptivePipeline>(
      BackendRegistry::instance().create(backend, qw, cfg),
      hybrid::build_tail(
          hybrid::LeNetConfig{static_cast<int>(qw.kernels.size()), 2, 8, 0.0f},
          rng),
      std::move(rc));
}

TEST(WorkStealingExecutor, StealOnOffBitIdenticalAcrossFastBackends) {
  // The determinism acceptance gate: predictions of the fast SC backends
  // must not depend on whether chunks were stolen — the job->output
  // mapping is static, stealing only moves *where* a chunk runs.
  const auto qw = sample_qweights(4, 4, 21);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  cfg.seed = 21;
  const data::DataSplit split = data::generate_synthetic_mnist(23, 1, 17);

  for (const char* backend : {"sc-proposed-fast", "sc-conventional-fast"}) {
    auto features_with = [&](bool steal, unsigned threads) {
      WorkStealingExecutor::Options opt;
      opt.threads = threads;
      opt.steal = steal;
      RuntimeConfig rc;
      rc.threads = threads;
      rc.chunk_images = 3;  // 23 images -> uneven chunks
      rc.executor = std::make_shared<WorkStealingExecutor>(opt);
      return one_rung(backend, qw, cfg, rc)->features(split.train.images);
    };
    const nn::Tensor reference = features_with(false, 1);
    for (bool steal : {false, true}) {
      const nn::Tensor got = features_with(steal, 4);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(got[i], reference[i])
            << backend << " steal=" << steal << " diverged at " << i;
      }
    }
  }
}

// ------------------------------------------------------- zero allocations

TEST(WorkStealingExecutor, ParallelForAllocatesNothingOnSingleWorker) {
  // The single-frame serving path: a 1-worker executor must fan out with
  // zero heap traffic per call (the inline path touches no queue, no
  // TaskNode, no std::function).
  WorkStealingExecutor pool(1);
  long sum = 0;
  pool.parallel_for(8, [&](int job, unsigned) { sum += job; });  // warm up
  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 100; ++rep) {
    pool.parallel_for(64, [&](int job, unsigned) { sum += job; });
  }
  const long long delta =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0) << "inline parallel_for allocated";
  EXPECT_GT(sum, 0);
}

TEST(WorkStealingExecutor, ParallelForAllocatesNothingOnWarmMultiWorker) {
  // The multi-worker dispatch reuses pooled ForOp frames: once warm, a
  // fan-out must allocate nothing — caller side or worker side.
  WorkStealingExecutor pool(2);
  std::atomic<long> sum{0};
  for (int rep = 0; rep < 4; ++rep) {
    pool.parallel_for(32, [&](int job, unsigned) { sum += job; });
  }
  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 100; ++rep) {
    pool.parallel_for(32, [&](int job, unsigned) { sum += job; });
  }
  const long long delta =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0) << "warm multi-worker parallel_for allocated";
}

// ------------------------------------------------------------------ stats

TEST(WorkStealingExecutor, StatsCountersAreCoherent) {
  WorkStealingExecutor pool(4);
  constexpr int kTasks = 24;
  constexpr int kFors = 12;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();
  std::atomic<int> n{0};
  for (int rep = 0; rep < kFors; ++rep) {
    pool.parallel_for(40, [&n](int, unsigned) { ++n; });
  }

  const ExecutorStats s = pool.stats();
  EXPECT_EQ(s.workers, 4u);
  EXPECT_EQ(s.tasks_run, static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(s.parallel_fors, static_cast<std::uint64_t>(kFors));
  EXPECT_GT(s.chunks_run, 0u);
  EXPECT_LE(s.steals, s.steal_attempts);
  EXPECT_GE(s.steal_success_rate(), 0.0);
  EXPECT_LE(s.steal_success_rate(), 1.0);
  EXPECT_GE(s.queue_high_water, 1u);  // kTasks queued against 4 workers
}

TEST(WorkStealingExecutor, ServableExposesExecutorStats) {
  const auto qw = sample_qweights(3, 4, 9);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 13);

  RuntimeConfig rc;
  rc.threads = 2;
  rc.executor = make_shared_executor(2);
  const auto pipeline = one_rung("sc-proposed", qw, cfg, rc);
  (void)pipeline->features(split.train.images);
  const ExecutorStats s = pipeline->executor_stats();
  EXPECT_EQ(s.workers, 2u);
  EXPECT_GT(s.parallel_fors, 0u);
  EXPECT_GT(s.chunks_run, 0u);
}

TEST(WorkStealingExecutor, MakeSharedExecutorIsWorkStealing) {
  const auto executor = make_shared_executor(2);
  ASSERT_NE(executor, nullptr);
  EXPECT_EQ(executor->size(), 2u);
  EXPECT_NE(dynamic_cast<WorkStealingExecutor*>(executor.get()), nullptr);
  EXPECT_EQ(make_shared_executor()->size(), Executor::resolve_threads(0));
}

// --------------------------------------------------------------- topology

TEST(Topology, ParseCpuListHandlesRangesAndGarbage) {
  EXPECT_EQ(parse_cpu_list("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list("5"), (std::vector<int>{5}));
  EXPECT_EQ(parse_cpu_list(""), (std::vector<int>{}));
  // Malformed chunks are skipped, valid ones survive.
  EXPECT_EQ(parse_cpu_list("x,2-1,4,-3"), (std::vector<int>{4}));
}

TEST(Topology, PinModeStringsRoundTripAndReject) {
  for (PinMode mode : {PinMode::kOff, PinMode::kAuto, PinMode::kCompact,
                       PinMode::kScatter}) {
    EXPECT_EQ(pin_mode_from_string(to_string(mode)), mode);
  }
  EXPECT_THROW((void)pin_mode_from_string("numa"), std::invalid_argument);
  EXPECT_THROW((void)pin_mode_from_string(""), std::invalid_argument);
}

TEST(Topology, PinModeFromEnvWarnsAndDefaultsOff) {
  ASSERT_EQ(setenv("SCBNN_PIN", "scatter", 1), 0);
  EXPECT_EQ(pin_mode_from_env(), PinMode::kScatter);
  ASSERT_EQ(setenv("SCBNN_PIN", "not-a-mode", 1), 0);
  EXPECT_EQ(pin_mode_from_env(), PinMode::kOff);  // warn, keep default
  ASSERT_EQ(unsetenv("SCBNN_PIN"), 0);
  EXPECT_EQ(pin_mode_from_env(), PinMode::kOff);
}

/// 2 packages x 2 physical cores x 2 SMT threads. Kernel cpu ids are laid
/// out the common x86 way: primaries 0..3 first, SMT siblings 4..7.
CpuTopology dual_socket_smt() {
  CpuTopology topo;
  topo.cpus = {
      {0, 0, 0}, {1, 1, 0}, {2, 0, 1}, {3, 1, 1},  // one thread per core
      {4, 0, 0}, {5, 1, 0}, {6, 0, 1}, {7, 1, 1},  // their SMT siblings
  };
  return topo;
}

TEST(Topology, SyntheticTopologyCounts) {
  const CpuTopology topo = dual_socket_smt();
  EXPECT_EQ(topo.physical_cores(), 4u);
  EXPECT_EQ(topo.packages(), 2u);
}

TEST(Topology, CompactPlanFillsCoresBeforeSiblings) {
  const CpuTopology topo = dual_socket_smt();
  // Package 0's cores first, then package 1's — siblings only after every
  // physical core already has a worker.
  EXPECT_EQ(pin_plan(topo, 4, PinMode::kCompact),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(pin_plan(topo, 6, PinMode::kCompact),
            (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // More workers than cpus: the plan wraps so every worker has a target.
  EXPECT_EQ(pin_plan(topo, 10, PinMode::kCompact),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 0, 1}));
}

TEST(Topology, ScatterPlanRoundRobinsPackages) {
  const CpuTopology topo = dual_socket_smt();
  // Alternate packages: worker 0 -> package 0, worker 1 -> package 1, ...
  EXPECT_EQ(pin_plan(topo, 4, PinMode::kScatter),
            (std::vector<int>{0, 2, 1, 3}));
  EXPECT_EQ(pin_plan(topo, 2, PinMode::kScatter), (std::vector<int>{0, 2}));
}

TEST(Topology, AutoPlanDeclinesWhenWorkersExceedPhysicalCores) {
  const CpuTopology topo = dual_socket_smt();
  EXPECT_EQ(pin_plan(topo, 4, PinMode::kAuto),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(pin_plan(topo, 5, PinMode::kAuto).empty());
  EXPECT_TRUE(pin_plan(topo, 4, PinMode::kOff).empty());
  EXPECT_TRUE(pin_plan(CpuTopology{}, 4, PinMode::kCompact).empty());
}

TEST(Topology, ExecutorWithPinningStillServes) {
  // On any machine the compact plan over the real topology is a valid
  // affinity target per worker; pinning failures are best-effort no-ops,
  // so the executor must work regardless.
  WorkStealingExecutor::Options opt;
  opt.threads = 2;
  opt.pin = PinMode::kCompact;
  WorkStealingExecutor pool(opt);
  EXPECT_EQ(pool.pin_mode(), PinMode::kCompact);
  EXPECT_EQ(pool.pin_targets().size(), 2u);
  for (int cpu : pool.pin_targets()) EXPECT_GE(cpu, 0);
  std::atomic<int> n{0};
  pool.parallel_for(50, [&n](int, unsigned) { ++n; });
  EXPECT_EQ(n.load(), 50);

  WorkStealingExecutor unpinned(2);
  EXPECT_EQ(unpinned.pin_mode(), PinMode::kOff);
  EXPECT_TRUE(unpinned.pin_targets().empty());
}

}  // namespace
}  // namespace scbnn::runtime
