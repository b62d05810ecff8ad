// Executor tests: lifecycle and exception safety of the parallel_for
// contract, the concurrency contract (concurrent parallel_for callers,
// exception mid-steal, shutdown racing callers), bit identity of the fast
// SC backends' features across worker counts, the zero-allocation
// guarantee of the parallel_for hot path, and per-worker stat aggregation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
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
#include "runtime/executor.h"

#include "counting_allocator.h"

namespace scbnn::runtime {
namespace {

// ----------------------------------------------------- lifecycle contract

TEST(Executor, ParallelForCoversEveryJobOnceWithValidSlots) {
  Executor pool(4);
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

TEST(Executor, ParallelForZeroJobsIsANoOp) {
  Executor pool(2);
  pool.parallel_for(0, [](int, unsigned) { FAIL() << "must not run"; });
}

TEST(Executor, ParallelForAfterShutdownThrowsClearly) {
  for (unsigned threads : {1u, 2u}) {  // the inline path and the dispatch
    Executor pool(threads);
    std::atomic<int> counter{0};
    pool.parallel_for(4, [&counter](int, unsigned) { ++counter; });
    pool.shutdown();
    try {
      pool.parallel_for(4, [&counter](int, unsigned) { ++counter; });
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shut down"), std::string::npos);
    }
    EXPECT_EQ(counter.load(), 4) << threads << " workers";
    pool.shutdown();  // idempotent; the destructor calls it again
  }
}

TEST(Executor, NestedParallelForRunsInlineUnderWorkerSlot) {
  Executor pool(3);
  std::atomic<int> jobs_run{0};
  std::atomic<int> distinct_slots{0};
  // A one-job outer fan-out runs on a worker, never on this caller.
  pool.parallel_for(1, [&](int, unsigned outer) {
    pool.parallel_for(10, [&](int, unsigned worker) {
      if (worker != outer) distinct_slots = 1;  // inline contract broken
      ++jobs_run;
    });
  });
  EXPECT_EQ(jobs_run.load(), 10);
  EXPECT_EQ(distinct_slots.load(), 0) << "nested fan-out left its worker";
}

// --------------------------------------------------- concurrency contract

TEST(Executor, ConcurrentParallelForCallersEachSeeFullCoverage) {
  // The multi-model serving shape: several external threads fan out on one
  // shared executor at once. Every caller must observe every one of its
  // own jobs exactly once, every time.
  Executor pool(3);
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

TEST(Executor, ExceptionMidStealPropagatesAndPoolStaysUsable) {
  // Many jobs across many workers guarantee the throwing job is reachable
  // by a thief; whoever runs it, exactly that exception must surface at
  // the caller and the executor must keep serving afterwards.
  Executor pool(4);
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

TEST(Executor, FailingCallerDoesNotPoisonConcurrentCaller) {
  Executor pool(3);
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

TEST(Executor, ShutdownRacingProducersNeverLosesAdmittedWork) {
  // Four callers hammer parallel_for() while the main thread shuts the
  // executor down. Every call must either be refused with runtime_error
  // or fully honored — an admitted fan-out always runs every job.
  Executor pool(4);
  std::atomic<long> executed{0};
  std::atomic<long> admitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      try {
        for (;;) {
          std::atomic<int> n{0};
          pool.parallel_for(64, [&n](int, unsigned) { ++n; });
          if (n.load() != 64) std::abort();  // admitted fan-out half-run
          executed += n.load();
          ++admitted;
        }
      } catch (const std::runtime_error&) {
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.shutdown();
  for (auto& t : producers) t.join();
  EXPECT_EQ(executed.load(), admitted.load() * 64);
}

// ----------------------------------------------------------- bit identity

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

TEST(Executor, FeaturesBitIdenticalAcrossWorkerCounts) {
  // The determinism acceptance gate: features of the fast SC backends
  // must not depend on the worker count or on which worker ran a chunk —
  // the job->output mapping is static, stealing only moves *where* a
  // chunk runs.
  const auto qw = sample_qweights(4, 4, 21);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  cfg.seed = 21;
  const data::DataSplit split = data::generate_synthetic_mnist(23, 1, 17);

  for (const char* backend : {"sc-proposed-fast", "sc-conventional-fast"}) {
    auto features_with = [&](unsigned threads) {
      RuntimeConfig rc;
      rc.threads = threads;  // 4 workers: 23 frames -> uneven chunks
      return one_rung(backend, qw, cfg, rc)->features(split.train.images);
    };
    const nn::Tensor reference = features_with(1);
    const nn::Tensor got = features_with(4);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(got[i], reference[i]) << backend << " diverged at " << i;
    }
  }
}

// ------------------------------------------------------- zero allocations

TEST(Executor, ParallelForAllocatesNothingOnSingleWorker) {
  // The single-frame serving path: a 1-worker executor must fan out with
  // zero heap traffic per call (the inline path touches no queue, no
  // ForOp frame, no std::function).
  Executor pool(1);
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

TEST(Executor, ParallelForAllocatesNothingOnWarmMultiWorker) {
  // The multi-worker dispatch reuses pooled ForOp frames: once warm, a
  // fan-out must allocate nothing — caller side or worker side.
  Executor pool(2);
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

TEST(Executor, StatsCountersAreCoherent) {
  Executor pool(4);
  constexpr int kFors = 12;
  std::atomic<int> n{0};
  for (int rep = 0; rep < kFors; ++rep) {
    pool.parallel_for(40, [&n](int, unsigned) { ++n; });
  }

  const ExecutorStats s = pool.stats();
  EXPECT_EQ(s.workers, 4u);
  EXPECT_GE(s.parallel_fors, static_cast<std::uint64_t>(kFors));
  EXPECT_GT(s.chunks_run, 0u);
  EXPECT_LE(s.steals, s.steal_attempts);
  EXPECT_GE(s.steal_success_rate(), 0.0);
  EXPECT_LE(s.steal_success_rate(), 1.0);
}

TEST(Executor, ServableExposesExecutorStats) {
  const auto qw = sample_qweights(3, 4, 9);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 13);

  RuntimeConfig rc;
  rc.threads = 2;
  rc.executor = std::make_shared<Executor>(2);
  const auto pipeline = one_rung("sc-proposed", qw, cfg, rc);
  (void)pipeline->features(split.train.images);
  const ExecutorStats s = pipeline->executor_stats();
  EXPECT_EQ(s.workers, 2u);
  EXPECT_GT(s.parallel_fors, 0u);
  EXPECT_GT(s.chunks_run, 0u);
}

}  // namespace
}  // namespace scbnn::runtime
