// Request-level serving core tests: bit identity between Server-coalesced
// requests and direct Servable batch calls (both backends, several thread
// counts), max_delay_us expiry dispatching partial batches, reject-not-block
// admission control, drained graceful shutdown, per-request accounting, the
// registry views, and several Servers sharing one executor.
#include "runtime/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic_mnist.h"
#include "hybrid/experiment.h"
#include "hybrid/hybrid_network.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "obs/metrics.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/backend_registry.h"

namespace scbnn::runtime {
namespace {

constexpr std::size_t kPixels =
    static_cast<std::size_t>(hybrid::kImageSize) * hybrid::kImageSize;

hybrid::LeNetConfig tiny_lenet() {
  hybrid::LeNetConfig cfg;
  cfg.conv1_kernels = 8;
  cfg.conv2_kernels = 8;
  cfg.dense_units = 32;
  cfg.dropout = 0.0f;
  return cfg;
}

/// Fixed-precision Servable at `bits`: engine + tail from a shared
/// deterministic base model. Two calls with the same arguments build
/// bit-identical backends; different `bits` give distinguishable models.
std::unique_ptr<AdaptivePipeline> make_backend(unsigned bits,
                                               RuntimeConfig rc = {}) {
  nn::Rng base_rng(3);
  nn::Network base = hybrid::build_lenet(tiny_lenet(), base_rng);
  const auto qw =
      nn::quantize_conv_weights(hybrid::base_conv1_weights(base), bits);
  hybrid::FirstLayerConfig flc;
  flc.bits = bits;
  flc.soft_threshold = 0.3;
  rc.chunk_images = 3;
  nn::Rng tail_rng(7);
  nn::Network tail = hybrid::build_tail(tiny_lenet(), tail_rng);
  hybrid::copy_tail_params(base, tail);
  return std::make_unique<AdaptivePipeline>(
      BackendRegistry::instance().create("sc-proposed", qw, flc),
      std::move(tail), rc);
}

/// The 4-bit model of make_backend on a private pool of `threads` workers.
std::unique_ptr<AdaptivePipeline> make_engine_backend(unsigned threads) {
  RuntimeConfig rc;
  rc.threads = threads;
  return make_backend(4, rc);
}

nn::Tensor test_frames(int n) {
  return data::generate_synthetic_mnist(static_cast<std::size_t>(n), 1, 99)
      .train.images;
}

/// Two-rung adaptive Servable from the same deterministic base model.
std::unique_ptr<AdaptivePipeline> make_adaptive_backend(unsigned threads) {
  nn::Rng base_rng(3);
  nn::Network base = hybrid::build_lenet(tiny_lenet(), base_rng);
  std::vector<AdaptiveRung> rungs;
  for (unsigned bits : {3u, 6u}) {
    AdaptiveRung rung;
    rung.bits = bits;
    const auto qw =
        nn::quantize_conv_weights(hybrid::base_conv1_weights(base), bits);
    hybrid::FirstLayerConfig flc;
    flc.bits = bits;
    flc.soft_threshold = 0.3;
    rung.engine = hybrid::make_first_layer_engine(
        hybrid::FirstLayerDesign::kScProposed, qw, flc);
    nn::Rng tail_rng(7);
    rung.tail = hybrid::build_tail(tiny_lenet(), tail_rng);
    hybrid::copy_tail_params(base, rung.tail);
    rungs.push_back(std::move(rung));
  }
  RuntimeConfig rc;
  rc.threads = threads;
  rc.chunk_images = 3;
  return std::make_unique<AdaptivePipeline>(std::move(rungs), 0.5, rc);
}

/// Test double that parks inside classify() until released, so tests can
/// pin the batch former mid-dispatch and probe queue admission.
class BlockingServable : public Servable {
 public:
  ServeStats classify(const float* /*images*/, int n,
                      Prediction* out) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    for (int i = 0; i < n; ++i) {
      out[i] = Prediction{};
      out[i].label = 1;
    }
    ServeStats stats;
    stats.images = n;
    return stats;
  }
  [[nodiscard]] std::string name() const override { return "blocking"; }
  [[nodiscard]] unsigned threads() const noexcept override { return 1; }

  void wait_until_entered(int times) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, times] { return entered_ >= times; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

class ThrowingServable : public Servable {
 public:
  ServeStats classify(const float*, int, Prediction*) override {
    throw std::runtime_error("backend exploded");
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] unsigned threads() const noexcept override { return 1; }
};

std::vector<std::future<Prediction>> submit_all(Server& server,
                                                const nn::Tensor& images) {
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < images.dim(0); ++i) {
    futures.push_back(server.submit(images.data() +
                                    static_cast<std::size_t>(i) * kPixels));
  }
  return futures;
}

// ----------------------------------------------------------- ServerConfig

TEST(ServerConfig, ValidateRejectsNonsense) {
  EXPECT_NO_THROW(ServerConfig{}.validate());
  ServerConfig cfg;
  cfg.max_batch = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.max_batch = 4;
  cfg.max_delay_us = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.max_delay_us = 0;  // "dispatch immediately" is a valid policy
  EXPECT_NO_THROW(cfg.validate());
  cfg.max_delay_us = ServerConfig::kMaxDelayUs;  // at the cap is still fine
  EXPECT_NO_THROW(cfg.validate());
  cfg.max_delay_us = ServerConfig::kMaxDelayUs + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.max_delay_us = 0;
  cfg.queue_capacity = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // A batch that can never fill (bigger than the whole queue) is rejected:
  // the size trigger would be dead and every dispatch would wait out the
  // full delay under saturation.
  cfg.queue_capacity = 8;
  cfg.max_batch = 9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.max_batch = 8;  // exactly the capacity is fine
  EXPECT_NO_THROW(cfg.validate());
}

// ------------------------------------------------------------ RequestQueue

TEST(RequestQueue, RejectsWhenFullAndAfterClose) {
  RequestQueue queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  queue.push(Request{});
  queue.push(Request{});
  EXPECT_THROW(queue.push(Request{}), QueueFullError);
  EXPECT_EQ(queue.size(), 2u);
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_THROW(queue.push(Request{}), std::runtime_error);
}

TEST(RequestQueue, PopBatchDrainsAfterClose) {
  RequestQueue queue(8);
  queue.push(Request{});
  queue.push(Request{});
  queue.push(Request{});
  queue.close();
  // Closed queue dispatches the backlog without waiting for max_delay.
  auto batch = queue.pop_batch(2, std::chrono::microseconds(60'000'000));
  EXPECT_EQ(batch.size(), 2u);
  batch = queue.pop_batch(2, std::chrono::microseconds(60'000'000));
  EXPECT_EQ(batch.size(), 1u);
  // Closed and drained: the consumer's exit signal.
  EXPECT_TRUE(queue.pop_batch(2, std::chrono::microseconds(0)).empty());
}

// ------------------------------------------------- bit-identity (criterion a)

TEST(Server, EnginePredictionsBitIdenticalToDirectClassify) {
  const data::DataSplit split = data::generate_synthetic_mnist(13, 1, 23);
  for (unsigned threads : {1u, 3u}) {
    const auto backend = make_engine_backend(threads);
    const std::vector<Prediction> direct =
        backend->Servable::classify(split.train.images);

    // Two coalescing regimes: singleton batches and dense micro-batches.
    for (int max_batch : {1, 5}) {
      const auto fresh = make_engine_backend(threads);
      ServerConfig cfg;
      cfg.max_batch = max_batch;
      cfg.max_delay_us = 300;
      Server server(*fresh, cfg);
      auto futures = submit_all(server, split.train.images);
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const Prediction got = futures[i].get();
        EXPECT_EQ(got.label, direct[i].label) << "image " << i;
        EXPECT_EQ(got.margin, direct[i].margin) << "image " << i;
        EXPECT_EQ(got.bits_used, direct[i].bits_used);
        EXPECT_EQ(got.rung, direct[i].rung);
      }
    }
  }
}

TEST(Server, AdaptivePredictionsBitIdenticalToDirectClassify) {
  const data::DataSplit split = data::generate_synthetic_mnist(11, 1, 29);
  for (unsigned threads : {1u, 2u}) {
    const auto backend = make_adaptive_backend(threads);
    const std::vector<Prediction> direct =
        backend->Servable::classify(split.train.images);

    for (int max_batch : {1, 4}) {
      const auto fresh = make_adaptive_backend(threads);
      ServerConfig cfg;
      cfg.max_batch = max_batch;
      cfg.max_delay_us = 300;
      Server server(*fresh, cfg);
      auto futures = submit_all(server, split.train.images);
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const Prediction got = futures[i].get();
        EXPECT_EQ(got.label, direct[i].label) << "image " << i;
        EXPECT_EQ(got.margin, direct[i].margin) << "image " << i;
        EXPECT_EQ(got.rung, direct[i].rung) << "image " << i;
        EXPECT_EQ(got.bits_used, direct[i].bits_used) << "image " << i;
      }
    }
  }
}

// ------------------------------------------- delay expiry (criterion b)

TEST(Server, DelayExpiryDispatchesPartialBatches) {
  const data::DataSplit split = data::generate_synthetic_mnist(3, 1, 31);
  const auto backend = make_engine_backend(1);
  ServerConfig cfg;
  cfg.max_batch = 64;  // far more than we will ever submit
  cfg.max_delay_us = 1000;
  Server server(*backend, cfg);
  auto futures = submit_all(server, split.train.images);
  for (auto& f : futures) {
    const Prediction p = f.get();  // resolves only because the delay expired
    EXPECT_GE(p.batch_size, 1);
    EXPECT_LE(p.batch_size, 3);
    EXPECT_GE(p.queue_wait_ms, 0.0);
    EXPECT_GT(p.compute_ms, 0.0);
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_GE(stats.batches, 1);
  EXPECT_EQ(stats.batch_histogram[64], 0);  // no full batch ever formed
  long histogram_total = 0;
  for (long count : stats.batch_histogram) histogram_total += count;
  EXPECT_EQ(histogram_total, stats.batches);
}

// ------------------------------------------- admission control (criterion c)

TEST(Server, FullQueueRejectsInsteadOfBlocking) {
  BlockingServable backend;
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.max_delay_us = 0;
  cfg.queue_capacity = 2;
  Server server(backend, cfg);
  const std::vector<float> frame(kPixels, 0.5f);

  // First request is popped and pins the batch former inside classify().
  auto pinned = server.submit(frame.data());
  backend.wait_until_entered(1);
  // Now the queue itself can hold exactly two more.
  auto queued1 = server.submit(frame.data());
  auto queued2 = server.submit(frame.data());
  EXPECT_THROW((void)server.submit(frame.data()), QueueFullError);
  EXPECT_EQ(server.stats().rejected, 1);

  backend.release();
  EXPECT_EQ(pinned.get().label, 1);
  EXPECT_EQ(queued1.get().label, 1);
  EXPECT_EQ(queued2.get().label, 1);
}

// --------------------------------------------- graceful shutdown (criterion d)

TEST(Server, ShutdownDrainsInFlightFutures) {
  const data::DataSplit split = data::generate_synthetic_mnist(10, 1, 37);
  const auto backend = make_engine_backend(2);
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_us = 50'000;  // long delay: shutdown must not wait it out
  Server server(*backend, cfg);
  auto futures = submit_all(server, split.train.images);
  server.shutdown();
  // Every outstanding future resolved during shutdown — none left pending.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_GE(f.get().label, 0);
  }
  EXPECT_EQ(server.stats().completed, 10);
  // The server no longer admits work, with a clear error.
  EXPECT_THROW((void)server.submit(split.train.images.data()),
               std::runtime_error);
  // shutdown() is idempotent (the destructor will call it again too).
  server.shutdown();
}

// ----------------------------------------------------- failure propagation

TEST(Server, BackendExceptionReachesEveryFutureInTheBatch) {
  ThrowingServable backend;
  ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.max_delay_us = 100;
  Server server(backend, cfg);
  const std::vector<float> frame(kPixels, 0.5f);
  auto f1 = server.submit(frame.data());
  auto f2 = server.submit(frame.data());
  EXPECT_THROW((void)f1.get(), std::runtime_error);
  EXPECT_THROW((void)f2.get(), std::runtime_error);
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.completed, 0);
}

// ----------------------------------------------------------- metrics views

/// Metric family names a registry exports (its "# TYPE" lines).
std::set<std::string> series_names(const obs::MetricsRegistry& registry) {
  std::set<std::string> names;
  std::istringstream text(registry.prometheus());
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      names.insert(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  return names;
}

TEST(Server, ExportsEverySeriesAndReadsZerosOnceGone) {
  obs::MetricsRegistry registry;
  const auto backend = make_backend(4);
  {
    Server server(*backend);
    server.register_metrics(registry, "m");
    EXPECT_EQ(series_names(registry),
              (std::set<std::string>{
                  "scbnn_server_accepted_total",
                  "scbnn_server_rejected_total",
                  "scbnn_server_completed_total",
                  "scbnn_server_failed_total",
                  "scbnn_server_batches_total",
                  "scbnn_server_queue_depth",
                  "scbnn_server_mean_batch_size",
                  "scbnn_server_energy_joules",
                  "scbnn_server_mean_queue_wait_ms",
                  "scbnn_executor_workers",
                  "scbnn_executor_parallel_for_total",
                  "scbnn_executor_chunks_total",
                  "scbnn_executor_steal_attempts_total",
                  "scbnn_executor_steals_total",
                  "scbnn_executor_parks_total",
              }));

    const nn::Tensor frame = test_frames(1);
    (void)server.submit(frame.data()).get();
    EXPECT_NE(registry.prometheus().find(
                  "scbnn_server_completed_total{model=\"m\"} 1\n"),
              std::string::npos);
  }
  // The views outlive the Server and read zeros instead of dangling.
  EXPECT_NE(registry.prometheus().find(
                "scbnn_server_completed_total{model=\"m\"} 0\n"),
            std::string::npos);
}

// ---------------------------------------------------------- shared executor

TEST(SharedExecutor, ModelsOnOnePoolMatchPrivatePoolModels) {
  const int n = 10;
  const nn::Tensor frames = test_frames(n);

  // Reference: private pools (the pre-refactor construction).
  RuntimeConfig private_rc;
  private_rc.threads = 2;
  auto ref_low = make_backend(3, private_rc);
  auto ref_high = make_backend(7, private_rc);
  const auto direct_low = ref_low->classify(frames);
  const auto direct_high = ref_high->classify(frames);

  RuntimeConfig shared_rc;
  shared_rc.executor = std::make_shared<Executor>(2);
  auto low = make_backend(3, shared_rc);
  auto high = make_backend(7, shared_rc);
  EXPECT_EQ(low->executor().get(), high->executor().get());
  EXPECT_EQ(low->threads(), 2u);

  const auto shared_low = low->classify(frames);
  const auto shared_high = high->classify(frames);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(shared_low[static_cast<std::size_t>(i)].label,
              direct_low[static_cast<std::size_t>(i)].label);
    EXPECT_EQ(shared_low[static_cast<std::size_t>(i)].margin,
              direct_low[static_cast<std::size_t>(i)].margin);
    EXPECT_EQ(shared_high[static_cast<std::size_t>(i)].label,
              direct_high[static_cast<std::size_t>(i)].label);
    EXPECT_EQ(shared_high[static_cast<std::size_t>(i)].margin,
              direct_high[static_cast<std::size_t>(i)].margin);
  }
}

TEST(SharedExecutor, ServersOnOneExecutorServeConcurrently) {
  // Four models, each behind its own Server, on one executor of 1, 2 and
  // 4 workers. The 1-worker case runs every batch former's fan-out inline
  // under slot 0 at once, so it holds the executor's per-model slot
  // contract.
  const int n = 24;
  const nn::Tensor frames = test_frames(n);
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    RuntimeConfig rc;
    rc.executor = std::make_shared<Executor>(workers);

    std::vector<std::unique_ptr<AdaptivePipeline>> models;
    std::vector<std::vector<Prediction>> direct;
    for (const unsigned bits : {3u, 4u, 5u, 7u}) {
      models.push_back(make_backend(bits, rc));
      direct.push_back(models.back()->classify(frames));
    }
    std::vector<std::unique_ptr<Server>> servers;
    for (auto& model : models) {
      servers.push_back(std::make_unique<Server>(*model));
    }

    // Interleave submissions so the four batch formers overlap on the one
    // executor; every prediction must still match its model's direct
    // result.
    std::vector<std::vector<std::future<Prediction>>> futures(servers.size());
    for (int i = 0; i < n; ++i) {
      const float* frame =
          frames.data() + static_cast<std::size_t>(i) * kPixels;
      for (std::size_t m = 0; m < servers.size(); ++m) {
        futures[m].push_back(servers[m]->submit(frame));
      }
    }
    for (std::size_t m = 0; m < servers.size(); ++m) {
      for (std::size_t k = 0; k < futures[m].size(); ++k) {
        const Prediction got = futures[m][k].get();
        EXPECT_EQ(got.label, direct[m][k].label)
            << "model " << m << " frame " << k;
        EXPECT_EQ(got.margin, direct[m][k].margin)
            << "model " << m << " frame " << k;
      }
    }

    // Each Server counts only its own traffic...
    for (const auto& server : servers) {
      EXPECT_EQ(server->stats().completed, n);
    }
    // ...while all four report the one executor's counters. Idle workers
    // may still park (and a late thief may still count a lost attempt), so
    // compare the fields that settle once every fan-out has returned.
    const ExecutorStats first = servers.front()->executor_stats();
    EXPECT_EQ(first.workers, workers);
    EXPECT_GT(first.parallel_fors, 0u);
    // One worker runs every fan-out inline; with more, chunks must reach
    // the worker threads.
    if (workers > 1) EXPECT_GT(first.chunks_run, 0u);
    for (const auto& server : servers) {
      const ExecutorStats e = server->executor_stats();
      EXPECT_EQ(e.workers, first.workers);
      EXPECT_EQ(e.parallel_fors, first.parallel_fors);
      EXPECT_EQ(e.chunks_run, first.chunks_run);
      EXPECT_EQ(e.steals, first.steals);
    }
  }
}

}  // namespace
}  // namespace scbnn::runtime
