// Multi-model serving tests: routing correctness (requests reach the model
// named in the request, predictions bit-identical to direct backend calls),
// per-model stats isolation, hot registration and drained deregistration
// under live traffic, error paths, and N models sharing one executor.
#include "runtime/model_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
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

/// Deterministic untrained backend at `bits` precision — two calls with the
/// same arguments build bit-identical Servables (same idiom as
/// tests/test_server.cpp; routing tests need distinguishable models, not
/// accurate ones).
std::shared_ptr<AdaptivePipeline> make_backend(unsigned bits,
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
  return std::make_shared<AdaptivePipeline>(
      BackendRegistry::instance().create("sc-proposed", qw, flc),
      std::move(tail), rc);
}

nn::Tensor test_frames(int n) {
  return data::generate_synthetic_mnist(static_cast<std::size_t>(n), 1, 99)
      .train.images;
}

/// Test double whose executor_stats() parks until released, so a test can
/// hold a metrics scrape inside the backend while the model is
/// deregistered. It reports its own destruction through the shared gate.
class ParkingStatsServable : public Servable {
 public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    bool destroyed = false;
  };

  explicit ParkingStatsServable(std::shared_ptr<Gate> gate)
      : gate_(std::move(gate)) {}
  ~ParkingStatsServable() override {
    std::lock_guard<std::mutex> lock(gate_->mutex);
    gate_->destroyed = true;
  }

  ServeStats classify(const float* /*images*/, int n,
                      Prediction* out) override {
    for (int i = 0; i < n; ++i) out[i] = Prediction{};
    ServeStats stats;
    stats.images = n;
    return stats;
  }
  [[nodiscard]] std::string name() const override { return "parking"; }
  [[nodiscard]] unsigned threads() const noexcept override { return 1; }
  [[nodiscard]] ExecutorStats executor_stats() const override {
    const std::shared_ptr<Gate> gate = gate_;  // never touch *this after
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->entered = true;
    gate->cv.notify_all();
    gate->cv.wait(lock, [&] { return gate->released; });
    return {};
  }

 private:
  std::shared_ptr<Gate> gate_;
};

TEST(ModelRouter, RoutesRequestsToTheNamedModel) {
  const int n = 12;
  const nn::Tensor frames = test_frames(n);
  auto low = make_backend(3);
  auto high = make_backend(7);
  const auto direct_low = low->classify(frames);
  const auto direct_high = high->classify(frames);

  ModelRouter router;
  router.register_model("low", low);
  router.register_model("high", high);
  EXPECT_TRUE(router.contains("low"));
  EXPECT_EQ(router.model_ids(), (std::vector<std::string>{"high", "low"}));

  std::vector<std::future<Prediction>> low_futures;
  std::vector<std::future<Prediction>> high_futures;
  for (int i = 0; i < n; ++i) {
    const float* frame =
        frames.data() + static_cast<std::size_t>(i) * kPixels;
    low_futures.push_back(router.submit("low", frame));
    high_futures.push_back(router.submit("high", frame));
  }
  for (int i = 0; i < n; ++i) {
    const Prediction pl = low_futures[static_cast<std::size_t>(i)].get();
    const Prediction ph = high_futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(pl.label, direct_low[static_cast<std::size_t>(i)].label);
    EXPECT_EQ(pl.margin, direct_low[static_cast<std::size_t>(i)].margin);
    EXPECT_EQ(pl.bits_used, 3u);
    EXPECT_EQ(ph.label, direct_high[static_cast<std::size_t>(i)].label);
    EXPECT_EQ(ph.margin, direct_high[static_cast<std::size_t>(i)].margin);
    EXPECT_EQ(ph.bits_used, 7u);
  }

  EXPECT_EQ(router.stats("low").completed, n);
  EXPECT_EQ(router.stats("high").completed, n);
  router.shutdown();
  EXPECT_TRUE(router.model_ids().empty());
}

TEST(ModelRouter, PerModelStatsAreIsolated) {
  const int n = 9;
  const nn::Tensor frames = test_frames(n);
  ModelRouter router;
  router.register_model("a", make_backend(3));
  router.register_model("b", make_backend(4));

  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < n; ++i) {
    futures.push_back(router.submit(
        "a", frames.data() + static_cast<std::size_t>(i) * kPixels));
  }
  futures.push_back(router.submit("b", frames.data()));
  for (auto& f : futures) (void)f.get();

  const ServerStats a = router.stats("a");
  const ServerStats b = router.stats("b");
  EXPECT_EQ(a.accepted, n);
  EXPECT_EQ(a.completed, n);
  EXPECT_EQ(b.accepted, 1);
  EXPECT_EQ(b.completed, 1);
  EXPECT_EQ(a.rejected + b.rejected, 0);
}

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

TEST(ModelRouter, ModelsExportTheSameSeriesAsABareServer) {
  obs::MetricsRegistry bare;
  const auto direct = make_backend(4);
  Server server(*direct);
  server.register_metrics(bare, "m");

  obs::MetricsRegistry routed;
  ModelRouter router;
  router.register_model("m", make_backend(4));
  router.register_metrics(routed);

  const std::set<std::string> names = series_names(bare);
  EXPECT_EQ(series_names(routed), names);
  EXPECT_EQ(names.count("scbnn_server_mean_queue_wait_ms"), 1u);
  for (const char* executor_series :
       {"scbnn_executor_workers", "scbnn_executor_parallel_for_total",
        "scbnn_executor_chunks_total", "scbnn_executor_steal_attempts_total",
        "scbnn_executor_steals_total", "scbnn_executor_parks_total"}) {
    EXPECT_EQ(names.count(executor_series), 1u) << executor_series;
  }

  // A deregistered model's views read zeros instead of dangling.
  const nn::Tensor frames = test_frames(1);
  (void)router.submit("m", frames.data()).get();
  EXPECT_NE(routed.prometheus().find(
                "scbnn_server_completed_total{model=\"m\"} 1\n"),
            std::string::npos);
  (void)router.deregister_model("m");
  EXPECT_NE(routed.prometheus().find(
                "scbnn_server_completed_total{model=\"m\"} 0\n"),
            std::string::npos);
}

TEST(ModelRouter, ScrapeKeepsADeregisteredModelAlive) {
  // The executor views call into the backend, so a scrape in flight when
  // its model is deregistered must hold the backend, not just the server.
  auto gate = std::make_shared<ParkingStatsServable::Gate>();
  obs::MetricsRegistry registry;
  ModelRouter router;
  router.register_model("m", std::make_shared<ParkingStatsServable>(gate));
  router.register_metrics(registry);

  std::thread scraper([&] { (void)registry.prometheus(); });
  {
    std::unique_lock<std::mutex> lock(gate->mutex);
    gate->cv.wait(lock, [&] { return gate->entered; });
  }
  (void)router.deregister_model("m");
  {
    std::lock_guard<std::mutex> lock(gate->mutex);
    EXPECT_FALSE(gate->destroyed) << "backend freed under a live scrape";
    gate->released = true;
    gate->cv.notify_all();
  }
  scraper.join();
  std::lock_guard<std::mutex> lock(gate->mutex);
  EXPECT_TRUE(gate->destroyed) << "the finished scrape still owns the model";
}

TEST(ModelRouter, ScrapesInALoopRaceHotRegistration) {
  // Sanitizer fodder: a scraper thread loops over every view while the main
  // thread keeps registering, serving and deregistering one model.
  obs::MetricsRegistry registry;
  ModelRouter router;
  const nn::Tensor frame = test_frames(1);
  RuntimeConfig rc;
  rc.threads = 1;

  std::atomic<bool> scraped{false};
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)registry.prometheus();
      scraped.store(true, std::memory_order_release);
      // Let registration get at the registry's mutex between scrapes.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  for (int round = 0; round < 100; ++round) {
    router.register_model("m", make_backend(3, rc));
    router.register_metrics(registry);
    if (round == 0) {
      while (!scraped.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    (void)router.submit("m", frame.data()).get();
    EXPECT_EQ(router.deregister_model("m").completed, 1);
  }
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_NE(registry.prometheus().find(
                "scbnn_server_completed_total{model=\"m\"} 0\n"),
            std::string::npos);
}

TEST(ModelRouter, UnknownAndInvalidIdsThrow) {
  ModelRouter router;
  router.register_model("only", make_backend(3));
  const nn::Tensor frame = test_frames(1);

  EXPECT_THROW((void)router.submit("nope", frame.data()), std::out_of_range);
  EXPECT_THROW((void)router.stats("nope"), std::out_of_range);
  EXPECT_THROW((void)router.backend("nope"), std::out_of_range);
  EXPECT_THROW((void)router.deregister_model("nope"), std::out_of_range);
  EXPECT_FALSE(router.contains("nope"));

  EXPECT_THROW(router.register_model("", make_backend(3)),
               std::invalid_argument);
  EXPECT_THROW(router.register_model("only", make_backend(3)),
               std::invalid_argument);
  EXPECT_THROW(router.register_model("null", nullptr),
               std::invalid_argument);
}

TEST(ModelRouter, HotRegistrationUnderLiveTraffic) {
  const int per_model = 40;
  const nn::Tensor frames = test_frames(per_model);
  auto first = make_backend(3);
  const auto direct_first = first->classify(frames);

  ModelRouter router;
  router.register_model("first", first);

  // A producer streams to "first" while the main thread hot-registers
  // "second" and serves a full stream through it.
  std::vector<std::future<Prediction>> first_futures(
      static_cast<std::size_t>(per_model));
  std::atomic<bool> started{false};
  std::thread producer([&] {
    for (int i = 0; i < per_model; ++i) {
      first_futures[static_cast<std::size_t>(i)] = router.submit(
          "first", frames.data() + static_cast<std::size_t>(i) * kPixels);
      started.store(true);
    }
  });
  while (!started.load()) std::this_thread::yield();

  auto second = make_backend(6);
  const auto direct_second = second->classify(frames);
  router.register_model("second", second);
  std::vector<std::future<Prediction>> second_futures;
  for (int i = 0; i < per_model; ++i) {
    second_futures.push_back(router.submit(
        "second", frames.data() + static_cast<std::size_t>(i) * kPixels));
  }
  producer.join();

  for (int i = 0; i < per_model; ++i) {
    EXPECT_EQ(first_futures[static_cast<std::size_t>(i)].get().label,
              direct_first[static_cast<std::size_t>(i)].label);
    EXPECT_EQ(second_futures[static_cast<std::size_t>(i)].get().label,
              direct_second[static_cast<std::size_t>(i)].label);
  }
  EXPECT_EQ(router.stats("first").completed, per_model);
  EXPECT_EQ(router.stats("second").completed, per_model);
}

TEST(ModelRouter, DeregisterDrainsOutstandingRequests) {
  const int n = 16;
  const nn::Tensor frames = test_frames(n);
  ModelRouter router;
  router.register_model("going", make_backend(3));
  router.register_model("staying", make_backend(4));

  auto futures = router.submit_burst("going", frames.data(), n);
  const ServerStats final_stats = router.deregister_model("going");
  EXPECT_FALSE(router.contains("going"));
  EXPECT_TRUE(router.contains("staying"));
  EXPECT_EQ(final_stats.accepted, n);
  EXPECT_EQ(final_stats.completed, n);
  for (auto& f : futures) EXPECT_GE(f.get().label, 0);

  // The survivor still serves.
  auto p = router.submit("staying", frames.data());
  EXPECT_GE(p.get().label, 0);
}

TEST(ModelRouter, ShutdownIsIdempotentAndFinal) {
  ModelRouter router;
  router.register_model("m", make_backend(3));
  const nn::Tensor frame = test_frames(1);
  router.shutdown();
  router.shutdown();
  EXPECT_TRUE(router.model_ids().empty());
  EXPECT_THROW((void)router.submit("m", frame.data()), std::out_of_range);
  EXPECT_THROW(router.register_model("late", make_backend(3)),
               std::runtime_error);
}

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

TEST(SharedExecutor, RouterFleetOnOneExecutorServesConcurrently) {
  const int n = 24;
  const nn::Tensor frames = test_frames(n);
  RuntimeConfig rc;
  rc.executor = std::make_shared<Executor>(2);

  auto a = make_backend(3, rc);
  auto b = make_backend(5, rc);
  auto c = make_backend(7, rc);
  const auto direct_a = a->classify(frames);
  const auto direct_b = b->classify(frames);
  const auto direct_c = c->classify(frames);

  ModelRouter router;
  router.register_model("a", a);
  router.register_model("b", b);
  router.register_model("c", c);

  // Interleave submissions so the three batch formers overlap on the one
  // executor; every prediction must still match its model's direct result.
  std::vector<std::future<Prediction>> fa, fb, fc;
  for (int i = 0; i < n; ++i) {
    const float* frame =
        frames.data() + static_cast<std::size_t>(i) * kPixels;
    fa.push_back(router.submit("a", frame));
    fb.push_back(router.submit("b", frame));
    fc.push_back(router.submit("c", frame));
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(fa[static_cast<std::size_t>(i)].get().label,
              direct_a[static_cast<std::size_t>(i)].label);
    EXPECT_EQ(fb[static_cast<std::size_t>(i)].get().label,
              direct_b[static_cast<std::size_t>(i)].label);
    EXPECT_EQ(fc[static_cast<std::size_t>(i)].get().label,
              direct_c[static_cast<std::size_t>(i)].label);
  }

  // Models riding one executor all report the same fleet-wide counter
  // snapshot through the router — the point of the shared view.
  const ExecutorStats ea = router.executor_stats("a");
  EXPECT_EQ(ea.workers, 2u);
  EXPECT_GT(ea.parallel_fors, 0u);
  EXPECT_GT(ea.chunks_run, 0u);
  EXPECT_EQ(router.executor_stats("b").workers, 2u);
  EXPECT_THROW((void)router.executor_stats("nope"), std::out_of_range);
}

}  // namespace
}  // namespace scbnn::runtime
