// Serving-runtime tests: executor sizing, the backend registry, the
// determinism contract of the serving pipeline's chunked first layer (same
// seed => bit-identical features at any thread count), and the vectorized
// tail (bit-identity vs the Network::forward reference, the warm-path
// allocation count of one-rung and escalating pipelines, InferencePlan
// error paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic_mnist.h"
#include "hybrid/first_layer.h"
#include "hybrid/hybrid_network.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/gemm.h"
#include "nn/inference_plan.h"
#include "nn/maxpool.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/quantize.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/backend_registry.h"
#include "runtime/executor.h"

#include "counting_allocator.h"

namespace scbnn::runtime {
namespace {

nn::QuantizedConvWeights sample_qweights(int kernels, unsigned bits,
                                         std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor w({kernels, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  return nn::quantize_conv_weights(w, bits);
}

/// A one-rung pipeline over a registry backend.
std::unique_ptr<AdaptivePipeline> one_rung(const std::string& backend,
                                           const nn::QuantizedConvWeights& qw,
                                           const hybrid::FirstLayerConfig& cfg,
                                           RuntimeConfig rc,
                                           nn::Network tail) {
  return std::make_unique<AdaptivePipeline>(
      BackendRegistry::instance().create(backend, qw, cfg), std::move(tail),
      std::move(rc));
}

/// A small plan-compatible tail for a `kernels`-channel first layer.
nn::Network tiny_tail(int kernels) {
  nn::Rng rng(99);
  return hybrid::build_tail(hybrid::LeNetConfig{kernels, 2, 8, 0.0f}, rng);
}

// --------------------------------------------------------------- Executor

TEST(Executor, ResolveThreadsMatchesConstructedPoolSize) {
  EXPECT_GE(Executor::resolve_threads(0), 1u);
  EXPECT_EQ(Executor::resolve_threads(3), 3u);
  EXPECT_EQ(Executor::resolve_threads(Executor::kMaxThreads + 7),
            Executor::kMaxThreads);
  for (unsigned requested : {0u, 1u, 4u}) {
    Executor pool(requested);
    EXPECT_EQ(pool.size(), Executor::resolve_threads(requested));
  }
}

// -------------------------------------------------------- BackendRegistry

TEST(BackendRegistry, BuiltinsRegistered) {
  auto& reg = BackendRegistry::instance();
  EXPECT_TRUE(reg.contains("binary-quantized"));
  EXPECT_TRUE(reg.contains("sc-proposed"));
  EXPECT_TRUE(reg.contains("sc-conventional"));
  EXPECT_FALSE(reg.contains("tpu-offload"));
}

TEST(BackendRegistry, CreateBuiltinsMatchesEngineNames) {
  const auto qw = sample_qweights(2, 4, 1);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  auto& reg = BackendRegistry::instance();
  for (const char* name :
       {"binary-quantized", "sc-proposed", "sc-conventional"}) {
    const auto engine = reg.create(name, qw, cfg);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), name);
    EXPECT_EQ(engine->bits(), 4u);
  }
}

TEST(BackendRegistry, UnknownBackendThrowsListingKnownNames) {
  const auto qw = sample_qweights(2, 4, 2);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  try {
    (void)BackendRegistry::instance().create("no-such-backend", qw, cfg);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos);
    EXPECT_NE(what.find("sc-proposed"), std::string::npos);
  }
}

// ------------------------------------------------------ one-rung pipeline

TEST(OneRungPipeline, RejectsNullEngineAndBadConfig) {
  EXPECT_THROW(AdaptivePipeline(nullptr, tiny_tail(2)), std::invalid_argument);
  const auto qw = sample_qweights(2, 4, 4);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  RuntimeConfig rc;
  rc.chunk_images = 0;
  EXPECT_THROW(one_rung("sc-proposed", qw, cfg, rc, tiny_tail(2)),
               std::invalid_argument);
  rc.chunk_images = 8;
  rc.threads = Executor::kMaxThreads + 1;  // absurd, not silently clamped
  EXPECT_THROW(one_rung("sc-proposed", qw, cfg, rc, tiny_tail(2)),
               std::invalid_argument);
}

// A tail the vectorized plan cannot run is refused when the pipeline is
// built — there is no slower fallback to serve it through.
TEST(OneRungPipeline, PlanIncompatibleTailThrowsAtConstruction) {
  const auto qw = sample_qweights(2, 4, 4);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  nn::Network tail;
  tail.add<nn::Tanh>();
  EXPECT_THROW(one_rung("sc-proposed", qw, cfg, {}, std::move(tail)),
               std::invalid_argument);
}

TEST(RuntimeConfig, ValidateAcceptsDefaultsAndRejectsNonsense) {
  EXPECT_NO_THROW(RuntimeConfig{}.validate());
  RuntimeConfig rc;
  rc.threads = Executor::kMaxThreads;  // at the cap is still fine
  EXPECT_NO_THROW(rc.validate());
  rc.threads = Executor::kMaxThreads + 1;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  rc.threads = 0;
  rc.chunk_images = -3;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  // Exact edge cases: zero chunks is as invalid as negative, and the error
  // message names the offending field and value.
  rc.chunk_images = 0;
  try {
    (void)rc.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chunk_images"), std::string::npos);
  }
  rc.chunk_images = 1;  // minimum legal chunk
  EXPECT_NO_THROW(rc.validate());
}

TEST(OneRungPipeline, FeaturesMatchSerialReference) {
  const auto qw = sample_qweights(3, 4, 5);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(17, 1, 23);

  const auto serial =
      hybrid::make_first_layer_engine(hybrid::FirstLayerDesign::kScProposed,
                                      qw, cfg);
  const nn::Tensor expect = serial->compute_batch(split.train.images);

  RuntimeConfig rc;
  rc.threads = 3;
  rc.chunk_images = 4;  // 17 images -> 5 uneven chunks
  const auto pipeline = one_rung("sc-proposed", qw, cfg, rc, tiny_tail(3));
  const nn::Tensor got = pipeline->features(split.train.images);

  ASSERT_EQ(got.shape(), expect.shape());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(got[i], expect[i]) << "feature " << i;
  }
}

TEST(OneRungPipeline, DeterministicAcrossThreadCounts) {
  // The acceptance contract: fixed seed => identical predictions whether
  // the batch is served by 1 thread or many.
  const unsigned kSeed = 11;
  const auto qw = sample_qweights(4, 4, kSeed);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  cfg.seed = kSeed;
  const data::DataSplit split = data::generate_synthetic_mnist(24, 1, kSeed);

  std::vector<nn::Tensor> features;
  for (unsigned threads : {1u, 2u, 5u}) {
    RuntimeConfig rc;
    rc.threads = threads;
    rc.chunk_images = 3;
    const auto pipeline =
        one_rung("sc-conventional", qw, cfg, rc, tiny_tail(4));
    features.push_back(pipeline->features(split.train.images));
    EXPECT_EQ(pipeline->threads(), threads);
  }
  for (std::size_t v = 1; v < features.size(); ++v) {
    ASSERT_EQ(features[v].size(), features[0].size());
    for (std::size_t i = 0; i < features[0].size(); ++i) {
      ASSERT_EQ(features[v][i], features[0][i])
          << "thread variant " << v << " diverged at " << i;
    }
  }
}

TEST(OneRungPipeline, PredictionsIdenticalAt1VsNThreads) {
  const auto qw = sample_qweights(4, 4, 6);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(16, 1, 29);

  hybrid::LeNetConfig lenet{4, 4, 16, 0.0f};
  auto predictions_with = [&](unsigned threads) {
    RuntimeConfig rc;
    rc.threads = threads;
    rc.chunk_images = 2;
    nn::Rng rng(99);  // same seed => same tail weights
    hybrid::HybridNetwork net(
        hybrid::make_first_layer_engine(hybrid::FirstLayerDesign::kScProposed,
                                        qw, cfg),
        hybrid::build_tail(lenet, rng), rc);
    return net.predict(split.train.images);
  };
  EXPECT_EQ(predictions_with(1), predictions_with(4));
}

TEST(OneRungPipeline, StatsReportBatchAndEnergy) {
  const auto qw = sample_qweights(4, 4, 7);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(10, 1, 31);

  RuntimeConfig rc;
  rc.threads = 2;
  const auto pipeline = one_rung("sc-proposed", qw, cfg, rc, tiny_tail(4));
  (void)pipeline->classify(split.train.images);
  const ServeStats& stats = pipeline->last_stats();
  EXPECT_EQ(stats.images, 10);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GE(stats.latency_ms, 0.0);
  EXPECT_GT(stats.images_per_sec, 0.0);
  // 4-bit proposed SC has a calibrated hardware model -> non-zero energy.
  EXPECT_GT(stats.energy_j, 0.0);
  // ... and an SC backend reports its cycle spend.
  EXPECT_GT(stats.sc_cycles, 0.0);
}

TEST(OneRungPipeline, BinaryBackendSpendsNoScCycles) {
  const auto qw = sample_qweights(4, 4, 7);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(6, 1, 31);
  const auto pipeline =
      one_rung("binary-quantized", qw, cfg, {}, tiny_tail(4));
  EXPECT_EQ(pipeline->name(), "binary-quantized");
  EXPECT_EQ(pipeline->rung_cycles_per_image(0), 0.0);
  (void)pipeline->classify(split.train.images);
  EXPECT_EQ(pipeline->last_stats().sc_cycles, 0.0);
  EXPECT_GT(pipeline->last_stats().energy_j, 0.0);
}

// ---------------------------------------------------- vectorized fast tail

constexpr hybrid::LeNetConfig kTestLeNet{4, 3, 16, 0.0f};

hybrid::FirstLayerConfig four_bit() {
  hybrid::FirstLayerConfig c;
  c.bits = 4;
  return c;
}

nn::Network test_tail() {
  nn::Rng rng(77);  // same seed => same weights
  return hybrid::build_tail(kTestLeNet, rng);
}

// A one-rung pipeline, plus an identically-seeded standalone tail to serve
// as the Network::forward reference.
struct FastTailRig {
  std::unique_ptr<AdaptivePipeline> pipeline;
  nn::Network ref_tail = test_tail();

  explicit FastTailRig(unsigned threads, int chunk_images = 4,
                       const std::string& backend = "sc-proposed") {
    RuntimeConfig rc;
    rc.threads = threads;
    rc.chunk_images = chunk_images;
    pipeline = one_rung(backend,
                        sample_qweights(kTestLeNet.conv1_kernels, 4, 9),
                        four_bit(), rc, test_tail());
  }
};

// The acceptance gate: for every registered backend, classify()'s labels
// AND margins are bit-identical to the Network::forward + softmax_margins
// reference and to the 1-thread predictions, across thread counts and odd
// batch sizes (1, 7, max) at the ambient dispatch level (CI reruns this
// suite with SCBNN_SIMD=scalar).
TEST(FastTail, ClassifyBitIdenticalToReferenceAcrossThreadsAndBatches) {
  const data::DataSplit split = data::generate_synthetic_mnist(16, 1, 41);
  for (const std::string& backend : BackendRegistry::instance().names()) {
    std::map<int, std::vector<Prediction>> one_thread;  // by batch size
    for (const unsigned threads : {1u, 3u}) {
      FastTailRig rig(threads, 3, backend);
      for (const int n : {1, 7, 16}) {
        nn::Tensor batch({n, 1, 28, 28});
        std::copy(split.train.images.data(),
                  split.train.images.data() + batch.size(), batch.data());

        const nn::Tensor feats = rig.pipeline->features(batch);
        const nn::Tensor ref_logits = rig.ref_tail.forward(feats, false);
        const auto ref_margins = nn::softmax_margins(ref_logits);

        std::vector<Prediction> preds(static_cast<std::size_t>(n));
        (void)rig.pipeline->classify(batch.data(), n, preds.data());
        if (threads == 1) one_thread[n] = preds;
        const auto& serial = one_thread.at(n);
        for (int i = 0; i < n; ++i) {
          SCOPED_TRACE(backend + " threads=" + std::to_string(threads) +
                       " n=" + std::to_string(n) + " image " +
                       std::to_string(i));
          const auto k = static_cast<std::size_t>(i);
          const auto margin = std::bit_cast<std::uint64_t>(preds[k].margin);
          ASSERT_EQ(preds[k].label, ref_margins[k].best);
          ASSERT_EQ(margin,
                    std::bit_cast<std::uint64_t>(ref_margins[k].margin));
          ASSERT_EQ(preds[k].label, serial[k].label) << "vs 1 thread";
          ASSERT_EQ(margin, std::bit_cast<std::uint64_t>(serial[k].margin))
              << "vs 1 thread";
        }
      }
    }
  }
}

TEST(FastTail, PredictMatchesExternalTailReference) {
  const data::DataSplit split = data::generate_synthetic_mnist(11, 1, 43);
  FastTailRig rig(2);
  const std::vector<int> fast = rig.pipeline->predict(split.train.images);
  const std::vector<int> ref =
      rig.ref_tail.predict(rig.pipeline->features(split.train.images));
  EXPECT_EQ(fast, ref);
}

TEST(FastTail, ReportsStageSplit) {
  const data::DataSplit split = data::generate_synthetic_mnist(8, 1, 47);
  FastTailRig rig(2);
  const auto preds = rig.pipeline->classify(split.train.images);
  ASSERT_EQ(preds.size(), 8u);
  const ServeStats& stats = rig.pipeline->last_stats();
  EXPECT_GE(stats.first_layer_ms, 0.0);
  EXPECT_GT(stats.tail_ms, 0.0);
  EXPECT_LE(stats.first_layer_ms + stats.tail_ms, stats.latency_ms + 1e-6);
}

// Mutating the tail through the pipeline's accessor must reach the next
// classify() — the plan's packed Dense weights are re-packed, not stale.
TEST(FastTail, RetrainedTailParametersAreNotStale) {
  const data::DataSplit split = data::generate_synthetic_mnist(9, 1, 53);
  FastTailRig rig(2);
  auto nudge = [](nn::Network& net) {
    for (const nn::Param& p : net.params()) {
      for (std::size_t i = 0; i < p.value->size(); ++i) {
        (*p.value)[i] += 0.25f * static_cast<float>(i % 3);
      }
    }
  };
  nudge(rig.pipeline->tail());
  nudge(rig.ref_tail);

  const nn::Tensor feats = rig.pipeline->features(split.train.images);
  const nn::Tensor ref_logits = rig.ref_tail.forward(feats, false);
  const auto ref_margins = nn::softmax_margins(ref_logits);

  std::vector<Prediction> preds(9);
  (void)rig.pipeline->classify(split.train.images.data(), 9, preds.data());
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ(preds[static_cast<std::size_t>(i)].label,
              ref_margins[static_cast<std::size_t>(i)].best)
        << "image " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(
                  preds[static_cast<std::size_t>(i)].margin),
              std::bit_cast<std::uint64_t>(
                  ref_margins[static_cast<std::size_t>(i)].margin))
        << "image " << i;
  }
}

// The warm-path contract: after warm-up batches, classify() performs ZERO
// heap allocations — features/logits/survivors/active indices live in
// grow-only buffers shared by every rung, each plan runs out of per-worker
// arenas, margins are computed on the stack, Predictions are written in
// place, and the executor's parallel_for frames are pooled. `n` frames,
// then a smaller follow-up batch that must reuse the grown buffers.
long long warm_classify_allocations(AdaptivePipeline& pipeline,
                                    const nn::Tensor& images) {
  const int n = images.dim(0);
  std::vector<Prediction> preds(static_cast<std::size_t>(n));
  (void)pipeline.classify(images.data(), n, preds.data());
  (void)pipeline.classify(images.data(), n, preds.data());

  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  (void)pipeline.classify(images.data(), n, preds.data());
  (void)pipeline.classify(images.data(), 5, preds.data());
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

// Both contracts hold for the bit-level referee, for the count-domain
// engines the serving benches run, and for the binary engine the fleet
// serves: every engine sizes its workspace in make_scratch() (the binary
// engine keeps its lanes on the stack), never per frame.
const char* const kWarmPathBackends[] = {"sc-proposed", "sc-proposed-fast",
                                         "sc-conventional-fast",
                                         "binary-quantized"};

TEST(FastTail, OneRungWarmPathIsAllocationFree) {
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 59);
  for (const char* backend : kWarmPathBackends) {
    FastTailRig rig(3, 4, backend);
    EXPECT_EQ(warm_classify_allocations(*rig.pipeline, split.train.images), 0)
        << backend;
  }
}

// The same contract on a 4->6-bit ladder whose margin escalates some
// frames but not all, so both rungs, survivor compaction, and the shared
// buffers' reuse across rungs are on the measured path.
TEST(FastTail, EscalatingLadderWarmPathIsAllocationFree) {
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 59);
  for (const char* backend : kWarmPathBackends) {
    const auto ladder = [backend](double margin) {
      std::vector<AdaptiveRung> rungs;
      for (const unsigned bits : {4u, 6u}) {
        hybrid::FirstLayerConfig cfg;
        cfg.bits = bits;
        AdaptiveRung rung;
        rung.bits = bits;
        rung.engine = BackendRegistry::instance().create(
            backend, sample_qweights(kTestLeNet.conv1_kernels, bits, 9), cfg);
        rung.tail = test_tail();
        rungs.push_back(std::move(rung));
      }
      RuntimeConfig rc;
      rc.threads = 3;
      return std::make_unique<AdaptivePipeline>(std::move(rungs), margin, rc);
    };
    // The median rung-0 margin escalates the less confident half.
    std::vector<double> margins;
    for (const Prediction& p : ladder(0.0)->classify(split.train.images)) {
      margins.push_back(p.margin);
    }
    std::sort(margins.begin(), margins.end());
    const auto pipeline = ladder(margins[margins.size() / 2]);

    EXPECT_EQ(warm_classify_allocations(*pipeline, split.train.images), 0)
        << backend;
    (void)pipeline->classify(split.train.images);
    const PipelineStats& stats = pipeline->last_stats();
    EXPECT_GT(stats.rungs[1].images_in, 0) << backend;
    EXPECT_LT(stats.rungs[1].images_in, stats.rungs[0].images_in) << backend;
  }
}

// ------------------------------------------------------------ InferencePlan

TEST(InferencePlan, MatchesNetworkForwardBitExactAtEveryLevel) {
  nn::Rng rng(123);
  nn::Network net = hybrid::build_tail(kTestLeNet, rng);
  nn::InferencePlan plan(net, kTestLeNet.conv1_kernels, 28, 28);
  ASSERT_EQ(plan.classes(), 10);

  const int kBatch = 5;
  nn::Tensor x({kBatch, kTestLeNet.conv1_kernels, 28, 28});
  nn::Rng data_rng(7);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Ternary feature-like inputs plus signed zeros.
    const float r = data_rng.normal(0.0f, 1.0f);
    x[i] = r > 0.5f ? 1.0f : (r < -0.5f ? -1.0f : (r > 0.0f ? 0.0f : -0.0f));
  }
  const nn::Tensor want = net.forward(x, false);

  for (const nn::kern::Level level : nn::kern::available_levels()) {
    // Whole batch in one run, and image-by-image (chunk boundaries must
    // not change a bit).
    auto arena = plan.make_arena(kBatch);
    std::vector<float> got(static_cast<std::size_t>(kBatch) * 10);
    plan.run(x.data(), kBatch, got.data(), arena, level);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << "level " << nn::kern::to_string(level) << " logit " << i;
    }
    auto arena1 = plan.make_arena(1);
    for (int b = 0; b < kBatch; ++b) {
      std::vector<float> row(10);
      plan.run(x.data() + static_cast<std::size_t>(b) * plan.input_size(), 1,
               row.data(), arena1, level);
      for (int c = 0; c < 10; ++c) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(row[static_cast<std::size_t>(c)]),
                  std::bit_cast<std::uint32_t>(want.at2(b, c)))
            << "level " << nn::kern::to_string(level) << " image " << b;
      }
    }
  }
}

TEST(InferencePlan, RejectsUnsupportedLayersAndBadShapes) {
  nn::Rng rng(5);
  {
    nn::Network net;
    net.add<nn::Tanh>();
    EXPECT_THROW(nn::InferencePlan(net, 1, 28, 28), std::invalid_argument);
  }
  {
    nn::Network net;  // Conv2D channel mismatch: expects 3, input has 4
    net.add<nn::Conv2D>(3, 2, 5, 2, rng);
    EXPECT_THROW(nn::InferencePlan(net, 4, 28, 28), std::invalid_argument);
  }
  {
    nn::Network net;  // Dense feature mismatch
    net.add<nn::Dense>(100, 10, rng);
    EXPECT_THROW(nn::InferencePlan(net, 1, 28, 28), std::invalid_argument);
  }
  {
    nn::Network net;  // MaxPool2 on odd spatial dims
    net.add<nn::MaxPool2>();
    EXPECT_THROW(nn::InferencePlan(net, 1, 7, 7), std::invalid_argument);
  }
  {
    nn::Network net;  // Conv2D eats the whole image -> empty output
    net.add<nn::Conv2D>(1, 2, 5, 0, rng);
    EXPECT_THROW(nn::InferencePlan(net, 1, 4, 4), std::invalid_argument);
  }
  EXPECT_THROW(
      {
        nn::Network net;
        net.add<nn::Dense>(784, 10, rng);
        nn::InferencePlan plan(net, 1, 28, 28);
        (void)plan.make_arena(0);
      },
      std::invalid_argument);
}

// The ping-pong buffers hold step outputs only — run() reads the input in
// place — so a plan whose input is its widest activation (the serving
// tail: 32x28x28 features, pooled first) must not size them by it.
TEST(InferencePlan, ArenaSizedByWidestStepOutputNotInput) {
  nn::Rng rng(7);
  nn::Network net;
  net.add<nn::MaxPool2>();          // 4x8x8 = 256 -> 4x4x4 = 64
  net.add<nn::Dense>(64, 10, rng);  // 64 -> 10
  nn::InferencePlan plan(net, 4, 8, 8);
  const auto arena = plan.make_arena(3);
  EXPECT_EQ(arena.ping.size(), 3u * 64u);
  EXPECT_EQ(arena.pong.size(), 3u * 64u);

  nn::Tensor x({3, 4, 8, 8});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 17) * 0.125f - 1.0f;
  }
  const nn::Tensor want = net.forward(x, false);
  auto run_arena = plan.make_arena(3);
  std::vector<float> got(static_cast<std::size_t>(3) * 10);
  plan.run(x.data(), 3, got.data(), run_arena, nn::kern::Level::kScalar);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "logit " << i;
  }
}

TEST(InferencePlan, RunRejectsBatchBeyondArenaCapacity) {
  nn::Rng rng(6);
  nn::Network net;
  net.add<nn::Dense>(784, 10, rng);
  nn::InferencePlan plan(net, 1, 28, 28);
  auto arena = plan.make_arena(2);
  std::vector<float> x(static_cast<std::size_t>(3) * 784, 0.5f);
  std::vector<float> logits(static_cast<std::size_t>(3) * 10);
  EXPECT_THROW(plan.run(x.data(), 3, logits.data(), arena,
                        nn::kern::Level::kScalar),
               std::invalid_argument);
}

}  // namespace
}  // namespace scbnn::runtime
