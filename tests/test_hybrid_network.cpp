// Hybrid network assembly and the retraining pipeline (scaled down).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic_mnist.h"
#include "hybrid/experiment.h"
#include "hybrid/hybrid_network.h"
#include "runtime/backend_registry.h"
#include "runtime/server.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace scbnn::hybrid {
namespace {

LeNetConfig tiny_lenet() {
  LeNetConfig cfg;
  cfg.conv1_kernels = 8;
  cfg.conv2_kernels = 8;
  cfg.dense_units = 32;
  cfg.dropout = 0.1f;
  return cfg;
}

/// FNV-1a over every parameter value's bytes, in params() order.
std::uint64_t param_hash(nn::Network& net) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const nn::Param& p : net.params()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p.value->data());
    for (std::size_t i = 0; i < p.value->size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;  // FNV prime
    }
  }
  return h;
}

// bench::make_frozen_bundle builds every perfbench model from this seeded
// network, so a constructor change that reorders, adds or drops a draw
// would silently swap every workload's model. The value is pinned.
TEST(LeNetBuilder, SeededDrawsArePinned) {
  nn::Rng rng(7);
  nn::Network net = build_lenet({32, 8, 32, 0.0f}, rng);
  EXPECT_EQ(param_hash(net), 0x3787b1b0bdb371c8ull);
}

TEST(LeNetBuilder, ShapesFlowEndToEnd) {
  nn::Rng rng(1);
  nn::Network net = build_lenet(tiny_lenet(), rng);
  nn::Tensor x({2, 1, 28, 28});
  nn::Tensor y = net.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 10}));
}

TEST(LeNetBuilder, TailConsumesFirstLayerFeatures) {
  nn::Rng rng(2);
  nn::Network tails[] = {build_tail(tiny_lenet(), rng),
                         build_tail(tiny_lenet())};
  for (nn::Network& tail : tails) {
    nn::Tensor feats({2, 8, 28, 28});
    nn::Tensor y = tail.forward(feats, false);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 10}));
  }
}

TEST(LeNetBuilder, TailHasTwoFewerParamTensors) {
  nn::Rng rng(3);
  nn::Network base = build_lenet(tiny_lenet(), rng);
  nn::Network tails[] = {build_tail(tiny_lenet(), rng),
                         build_tail(tiny_lenet())};
  for (nn::Network& tail : tails) {
    EXPECT_EQ(base.params().size(), tail.params().size() + 2);
  }
}

// The shape-only builders make what loading and copying fill in: the
// seeded network's layer kinds and parameter shapes, every value zero.
TEST(LeNetBuilder, ShapeOnlyMatchesSeededLayoutWithZeros) {
  nn::Rng rng(9);
  std::pair<nn::Network, nn::Network> pairs[] = {
      {build_lenet(tiny_lenet(), rng), build_lenet(tiny_lenet())},
      {build_tail(tiny_lenet(), rng), build_tail(tiny_lenet())}};
  for (auto& [seeded, shaped] : pairs) {
    ASSERT_EQ(shaped.layer_count(), seeded.layer_count());
    for (std::size_t i = 0; i < seeded.layer_count(); ++i) {
      EXPECT_EQ(shaped.layer(i).name(), seeded.layer(i).name()) << i;
    }
    const auto sp = seeded.params();
    const auto zp = shaped.params();
    ASSERT_EQ(zp.size(), sp.size());
    for (std::size_t i = 0; i < sp.size(); ++i) {
      EXPECT_EQ(zp[i].name, sp[i].name);
      EXPECT_EQ(zp[i].value->shape(), sp[i].value->shape()) << zp[i].name;
      const nn::Tensor& z = *zp[i].value;
      EXPECT_TRUE(std::all_of(z.data(), z.data() + z.size(),
                              [](float v) { return v == 0.0f; }))
          << zp[i].name;
    }
  }
}

TEST(CopyTailParams, TransfersExactly) {
  nn::Rng rng(4);
  nn::Network base = build_lenet(tiny_lenet(), rng);
  nn::Network tail = build_tail(tiny_lenet(), rng);
  copy_tail_params(base, tail);
  const auto bp = base.params();
  const auto tp = tail.params();
  for (std::size_t i = 0; i < tp.size(); ++i) {
    for (std::size_t j = 0; j < tp[i].value->size(); ++j) {
      EXPECT_EQ((*tp[i].value)[j], (*bp[i + 2].value)[j]);
    }
  }
}

TEST(CopyTailParams, RejectsMismatchedTopology) {
  nn::Rng rng(5);
  nn::Network base = build_lenet(tiny_lenet(), rng);
  LeNetConfig other = tiny_lenet();
  other.conv2_kernels = 4;
  nn::Network tail = build_tail(other, rng);
  EXPECT_THROW(copy_tail_params(base, tail), std::invalid_argument);
}

TEST(BaseConv1Weights, ExposesFirstLayer) {
  nn::Rng rng(6);
  nn::Network base = build_lenet(tiny_lenet(), rng);
  const nn::Tensor& w = base_conv1_weights(base);
  EXPECT_EQ(w.shape(), (std::vector<int>{8, 1, 5, 5}));
}

TEST(HybridNetwork, EndToEndPredictShape) {
  nn::Rng rng(7);
  const auto cfg = tiny_lenet();
  nn::Network base = build_lenet(cfg, rng);
  const auto qw = nn::quantize_conv_weights(base_conv1_weights(base), 6);
  FirstLayerConfig flc;
  flc.bits = 6;
  auto engine =
      make_first_layer_engine(FirstLayerDesign::kBinaryQuantized, qw, flc);
  nn::Network tail = build_tail(cfg, rng);
  copy_tail_params(base, tail);
  HybridNetwork hybrid(std::move(engine), std::move(tail));

  const data::DataSplit split = data::generate_synthetic_mnist(6, 1, 21);
  const auto pred = hybrid.predict(split.train.images);
  EXPECT_EQ(pred.size(), 6u);
  for (int p : pred) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 10);
  }
}

TEST(HybridNetwork, NullEngineRejected) {
  nn::Rng rng(8);
  EXPECT_THROW(HybridNetwork(nullptr, build_tail(tiny_lenet(), rng)),
               std::invalid_argument);
}

TEST(HybridNetwork, IsServableBehindTheRequestServer) {
  nn::Rng rng(7);
  const auto cfg = tiny_lenet();
  nn::Network base = build_lenet(cfg, rng);
  const auto qw = nn::quantize_conv_weights(base_conv1_weights(base), 6);
  FirstLayerConfig flc;
  flc.bits = 6;
  auto engine =
      make_first_layer_engine(FirstLayerDesign::kBinaryQuantized, qw, flc);
  nn::Network tail = build_tail(cfg, rng);
  copy_tail_params(base, tail);
  HybridNetwork hybrid(std::move(engine), std::move(tail));

  const data::DataSplit split = data::generate_synthetic_mnist(6, 1, 21);
  const auto direct_labels = hybrid.predict(split.train.images);
  const auto direct = hybrid.classify(split.train.images);

  runtime::ServerConfig server_cfg;
  server_cfg.max_batch = 4;
  server_cfg.max_delay_us = 200;
  runtime::Server server(hybrid.servable(), server_cfg);
  constexpr std::size_t kPixels = 28 * 28;
  std::vector<std::future<runtime::Prediction>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit(split.train.images.data() + i * kPixels));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const runtime::Prediction p = futures[i].get();
    EXPECT_EQ(p.label, direct_labels[i]);
    EXPECT_EQ(p.margin, direct[i].margin);
  }
}

TEST(HybridNetwork, FastBackendsPredictIdenticallyToReference) {
  // End-to-end referee for the count-domain fast path: swapping
  // sc-proposed for sc-proposed-fast (and conventional likewise) must leave
  // every prediction AND every margin bit-identical — the whole pipeline
  // after the first layer consumes identical ternary features.
  nn::Rng rng(9);
  const auto cfg = tiny_lenet();
  nn::Network base = build_lenet(cfg, rng);
  const auto qw = nn::quantize_conv_weights(base_conv1_weights(base), 4);
  FirstLayerConfig flc;
  flc.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(8, 1, 33);

  auto& reg = runtime::BackendRegistry::instance();
  for (const char* pair : {"sc-proposed", "sc-conventional"}) {
    const std::string ref_name = pair;
    const std::string fast_name = ref_name + "-fast";
    auto make_net = [&](const std::string& backend) {
      nn::Rng tail_rng(10);
      nn::Network tail = build_tail(cfg, tail_rng);
      copy_tail_params(base, tail);
      return HybridNetwork(reg.create(backend, qw, flc), std::move(tail));
    };
    const auto ref = make_net(ref_name).classify(split.train.images);
    const auto fast = make_net(fast_name).classify(split.train.images);
    ASSERT_EQ(ref.size(), fast.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].label, fast[i].label) << ref_name << " image " << i;
      EXPECT_EQ(ref[i].margin, fast[i].margin) << ref_name << " image " << i;
    }
  }
}

TEST(Misclassification, PercentConversion) {
  EXPECT_DOUBLE_EQ(misclassification_pct(1.0), 0.0);
  EXPECT_DOUBLE_EQ(misclassification_pct(0.9), 10.0);
  EXPECT_DOUBLE_EQ(misclassification_pct(0.0), 100.0);
}

TEST(Experiment, RetrainingRecoversAccuracy) {
  // Scaled-down end-to-end run of the paper's central mechanism: freezing a
  // quantized sign-activated first layer hurts; retraining the tail
  // recovers most of the loss.
  ExperimentConfig cfg;
  cfg.train_n = 800;
  cfg.test_n = 150;
  cfg.lenet = tiny_lenet();
  cfg.base_epochs = 10;
  cfg.retrain_epochs = 3;
  cfg.seed = 5;
  PreparedExperiment prep = prepare_experiment(cfg);
  EXPECT_GT(prep.float_accuracy, 0.45);  // the tiny base model learned

  const auto point = evaluate_design_point(
      prep, cfg, FirstLayerDesign::kBinaryQuantized, 4);
  EXPECT_LE(point.misclassification_pct, point.before_retrain_pct + 1e-9);
  EXPECT_LT(point.misclassification_pct, 100.0 * (1.0 - 0.1));  // above chance
}

TEST(Experiment, FeatureAgreementOrdering) {
  ExperimentConfig cfg;
  cfg.train_n = 120;
  cfg.test_n = 60;
  cfg.lenet = tiny_lenet();
  cfg.base_epochs = 2;
  cfg.retrain_epochs = 1;
  cfg.seed = 6;
  PreparedExperiment prep = prepare_experiment(cfg);

  const auto proposed =
      evaluate_design_point(prep, cfg, FirstLayerDesign::kScProposed, 6);
  const auto conventional =
      evaluate_design_point(prep, cfg, FirstLayerDesign::kScConventional, 6);
  const auto binary = evaluate_design_point(
      prep, cfg, FirstLayerDesign::kBinaryQuantized, 6);
  // Binary reference agrees with itself by construction.
  EXPECT_DOUBLE_EQ(binary.feature_agreement_vs_binary, 1.0);
  // The proposed design's features track the exact computation more closely
  // than the conventional SC design's (Table 3's mechanism).
  EXPECT_GT(proposed.feature_agreement_vs_binary,
            conventional.feature_agreement_vs_binary);
}

TEST(Experiment, EnvOverridesApplied) {
  setenv("SCBNN_TRAIN_N", "123", 1);
  setenv("SCBNN_RETRAIN_EPOCHS", "5", 1);
  ExperimentConfig cfg;
  cfg.apply_env_overrides();
  EXPECT_EQ(cfg.train_n, 123u);
  EXPECT_EQ(cfg.retrain_epochs, 5);
  unsetenv("SCBNN_TRAIN_N");
  unsetenv("SCBNN_RETRAIN_EPOCHS");
}

TEST(Experiment, QuickProfileShrinksEverything) {
  setenv("SCBNN_QUICK", "1", 1);
  ExperimentConfig cfg;
  const auto before_conv2 = cfg.lenet.conv2_kernels;
  cfg.apply_env_overrides();
  EXPECT_LT(cfg.train_n, 4000u);
  EXPECT_LT(cfg.lenet.conv2_kernels, before_conv2);
  unsetenv("SCBNN_QUICK");
}

TEST(Experiment, EnvIgnoresGarbageValues) {
  setenv("SCBNN_TRAIN_N", "not-a-number", 1);
  ExperimentConfig cfg;
  const auto fallback = cfg.train_n;
  cfg.apply_env_overrides();
  EXPECT_EQ(cfg.train_n, fallback);
  unsetenv("SCBNN_TRAIN_N");
}

TEST(Experiment, CacheRoundTrip) {
  // One file per process, so two copies of this binary running at once do
  // not remove or fill each other's cache between the two calls.
  const std::string cache =
      (std::filesystem::temp_directory_path() /
       ("scbnn_exp_cache_" + std::to_string(::getpid()) + ".bin"))
          .string();
  std::remove(cache.c_str());
  ExperimentConfig cfg;
  cfg.train_n = 100;
  cfg.test_n = 40;
  cfg.lenet = tiny_lenet();
  cfg.base_epochs = 1;
  cfg.cache_path = cache;
  cfg.seed = 7;
  PreparedExperiment first = prepare_experiment(cfg);
  EXPECT_FALSE(first.base_from_cache);
  PreparedExperiment second = prepare_experiment(cfg);
  EXPECT_TRUE(second.base_from_cache);
  EXPECT_DOUBLE_EQ(first.float_accuracy, second.float_accuracy);

  // Same shape, different training: each differs from what the cache then
  // holds in one field, and must retrain rather than load it.
  ExperimentConfig more_epochs = cfg;
  more_epochs.base_epochs = 2;
  EXPECT_FALSE(prepare_experiment(more_epochs).base_from_cache);
  ExperimentConfig more_data = more_epochs;
  more_data.train_n = 120;
  EXPECT_FALSE(prepare_experiment(more_data).base_from_cache);
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace scbnn::hybrid
