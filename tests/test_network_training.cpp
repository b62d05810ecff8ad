// End-to-end training tests on small synthetic problems, plus optimizer and
// serialization behavior.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/trainer.h"

namespace scbnn::nn {
namespace {

/// Two-class ring problem: class 0 inside radius 0.5, class 1 outside —
/// not linearly separable, so the hidden layer must do real work.
void make_rings(int n, Tensor& x, std::vector<int>& y, std::uint64_t seed) {
  Rng rng(seed);
  x = Tensor({n, 2});
  y.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const bool outer = (i % 2) == 1;
    const float r = outer ? rng.uniform(0.7f, 1.0f) : rng.uniform(0.0f, 0.4f);
    const float a = rng.uniform(0.0f, 6.2831853f);
    x.at2(i, 0) = r * std::cos(a);
    x.at2(i, 1) = r * std::sin(a);
    y[static_cast<std::size_t>(i)] = outer ? 1 : 0;
  }
}

Network make_mlp(Rng& rng, int hidden = 16) {
  Network net;
  net.add<Dense>(2, hidden, rng);
  net.add<ReLU>();
  net.add<Dense>(hidden, 2, rng);
  return net;
}

TEST(Training, AdamSolvesRings) {
  Tensor x;
  std::vector<int> y;
  make_rings(600, x, y, 3);
  Rng rng(1);
  Network net = make_mlp(rng);
  Adam opt(5e-3f);
  TrainConfig tc;
  tc.epochs = 40;
  tc.batch_size = 32;
  const auto stats = fit(net, opt, x, y, tc);
  EXPECT_GT(stats.back().train_accuracy, 0.95);
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss);
  EXPECT_GT(evaluate_accuracy(net, x, y), 0.95);
}

TEST(Training, SgdMomentumAlsoLearns) {
  Tensor x;
  std::vector<int> y;
  make_rings(600, x, y, 4);
  Rng rng(2);
  Network net = make_mlp(rng);
  Sgd opt(0.05f, 0.9f);
  TrainConfig tc;
  tc.epochs = 50;
  tc.batch_size = 32;
  const auto stats = fit(net, opt, x, y, tc);
  EXPECT_GT(stats.back().train_accuracy, 0.9);
}

TEST(Training, LossDecreasesMonotonicallyOnAverage) {
  Tensor x;
  std::vector<int> y;
  make_rings(400, x, y, 5);
  Rng rng(3);
  Network net = make_mlp(rng);
  Adam opt(5e-3f);
  TrainConfig tc;
  tc.epochs = 10;
  const auto stats = fit(net, opt, x, y, tc);
  EXPECT_LT(stats.back().train_loss, 0.8 * stats.front().train_loss);
}

TEST(Training, EpochCallbackInvoked) {
  Tensor x;
  std::vector<int> y;
  make_rings(64, x, y, 6);
  Rng rng(4);
  Network net = make_mlp(rng, 4);
  Adam opt;
  TrainConfig tc;
  tc.epochs = 3;
  int calls = 0;
  (void)fit(net, opt, x, y, tc, [&calls](const EpochStats& es) {
    EXPECT_EQ(es.epoch, calls);
    ++calls;
  });
  EXPECT_EQ(calls, 3);
}

TEST(Training, DeterministicWithFixedSeeds) {
  Tensor x;
  std::vector<int> y;
  make_rings(200, x, y, 7);
  auto run = [&] {
    Rng rng(5);
    Network net = make_mlp(rng, 8);
    Adam opt(1e-3f);
    TrainConfig tc;
    tc.epochs = 4;
    tc.shuffle_seed = 99;
    const auto stats = fit(net, opt, x, y, tc);
    return stats.back().train_loss;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Network, PredictReturnsArgmax) {
  Rng rng(6);
  Network net;
  auto& dense = net.add<Dense>(2, 3, rng);
  dense.weights().fill(0.0f);
  dense.bias()[1] = 5.0f;  // always class 1
  Tensor x({4, 2});
  const auto pred = net.predict(x);
  ASSERT_EQ(pred.size(), 4u);
  for (int p : pred) EXPECT_EQ(p, 1);
}

TEST(Network, ParameterCount) {
  Rng rng(7);
  Network net = make_mlp(rng, 10);
  // Dense(2->10): 30 params; Dense(10->2): 22 params.
  EXPECT_EQ(net.parameter_count(), 2u * 10 + 10 + 10 * 2 + 2);
}

TEST(Network, GatherBatchExtractsRows) {
  Tensor x({4, 3});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const std::vector<int> idx{2, 0};
  Tensor b = gather_batch(x, idx);
  EXPECT_EQ(b.shape(), (std::vector<int>{2, 3}));
  EXPECT_EQ(b.at2(0, 0), 6.0f);
  EXPECT_EQ(b.at2(1, 0), 0.0f);
}

TEST(Serialize, RoundTripPreservesPredictions) {
  Tensor x;
  std::vector<int> y;
  make_rings(200, x, y, 8);
  Rng rng(8);
  Network net = make_mlp(rng);
  Adam opt(5e-3f);
  TrainConfig tc;
  tc.epochs = 10;
  (void)fit(net, opt, x, y, tc);
  const auto before = net.predict(x);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("scbnn_test_params_" + std::to_string(::getpid()) + ".bin"))
          .string();
  save_params(net, path);
  EXPECT_TRUE(params_file_valid(path));

  Rng rng2(999);  // different init — must be fully overwritten by load
  Network restored = make_mlp(rng2);
  load_params(restored, path);
  EXPECT_EQ(restored.predict(x), before);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsShapeMismatch) {
  Rng rng(9);
  Network small = make_mlp(rng, 4);
  Network big = make_mlp(rng, 8);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("scbnn_test_mismatch_" + std::to_string(::getpid()) + ".bin"))
          .string();
  save_params(small, path);
  EXPECT_THROW(load_params(big, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileHandled) {
  EXPECT_FALSE(params_file_valid("/nonexistent/scbnn.bin"));
  Rng rng(10);
  Network net = make_mlp(rng);
  EXPECT_THROW(load_params(net, "/nonexistent/scbnn.bin"),
               std::runtime_error);
}

TEST(Optimizer, AdamStepMovesAgainstGradient) {
  Tensor w({2});
  Tensor g({2});
  w[0] = 1.0f;
  g[0] = 1.0f;   // positive gradient -> value must decrease
  g[1] = -1.0f;  // negative gradient -> value must increase
  Adam opt(0.1f);
  opt.step({{&w, &g, "w"}});
  EXPECT_LT(w[0], 1.0f);
  EXPECT_GT(w[1], 0.0f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  Tensor w({1});
  Tensor g = Tensor::full({1}, 1.0f);
  Sgd opt(0.1f, 0.9f);
  opt.step({{&w, &g, "w"}});
  const float first_step = w[0];
  opt.step({{&w, &g, "w"}});
  const float second_step = w[0] - first_step;
  EXPECT_LT(second_step, first_step);  // both negative, second larger in mag
  EXPECT_GT(std::abs(second_step), std::abs(first_step));
}

}  // namespace
}  // namespace scbnn::nn
