// Hybrid stochastic-binary network assembly (Section IV + V.B).
//
// Pipeline reproduced from the paper:
//   1. train a float LeNet-5 variant end to end (the "base model");
//   2. freeze the first convolution layer: quantize its weights to n bits
//      (per-kernel weight scaling) and replace ReLU with sign();
//   3. evaluate the frozen layer with one of the first-layer engines
//      (binary-quantized / proposed SC / conventional SC);
//   4. retrain the remaining binary layers on the frozen layer's outputs —
//      exactly the paper's retraining, since the first layer receives no
//      gradient, and orders of magnitude faster because its outputs are
//      precomputed once per (design, precision).
#pragma once

#include <memory>
#include <span>

#include "data/dataset.h"
#include "hybrid/first_layer.h"
#include "nn/network.h"
#include "nn/trainer.h"
#include "runtime/adaptive_pipeline.h"

namespace scbnn::hybrid {

/// LeNet-5 variant topology (Fig. 3). Defaults mirror the paper; benchmarks
/// shrink conv2/dense for CPU budget (the comparison is unaffected — all
/// designs share the same tail).
struct LeNetConfig {
  int conv1_kernels = 32;
  int conv2_kernels = 64;
  int dense_units = 512;
  float dropout = 0.5f;
};

/// Full float base model: conv1-ReLU-pool-conv2-ReLU-pool-dense-ReLU-
/// dropout-dense10, its weights drawn from `rng` (He for conv, Glorot for
/// dense, in layer order).
[[nodiscard]] nn::Network build_lenet(const LeNetConfig& cfg, nn::Rng& rng);
/// The same model with every parameter zero and no random draw: the shape
/// for a model whose parameters are loaded right after (nn::load_params).
[[nodiscard]] nn::Network build_lenet(const LeNetConfig& cfg);

/// The binary tail: pool-conv2-ReLU-pool-dense-ReLU-dropout-dense10,
/// consuming first-layer feature maps [N, conv1_kernels, 28, 28], its
/// weights drawn from `rng`.
[[nodiscard]] nn::Network build_tail(const LeNetConfig& cfg, nn::Rng& rng);
/// The same tail with every parameter zero and no random draw: the shape
/// for a tail whose parameters are loaded or copied in right after.
[[nodiscard]] nn::Network build_tail(const LeNetConfig& cfg);

/// Copy the trained tail parameters of a base model (built by build_lenet)
/// into a tail network (built by build_tail with the same config; it
/// overwrites every parameter, so build that tail shape-only).
void copy_tail_params(nn::Network& base, nn::Network& tail);

/// First-layer conv weights of a base model.
[[nodiscard]] const nn::Tensor& base_conv1_weights(nn::Network& base);

/// A frozen first-layer engine plus a trainable binary tail, held as a
/// one-rung runtime::AdaptivePipeline: features() spreads a batch's frames
/// across the executor with bit-identical results at any thread count, and
/// the whole network is directly a runtime::Servable (see servable()) that
/// can sit behind a runtime::Server without any adapter.
class HybridNetwork {
 public:
  HybridNetwork(std::unique_ptr<FirstLayerEngine> first_layer,
                nn::Network tail, runtime::RuntimeConfig runtime_config = {});

  /// Precompute frozen-first-layer features for a set of images.
  [[nodiscard]] nn::Tensor features(const nn::Tensor& images);

  /// Retrain the tail on precomputed features (paper Section V.B).
  std::vector<nn::EpochStats> retrain(const nn::Tensor& train_features,
                                      std::span<const int> labels,
                                      const nn::TrainConfig& config,
                                      float lr = 5e-4f);

  /// Classification accuracy on precomputed features.
  [[nodiscard]] double evaluate(const nn::Tensor& test_features,
                                std::span<const int> labels);

  /// End-to-end prediction from raw images: the tail's Network::predict
  /// (logit argmax) on this network's features.
  [[nodiscard]] std::vector<int> predict(const nn::Tensor& images);

  /// End-to-end classification with per-image softmax margins.
  [[nodiscard]] std::vector<runtime::Prediction> classify(
      const nn::Tensor& images);

  [[nodiscard]] const FirstLayerEngine& first_layer() const {
    return *pipeline_.rung(0).engine;
  }
  [[nodiscard]] nn::Network& tail() { return pipeline_.tail(); }
  /// This network as a request-serving backend for runtime::Server.
  [[nodiscard]] runtime::AdaptivePipeline& servable() noexcept {
    return pipeline_;
  }

 private:
  runtime::AdaptivePipeline pipeline_;
};

/// Misclassification rate (%) = 100 * (1 - accuracy), the paper's metric.
[[nodiscard]] inline double misclassification_pct(double acc) {
  return 100.0 * (1.0 - acc);
}

}  // namespace scbnn::hybrid
