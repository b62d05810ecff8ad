// Experiment orchestration for the Table 3 accuracy study and the examples.
//
// Encapsulates the paper's evaluation flow: resolve dataset -> train float
// base model (cached) -> per (design, precision): quantize first layer,
// compute frozen features, retrain the binary tail, measure test
// misclassification. Scale knobs allow CPU-budget runs; the comparison
// structure is identical at any scale because all designs share the same
// base model, dataset, and tail-training recipe.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "hybrid/first_layer.h"
#include "hybrid/hybrid_network.h"
#include "runtime/adaptive_pipeline.h"

namespace scbnn::hybrid {

struct ExperimentConfig {
  std::size_t train_n = 4000;
  std::size_t test_n = 1000;
  LeNetConfig lenet{32, 24, 96, 0.25f};  ///< CPU-scaled LeNet-5 variant
  int base_epochs = 6;
  int retrain_epochs = 3;
  float base_lr = 1e-3f;
  float retrain_lr = 5e-4f;
  int batch_size = 64;
  double sc_soft_threshold = 0.30;  ///< dead zone for SC engines only
  std::uint64_t seed = 7;
  /// Base-model cache ("" = no cache). It loads only when the dataset,
  /// seed, LeNet shape, base_epochs, base_lr and batch_size it was trained
  /// on all match this config; otherwise the model retrains and the cache
  /// is overwritten.
  std::string cache_path;
  bool verbose = false;
  unsigned threads = 0;  ///< first-layer runtime workers; 0 = hardware

  /// Read scale overrides from SCBNN_* environment variables
  /// (SCBNN_TRAIN_N, SCBNN_TEST_N, SCBNN_BASE_EPOCHS, SCBNN_RETRAIN_EPOCHS,
  /// SCBNN_THREADS, SCBNN_QUICK, SCBNN_FULL, SCBNN_VERBOSE). Malformed or
  /// out-of-range values are rejected with a warning on stderr and the
  /// current value is kept.
  void apply_env_overrides();

  /// Runtime configuration for the first-layer serving engine.
  [[nodiscard]] runtime::RuntimeConfig runtime_config() const {
    runtime::RuntimeConfig rc;
    rc.threads = threads;
    return rc;
  }
};

struct PreparedExperiment {
  data::DataSplit data;
  bool real_mnist = false;
  nn::Network base;             ///< trained float base model
  double float_accuracy = 0.0;  ///< base model test accuracy
  bool base_from_cache = false;
};

/// Resolve data and train (or load) the float base model.
[[nodiscard]] PreparedExperiment prepare_experiment(
    const ExperimentConfig& config);

/// Same, but reuse a dataset the caller already resolved (taken by value:
/// copy or move it in) instead of resolving a second time.
[[nodiscard]] PreparedExperiment prepare_experiment(
    const ExperimentConfig& config, data::ResolvedData resolved);

struct DesignPointResult {
  FirstLayerDesign design{};
  unsigned bits = 8;
  double misclassification_pct = 0.0;         ///< after tail retraining
  double before_retrain_pct = 0.0;            ///< frozen layer, original tail
  double feature_agreement_vs_binary = 1.0;   ///< SC-vs-binary feature match
};

/// Run one (design, precision) cell of Table 3.
[[nodiscard]] DesignPointResult evaluate_design_point(
    PreparedExperiment& prep, const ExperimentConfig& config,
    FirstLayerDesign design, unsigned bits);

/// One trained precision rung of an adaptive ladder: everything needed to
/// instantiate fresh engine + tail pairs for a runtime::AdaptivePipeline.
/// Engines are deterministic functions of (design, weights, config), so
/// instantiation is cheap and bit-reproducible.
struct TrainedRung {
  unsigned bits = 8;
  FirstLayerDesign design = FirstLayerDesign::kScProposed;
  nn::QuantizedConvWeights qw;
  FirstLayerConfig flc;
  nn::Network tail;  ///< retrained on this rung's frozen features
};

/// Quantize the base model's first layer at every precision in `ladder`
/// (strictly increasing) and retrain one binary tail per rung on its
/// features; feature passes run through the threaded serving runtime.
[[nodiscard]] std::vector<TrainedRung> train_precision_ladder(
    PreparedExperiment& prep, const ExperimentConfig& config,
    std::span<const unsigned> ladder,
    FirstLayerDesign design = FirstLayerDesign::kScProposed);

/// Fresh pipeline rungs from trained ladder rungs: engines rebuilt through
/// the registry, trained tail weights copied into newly built twins. Call
/// once per AdaptivePipeline instance (the pipeline consumes its rungs).
/// Accepts any contiguous slice — e.g. just the top rung for a fixed
/// highest-precision baseline. The rungs are only read, but
/// Network::params() is a mutable view, so the span is non-const.
[[nodiscard]] std::vector<runtime::AdaptiveRung> instantiate_ladder(
    std::span<TrainedRung> ladder, const ExperimentConfig& config);

}  // namespace scbnn::hybrid
