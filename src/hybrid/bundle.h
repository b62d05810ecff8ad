// Persistent model artifacts: the trained system as a frozen deployable.
//
// The paper's near-sensor deployment (Lee et al. 2017) is a fixed artifact:
// quantized first-layer weights plus a binary tail retrained per precision.
// A ModelBundle captures exactly that — every precision rung's quantized
// conv weights, first-layer config, and retrained tail parameters, plus the
// ladder/serving config and a fingerprint of the dataset it was trained on
// — in one versioned binary file. Training happens once (see
// examples/train_and_export.cpp); serving processes deserialize the bundle
// and rebuild engines through the BackendRegistry with zero training, so a
// bench or server cold-starts in milliseconds instead of minutes.
//
// Reconstruction is bit-exact: engines are deterministic functions of
// (backend, quantized weights, config) and tails are rebuilt from the
// stored LeNetConfig with the stored parameters copied in, so a Servable
// instantiated from a bundle produces Predictions bit-identical to the
// originally trained one (asserted in tests/test_bundle.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "hybrid/experiment.h"
#include "hybrid/first_layer.h"
#include "hybrid/hybrid_network.h"
#include "nn/network.h"
#include "nn/quantize.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/servable.h"

namespace scbnn::hybrid {

/// Bundle format version; bump on any layout change. Loaders reject other
/// versions outright — a stale CI cache or downgraded binary must fail
/// loudly, not deserialize garbage.
inline constexpr std::uint32_t kBundleVersion = 1;

/// Identity of the training data a bundle was fitted to. Serving a bundle
/// against different data is not an error (that is what deployment is),
/// but load_or_train_bundle uses the fingerprint to decide whether a
/// cached bundle still matches the requested experiment.
struct DatasetFingerprint {
  std::uint64_t train_n = 0;
  std::uint64_t test_n = 0;
  std::uint64_t seed = 0;
  bool real_mnist = false;
  std::uint64_t content_hash = 0;  ///< FNV-1a over images + labels

  [[nodiscard]] bool operator==(const DatasetFingerprint&) const = default;
};

/// Fingerprint of a resolved data split (hashes both subsets' pixels and
/// labels, so synthetic-vs-real and regeneration changes are caught).
[[nodiscard]] DatasetFingerprint fingerprint_dataset(
    const data::DataSplit& split, std::uint64_t seed, bool real_mnist);

/// The training hyperparameters a bundle was produced with. Stored so a
/// cached artifact can be recognized as stale when the requested recipe
/// changes — epochs and learning rates change the tail weights just as
/// surely as different data does.
struct TrainRecipe {
  std::int32_t base_epochs = 0;
  std::int32_t retrain_epochs = 0;
  std::int32_t batch_size = 0;
  float base_lr = 0.0f;
  float retrain_lr = 0.0f;
  double sc_soft_threshold = 0.0;

  [[nodiscard]] static TrainRecipe from_config(const ExperimentConfig& c);
  [[nodiscard]] bool operator==(const TrainRecipe&) const = default;
};

/// One serialized precision rung: the frozen first layer as quantized
/// weights + config, and the tail retrained on that rung's features. The
/// tail's architecture comes from the owning bundle's LeNetConfig.
struct BundleRung {
  unsigned bits = 8;
  nn::QuantizedConvWeights qw;
  FirstLayerConfig flc;
  nn::Network tail;
};

/// The frozen trained artifact. Move-only (it owns live tail networks).
/// Rungs are ordered cheapest first with strictly increasing bits; a
/// single-rung bundle is a fixed-precision model.
struct ModelBundle {
  std::string backend;  ///< BackendRegistry name of every rung's engine
  LeNetConfig lenet;    ///< tail architecture the params belong to
  double confidence_margin = 0.5;  ///< ladder escalation threshold at export
  std::uint64_t trained_seed = 0;  ///< ExperimentConfig::seed used to train
  TrainRecipe recipe;              ///< hyperparameters used to train
  DatasetFingerprint fingerprint;
  std::vector<BundleRung> rungs;

  [[nodiscard]] std::vector<unsigned> ladder_bits() const;
};

/// Package a trained ladder as a bundle (consumes the rungs' tails). All
/// rungs must share `design`'s backend; the fingerprint is taken from
/// `prep`'s resolved data.
[[nodiscard]] ModelBundle make_bundle(const PreparedExperiment& prep,
                                      const ExperimentConfig& config,
                                      std::vector<TrainedRung> ladder,
                                      double confidence_margin = 0.5);

/// Write `bundle` to `path` (versioned binary, nn::kBundleMagic). Non-const
/// because Network::params() is a mutable view; the bundle is only read.
void save_bundle(ModelBundle& bundle, const std::string& path);

/// Read a bundle back. Throws std::runtime_error naming the offending
/// field on bad magic, version mismatch, truncation, dimension overflow,
/// inconsistent rung shapes, or trailing bytes.
[[nodiscard]] ModelBundle load_bundle(const std::string& path);

/// True if `path` exists and starts with the bundle magic + a supported
/// version (cheap header sniff; the payload may still be corrupt).
[[nodiscard]] bool bundle_file_valid(const std::string& path);

/// Fresh AdaptivePipeline rungs from a bundle's rungs [first_rung, end):
/// engines resolved through the BackendRegistry, tails rebuilt from the
/// bundle's LeNetConfig with the stored parameters copied in. Zero
/// training. Call once per pipeline instance (the pipeline consumes its
/// rungs).
[[nodiscard]] std::vector<runtime::AdaptiveRung> instantiate_bundle_ladder(
    ModelBundle& bundle, std::size_t first_rung = 0);

/// A ready-to-serve backend from a bundle, with zero training: an
/// AdaptivePipeline over every rung, escalating at the bundle's confidence
/// margin (a single-rung bundle is a fixed-precision model). `config` may
/// carry a shared executor so many bundles serve from one pool.
[[nodiscard]] std::unique_ptr<runtime::Servable> instantiate_servable(
    ModelBundle& bundle, runtime::RuntimeConfig config = {});

/// A HybridNetwork over one rung of a bundle (features/retrain/evaluate
/// workflows on a deserialized model).
[[nodiscard]] HybridNetwork instantiate_hybrid(
    ModelBundle& bundle, std::size_t rung_index,
    runtime::RuntimeConfig config = {});

/// The bench/example cold-start path: if `path` holds a loadable bundle
/// whose backend, ladder, LeNet shape, seed, training recipe, and dataset
/// fingerprint all match the request, return it without any training;
/// otherwise run the full train flow on `resolved` (the caller's
/// already-resolved dataset — no second resolve), save the result to
/// `path`, and return it. `trained_fresh` (optional) reports which path
/// was taken.
[[nodiscard]] ModelBundle load_or_train_bundle(
    const ExperimentConfig& config, std::span<const unsigned> ladder_bits,
    FirstLayerDesign design, const std::string& path,
    const data::ResolvedData& resolved, double confidence_margin = 0.5,
    bool* trained_fresh = nullptr);

}  // namespace scbnn::hybrid
