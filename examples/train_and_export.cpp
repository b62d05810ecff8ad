// Train once, export a deployable ModelBundle — the training half of the
// train/export/serve split.
//
// Runs the paper's full training flow (float base model, quantized
// first-layer ladder, per-rung tail retraining), packages the result as a
// versioned binary bundle, and verifies the artifact by reloading it in
// the same process and checking bit-identical predictions on the test
// split. Serving processes (benches, near_sensor_pipeline, fleet shards)
// then cold-start from the bundle in milliseconds with zero training.
//
// Knobs (flag -> env -> default): --out/SCBNN_BUNDLE (bundle path),
// --rungs/SCBNN_BUNDLE_RUNGS (comma bits, strictly increasing),
// --backend/SCBNN_BUNDLE_BACKEND (registry name), --margin/
// SCBNN_BUNDLE_MARGIN, plus the usual SCBNN_* experiment scale variables.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hybrid/bundle.h"
#include "hybrid/experiment.h"
#include "runtime/servable.h"

using namespace scbnn;
using bench::file_bytes;

int main(int argc, char** argv) {
  hybrid::ExperimentConfig cfg;
  cfg.train_n = 3000;
  cfg.test_n = 800;
  cfg.cache_path = "scbnn_base_model_cache.bin";
  cfg.apply_env_overrides();

  const bench::Flags flags(argc, argv);
  const std::string out_path =
      flags.get_string("out", "SCBNN_BUNDLE", "scbnn_ladder.bundle");
  const std::vector<double> rung_values = flags.get_double_list(
      "rungs", "SCBNN_BUNDLE_RUNGS", "3,5,8", 1.0, 16.0);
  const std::string backend = flags.get_string(
      "backend", "SCBNN_BUNDLE_BACKEND", "sc-proposed");
  const double margin =
      flags.get_double("margin", "SCBNN_BUNDLE_MARGIN", 0.5, 0.0, 1.0);

  std::vector<unsigned> rung_bits;
  rung_bits.reserve(rung_values.size());
  for (double v : rung_values) {
    if (v != static_cast<unsigned>(v)) {
      std::fprintf(stderr, "error: --rungs values must be integers, got %g\n",
                   v);
      return 1;
    }
    if (!rung_bits.empty() && static_cast<unsigned>(v) <= rung_bits.back()) {
      std::fprintf(stderr,
                   "error: --rungs must be strictly increasing bits\n");
      return 1;
    }
    rung_bits.push_back(static_cast<unsigned>(v));
  }

  hybrid::FirstLayerDesign design;
  try {
    design = hybrid::design_from_backend(backend);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("Training %s ladder (", backend.c_str());
  for (std::size_t i = 0; i < rung_bits.size(); ++i) {
    std::printf("%s%u-bit", i > 0 ? "/" : "", rung_bits[i]);
  }
  std::printf(") — train=%zu test=%zu, export to %s\n\n", cfg.train_n,
              cfg.test_n, out_path.c_str());

  const auto train_start = runtime::ServeClock::now();
  hybrid::PreparedExperiment prep = hybrid::prepare_experiment(cfg);
  std::vector<hybrid::TrainedRung> ladder =
      hybrid::train_precision_ladder(prep, cfg, rung_bits, design);
  const double train_s = bench::ms_since(train_start) / 1e3;

  hybrid::ModelBundle bundle =
      hybrid::make_bundle(prep, cfg, std::move(ladder), margin);
  hybrid::save_bundle(bundle, out_path);
  const long bytes = file_bytes(out_path);

  // Prove the artifact: reload in this process and require bit-identical
  // predictions against the just-trained model on the whole test split.
  const auto load_start = runtime::ServeClock::now();
  hybrid::ModelBundle reloaded = hybrid::load_bundle(out_path);
  const double load_ms = bench::ms_since(load_start);

  auto trained_servable = hybrid::instantiate_servable(bundle);
  auto loaded_servable = hybrid::instantiate_servable(reloaded);
  const auto trained_pred = trained_servable->classify(prep.data.test.images);
  const auto loaded_pred = loaded_servable->classify(prep.data.test.images);
  int mismatches = 0;
  int correct = 0;
  for (std::size_t i = 0; i < trained_pred.size(); ++i) {
    if (trained_pred[i].label != loaded_pred[i].label ||
        trained_pred[i].margin != loaded_pred[i].margin ||
        trained_pred[i].rung != loaded_pred[i].rung) {
      ++mismatches;
    }
    if (loaded_pred[i].label ==
        prep.data.test.labels[i]) {
      ++correct;
    }
  }

  std::printf("bundle: %s (%ld bytes, format v%u)\n", out_path.c_str(), bytes,
              hybrid::kBundleVersion);
  std::printf("  backend           %s\n", bundle.backend.c_str());
  std::printf("  rungs             ");
  for (std::size_t i = 0; i < bundle.rungs.size(); ++i) {
    std::printf("%s%u-bit", i > 0 ? " / " : "", bundle.rungs[i].bits);
  }
  std::printf("\n  confidence margin %.2f\n", bundle.confidence_margin);
  std::printf("  dataset           train=%llu test=%llu seed=%llu %s "
              "(hash %016llx)\n",
              static_cast<unsigned long long>(bundle.fingerprint.train_n),
              static_cast<unsigned long long>(bundle.fingerprint.test_n),
              static_cast<unsigned long long>(bundle.fingerprint.seed),
              bundle.fingerprint.real_mnist ? "mnist" : "synthetic",
              static_cast<unsigned long long>(
                  bundle.fingerprint.content_hash));

  std::printf("\ntrain %.1f s -> reload %.1f ms (%.0fx cold-start "
              "reduction)\n",
              train_s, load_ms,
              load_ms > 0.0 ? train_s * 1e3 / load_ms : 0.0);
  std::printf("reloaded vs trained on %zu test frames: %s (%d mismatches), "
              "accuracy %d/%zu\n",
              trained_pred.size(),
              mismatches == 0 ? "bit-identical" : "MISMATCH", mismatches,
              correct, trained_pred.size());
  return mismatches == 0 ? 0 : 1;
}
