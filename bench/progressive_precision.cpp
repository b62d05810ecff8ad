// Progressive-precision classification: the dynamic energy-accuracy
// trade-off of Kim et al. [16] realized on the paper's hybrid design.
//
// The repo's Fig. 9 margin sweep. Uses 3-, 5- and 8-bit precision rungs
// with retrained tails, then sweeps the confidence margin through the
// batched runtime::AdaptivePipeline: a margin of 0 always accepts the cheap
// 3-bit verdict; a margin of 1 always escalates to 8-bit. In between, easy
// inputs stop early and the AVERAGE energy approaches the cheap rung while
// accuracy approaches the precise rung. The whole test split is served as
// one batch per margin, so the per-rung breakdown comes straight from the
// pipeline's stats. Energy is the pipeline's own: each frame pays the
// calibrated per-frame energy (hw::backend_energy_per_frame_j) of every
// rung it enters, the same model Server, sessions and perfbench report.
//
// The ladder is a persistent ModelBundle (--bundle/SCBNN_BUNDLE, default
// scbnn_adaptive.bundle): a matching bundle on disk means zero training at
// startup.
//
// Knobs (flag -> env -> default): --bundle/SCBNN_BUNDLE,
// --margins/SCBNN_PP_MARGINS (comma list in [0,1]), plus the same SCBNN_*
// environment variables as table3_accuracy.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/dataset.h"
#include "hw/report.h"
#include "hybrid/bundle.h"
#include "hybrid/experiment.h"
#include "runtime/adaptive_pipeline.h"

int main(int argc, char** argv) {
  using namespace scbnn;

  hybrid::ExperimentConfig cfg;
  cfg.train_n = 3000;
  cfg.test_n = 800;
  cfg.cache_path = "scbnn_base_model_cache.bin";
  cfg.apply_env_overrides();

  const bench::Flags flags(argc, argv);
  const std::string bundle_path =
      flags.get_string("bundle", "SCBNN_BUNDLE", "scbnn_adaptive.bundle");
  const std::vector<double> margins = flags.get_double_list(
      "margins", "SCBNN_PP_MARGINS", "0.0,0.2,0.4,0.6,0.8,0.95,1.0", 0.0,
      1.0);
  const std::vector<unsigned> rung_bits{3u, 5u, 8u};

  std::printf("Progressive precision on the hybrid design (rungs:");
  for (unsigned b : rung_bits) std::printf(" %u", b);
  std::printf(" bits)\ntrain=%zu test=%zu\n\n", cfg.train_n, cfg.test_n);
  auto resolved = data::resolve_dataset(cfg.train_n, cfg.test_n, cfg.seed);
  const data::Dataset& test = resolved.split.test;
  bool trained_fresh = false;
  hybrid::ModelBundle bundle = hybrid::load_or_train_bundle(
      cfg, rung_bits, hybrid::FirstLayerDesign::kScProposed, bundle_path,
      resolved, 0.5, &trained_fresh);
  std::printf("%s ladder from %s\n\n",
              trained_fresh ? "trained and exported" : "loaded",
              bundle_path.c_str());

  // The fixed 8-bit design, priced per frame by the same model the
  // pipeline charges each rung with.
  const double fixed8_nj =
      1e9 * hw::backend_energy_per_frame_j(bundle.backend,
                                           bundle.rungs.back().bits,
                                           bundle.lenet.conv1_kernels);
  const int n = static_cast<int>(test.size());

  std::printf("%10s %12s %14s %16s %18s %14s\n", "margin", "miscl (%)",
              "avg cycles", "avg energy (nJ)", "vs fixed 8-bit", "8b usage");
  for (double margin : margins) {
    runtime::AdaptivePipeline pipeline(
        hybrid::instantiate_bundle_ladder(bundle), margin,
        cfg.runtime_config());
    const std::vector<int> predictions = pipeline.predict(test.images);
    const runtime::PipelineStats& stats = pipeline.last_stats();

    int correct = 0;
    for (int i = 0; i < n; ++i) {
      if (predictions[static_cast<std::size_t>(i)] ==
          test.labels[static_cast<std::size_t>(i)]) {
        ++correct;
      }
    }
    const double avg_cycles = stats.mean_cycles_per_image();
    const double avg_nj = stats.energy_j * 1e9 / n;
    const int entered_last = stats.rungs.back().images_in;
    std::printf("%10.2f %12.2f %14.1f %16.2f %17.1f%% %13.1f%%\n", margin,
                100.0 * (1.0 - static_cast<double>(correct) / n), avg_cycles,
                avg_nj, 100.0 * avg_nj / fixed8_nj,
                100.0 * entered_last / n);
  }

  std::printf("\nReading: between the extremes, most inputs accept the "
              "cheap rung and the average energy\nfalls far below the "
              "fixed 8-bit design at near-8-bit accuracy — the dynamic "
              "trade-off of\nKim et al. [16], here with the paper's more "
              "accurate deterministic SC arithmetic.\n");
  return 0;
}
