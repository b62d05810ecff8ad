#include "hybrid/experiment.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "hybrid/bundle.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/trainer.h"

namespace scbnn::hybrid {

namespace {

/// Maximum accepted by any SCBNN_* size/count override — far above every
/// legitimate setting, low enough to catch garbage like "1e99" remnants.
constexpr long kEnvMax = 100'000'000;

/// Strict integer parse of an SCBNN_* variable into [lo, hi]. The whole
/// value must be digits (optional leading '+'): anything else — empty,
/// negative, trailing junk, overflow, out of range — is rejected with a
/// warning on stderr and `fallback` is kept, instead of the undefined-ish
/// atol parse that silently turned "4k" into 4 and "banana" into the
/// default.
std::size_t env_size(const char* name, std::size_t fallback, long lo = 1,
                     long hi = kEnvMax) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* p = v;
  if (*p == '+') ++p;
  // Reject anything strtol would quietly tolerate (leading whitespace) or
  // trail past (suffix junk): the value must be digits, start to end.
  bool digits = *p != '\0';
  for (const char* c = p; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') digits = false;
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = digits ? std::strtol(p, &end, 10) : 0;
  if (!digits || errno == ERANGE || parsed < lo || parsed > hi) {
    std::fprintf(stderr,
                 "warning: ignoring malformed %s='%s' (want integer in "
                 "[%ld, %ld]); keeping %zu\n",
                 name, v, lo, hi, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// First word of a base-model cache file (see base_identity).
constexpr std::uint32_t kBaseCacheMagic = 0x5CB11C01;

/// Everything the trained base model depends on, as the bytes that open
/// its cache file: the dataset fingerprint (sizes, seed, content hash),
/// the LeNet shape and the base-training recipe. A parameter snapshot
/// (nn::save_params) follows them, and a cache loads only when these bytes
/// match exactly.
std::string base_identity(const ExperimentConfig& c,
                          const PreparedExperiment& prep) {
  namespace io = nn::io;
  const DatasetFingerprint fp =
      fingerprint_dataset(prep.data, c.seed, prep.real_mnist);
  std::ostringstream out;
  io::write_u32(out, kBaseCacheMagic);
  io::write_u64(out, fp.train_n);
  io::write_u64(out, fp.test_n);
  io::write_u64(out, fp.seed);
  io::write_u32(out, fp.real_mnist ? 1 : 0);
  io::write_u64(out, fp.content_hash);
  io::write_i32(out, c.lenet.conv1_kernels);
  io::write_i32(out, c.lenet.conv2_kernels);
  io::write_i32(out, c.lenet.dense_units);
  io::write_f32(out, c.lenet.dropout);
  io::write_i32(out, c.base_epochs);
  io::write_f32(out, c.base_lr);
  io::write_i32(out, c.batch_size);
  return std::move(out).str();
}

}  // namespace

void ExperimentConfig::apply_env_overrides() {
  train_n = env_size("SCBNN_TRAIN_N", train_n);
  test_n = env_size("SCBNN_TEST_N", test_n);
  base_epochs = static_cast<int>(env_size("SCBNN_BASE_EPOCHS",
                                          static_cast<std::size_t>(base_epochs)));
  retrain_epochs = static_cast<int>(env_size(
      "SCBNN_RETRAIN_EPOCHS", static_cast<std::size_t>(retrain_epochs)));
  // 0 is the documented "auto" setting for threads; the cap keeps a wild
  // value from asking the pool for thousands of OS threads.
  threads = static_cast<unsigned>(env_size(
      "SCBNN_THREADS", static_cast<std::size_t>(threads), /*lo=*/0,
      /*hi=*/256));
  if (env_flag("SCBNN_QUICK")) {
    train_n = 1500;
    test_n = 500;
    base_epochs = 3;
    retrain_epochs = 1;
    lenet.conv2_kernels = 16;
    lenet.dense_units = 64;
  }
  if (env_flag("SCBNN_FULL")) {
    train_n = 12000;
    test_n = 2000;
    base_epochs = 10;
    retrain_epochs = 3;
    lenet.conv2_kernels = 64;
    lenet.dense_units = 256;
  }
  if (env_flag("SCBNN_VERBOSE")) verbose = true;
}

PreparedExperiment prepare_experiment(const ExperimentConfig& config) {
  return prepare_experiment(config,
                            data::resolve_dataset(config.train_n,
                                                  config.test_n,
                                                  config.seed));
}

PreparedExperiment prepare_experiment(const ExperimentConfig& config,
                                      data::ResolvedData resolved) {
  PreparedExperiment prep;
  prep.data = std::move(resolved.split);
  prep.real_mnist = resolved.real_mnist;

  const std::string identity =
      config.cache_path.empty() ? std::string() : base_identity(config, prep);
  if (!identity.empty()) {
    std::ifstream f(config.cache_path, std::ios::binary);
    std::string header(identity.size(), '\0');
    if (f.read(header.data(), static_cast<std::streamsize>(header.size())) &&
        header == identity) {
      // Shape-only: the snapshot overwrites every value.
      nn::Network cached = build_lenet(config.lenet);
      try {
        nn::load_params(cached, f, config.cache_path);
        prep.base = std::move(cached);
        prep.base_from_cache = true;
      } catch (const std::exception&) {
        // A corrupt snapshot: retrain below.
      }
    }
  }

  if (!prep.base_from_cache) {
    nn::Rng rng(config.seed);
    prep.base = build_lenet(config.lenet, rng);
    nn::Adam opt(config.base_lr);
    nn::TrainConfig tc;
    tc.epochs = config.base_epochs;
    tc.batch_size = config.batch_size;
    tc.verbose = config.verbose;
    tc.shuffle_seed = config.seed;
    (void)nn::fit(prep.base, opt, prep.data.train.images,
                  prep.data.train.labels, tc);
    if (!identity.empty()) {
      std::ofstream f(config.cache_path, std::ios::binary | std::ios::trunc);
      f.write(identity.data(), static_cast<std::streamsize>(identity.size()));
      nn::save_params(prep.base, f);
      if (!f) {
        throw std::runtime_error("prepare_experiment: cannot write cache " +
                                 config.cache_path);
      }
    }
  }

  prep.float_accuracy = nn::evaluate_accuracy(
      prep.base, prep.data.test.images, prep.data.test.labels);
  return prep;
}

DesignPointResult evaluate_design_point(PreparedExperiment& prep,
                                        const ExperimentConfig& config,
                                        FirstLayerDesign design,
                                        unsigned bits) {
  DesignPointResult result;
  result.design = design;
  result.bits = bits;

  const nn::QuantizedConvWeights qw =
      nn::quantize_conv_weights(base_conv1_weights(prep.base), bits);

  FirstLayerConfig flc;
  flc.bits = bits;
  // Soft thresholding mitigates SC's inaccuracy near the zero crossing
  // (Kim et al. [16]); the exact binary design does not need it.
  flc.soft_threshold = design == FirstLayerDesign::kBinaryQuantized
                           ? 0.0
                           : config.sc_soft_threshold;
  flc.seed = static_cast<std::uint32_t>(config.seed | 1u);

  // Tail initialized from the trained base model (= paper's retraining
  // starting point), evaluated before and after retraining. The first
  // layer serves batches through the threaded inference runtime.
  nn::Network tail = build_tail(config.lenet);
  copy_tail_params(prep.base, tail);
  HybridNetwork hybrid(make_first_layer_engine(design, qw, flc),
                       std::move(tail), config.runtime_config());

  nn::Tensor train_feat = hybrid.features(prep.data.train.images);
  nn::Tensor test_feat = hybrid.features(prep.data.test.images);

  // Feature-level agreement against the exact quantized-binary reference
  // (how much noise SC injects before any retraining).
  if (design != FirstLayerDesign::kBinaryQuantized) {
    // Same soft threshold on the reference so the metric measures SC
    // arithmetic noise, not the intentional dead zone.
    // features() never runs the reference's tail; it only completes the
    // rung, so it stays shape-only.
    HybridNetwork ref(
        make_first_layer_engine(FirstLayerDesign::kBinaryQuantized, qw, flc),
        build_tail(config.lenet), config.runtime_config());
    nn::Tensor ref_feat = ref.features(prep.data.test.images);
    std::size_t same = 0;
    for (std::size_t i = 0; i < ref_feat.size(); ++i) {
      if (ref_feat[i] == test_feat[i]) ++same;
    }
    result.feature_agreement_vs_binary =
        static_cast<double>(same) / static_cast<double>(ref_feat.size());
  }

  result.before_retrain_pct = misclassification_pct(
      hybrid.evaluate(test_feat, prep.data.test.labels));

  nn::TrainConfig tc;
  tc.epochs = config.retrain_epochs;
  tc.batch_size = config.batch_size;
  tc.verbose = config.verbose;
  tc.shuffle_seed = config.seed + bits;
  (void)hybrid.retrain(train_feat, prep.data.train.labels, tc,
                       config.retrain_lr);

  result.misclassification_pct = misclassification_pct(
      hybrid.evaluate(test_feat, prep.data.test.labels));
  return result;
}

std::vector<TrainedRung> train_precision_ladder(PreparedExperiment& prep,
                                                const ExperimentConfig& config,
                                                std::span<const unsigned> ladder,
                                                FirstLayerDesign design) {
  if (ladder.empty()) {
    throw std::invalid_argument("train_precision_ladder: empty ladder");
  }
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    if (ladder[i] <= ladder[i - 1]) {
      throw std::invalid_argument(
          "train_precision_ladder: bits must be strictly increasing");
    }
  }

  std::vector<TrainedRung> rungs;
  rungs.reserve(ladder.size());
  for (unsigned bits : ladder) {
    TrainedRung rung;
    rung.bits = bits;
    rung.design = design;
    rung.qw = nn::quantize_conv_weights(base_conv1_weights(prep.base), bits);
    rung.flc.bits = bits;
    rung.flc.soft_threshold = design == FirstLayerDesign::kBinaryQuantized
                                  ? 0.0
                                  : config.sc_soft_threshold;
    rung.flc.seed = static_cast<std::uint32_t>(config.seed | 1u);

    nn::Network tail = build_tail(config.lenet);
    copy_tail_params(prep.base, tail);
    HybridNetwork hybrid(make_first_layer_engine(design, rung.qw, rung.flc),
                         std::move(tail), config.runtime_config());
    const nn::Tensor features = hybrid.features(prep.data.train.images);
    nn::TrainConfig tc;
    tc.epochs = config.retrain_epochs;
    tc.batch_size = config.batch_size;
    tc.verbose = config.verbose;
    tc.shuffle_seed = config.seed + bits;
    (void)hybrid.retrain(features, prep.data.train.labels, tc,
                         config.retrain_lr);

    rung.tail = build_tail(config.lenet);
    nn::copy_params(hybrid.tail(), rung.tail);
    rungs.push_back(std::move(rung));
  }
  return rungs;
}

std::vector<runtime::AdaptiveRung> instantiate_ladder(
    std::span<TrainedRung> ladder, const ExperimentConfig& config) {
  std::vector<runtime::AdaptiveRung> rungs;
  rungs.reserve(ladder.size());
  for (TrainedRung& trained : ladder) {
    runtime::AdaptiveRung rung;
    rung.bits = trained.bits;
    rung.engine =
        make_first_layer_engine(trained.design, trained.qw, trained.flc);
    rung.tail = build_tail(config.lenet);
    nn::copy_params(trained.tail, rung.tail);
    rungs.push_back(std::move(rung));
  }
  return rungs;
}

}  // namespace scbnn::hybrid
