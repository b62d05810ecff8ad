#include "hybrid/bundle.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "nn/serialize.h"
#include "runtime/backend_registry.h"

namespace scbnn::hybrid {

namespace {

namespace io = nn::io;

/// FNV-1a 64-bit over a byte run, chainable across runs via `h`.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_dataset(const data::Dataset& d, std::uint64_t h) {
  h = fnv1a(d.images.data(), d.images.size() * sizeof(float), h);
  h = fnv1a(d.labels.data(), d.labels.size() * sizeof(int), h);
  return h;
}

void write_quantized_weights(std::ostream& out,
                             const nn::QuantizedConvWeights& qw) {
  io::write_u32(out, qw.bits);
  io::write_u32(out, static_cast<std::uint32_t>(qw.kernel_size));
  io::write_u32(out, static_cast<std::uint32_t>(qw.in_channels));
  io::write_u32(out, static_cast<std::uint32_t>(qw.kernels.size()));
  for (const nn::QuantizedKernel& k : qw.kernels) {
    io::write_f32(out, k.scale);
    io::write_u32(out, static_cast<std::uint32_t>(k.levels.size()));
    for (int level : k.levels) {
      io::write_i32(out, static_cast<std::int32_t>(level));
    }
  }
}

nn::QuantizedConvWeights read_quantized_weights(std::istream& in,
                                                const std::string& where) {
  nn::QuantizedConvWeights qw;
  qw.bits = io::read_u32_bounded(in, (where + ".bits").c_str(), 1, 24);
  qw.kernel_size = static_cast<int>(
      io::read_u32_bounded(in, (where + ".kernel_size").c_str(), 1, 64));
  qw.in_channels = static_cast<int>(
      io::read_u32_bounded(in, (where + ".in_channels").c_str(), 1, 4096));
  const std::uint32_t kernel_count =
      io::read_u32_bounded(in, (where + ".kernel_count").c_str(), 1, 4096);
  const std::uint32_t fan_in = static_cast<std::uint32_t>(qw.in_channels) *
                               static_cast<std::uint32_t>(qw.kernel_size) *
                               static_cast<std::uint32_t>(qw.kernel_size);
  const std::int32_t level_cap = std::int32_t{1} << qw.bits;
  qw.kernels.reserve(kernel_count);
  for (std::uint32_t i = 0; i < kernel_count; ++i) {
    const std::string kw = where + ".kernel[" + std::to_string(i) + "]";
    nn::QuantizedKernel kernel;
    kernel.scale = io::read_f32(in, (kw + ".scale").c_str());
    const std::uint32_t levels =
        io::read_u32_bounded(in, (kw + ".levels").c_str(), fan_in, fan_in);
    kernel.levels.reserve(levels);
    for (std::uint32_t j = 0; j < levels; ++j) {
      const std::int32_t level = io::read_i32(in, (kw + ".level").c_str());
      if (level < -level_cap || level > level_cap) {
        throw std::runtime_error(kw + ": level " + std::to_string(level) +
                                 " outside +-2^" + std::to_string(qw.bits));
      }
      kernel.levels.push_back(level);
    }
    qw.kernels.push_back(std::move(kernel));
  }
  return qw;
}

/// A freshly built tail for `lenet` holding `src`'s trained parameters —
/// the one way every instantiation path stamps weights, so bundles and
/// in-process ladders stay bit-identical. Shape-only: the copy overwrites
/// every parameter.
nn::Network tail_twin(const LeNetConfig& lenet, nn::Network& src) {
  nn::Network twin = build_tail(lenet);
  nn::copy_params(src, twin);
  return twin;
}

}  // namespace

DatasetFingerprint fingerprint_dataset(const data::DataSplit& split,
                                       std::uint64_t seed, bool real_mnist) {
  DatasetFingerprint fp;
  fp.train_n = split.train.size();
  fp.test_n = split.test.size();
  fp.seed = seed;
  fp.real_mnist = real_mnist;
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  h = hash_dataset(split.train, h);
  h = hash_dataset(split.test, h);
  fp.content_hash = h;
  return fp;
}

TrainRecipe TrainRecipe::from_config(const ExperimentConfig& c) {
  TrainRecipe r;
  r.base_epochs = c.base_epochs;
  r.retrain_epochs = c.retrain_epochs;
  r.batch_size = c.batch_size;
  r.base_lr = c.base_lr;
  r.retrain_lr = c.retrain_lr;
  r.sc_soft_threshold = c.sc_soft_threshold;
  return r;
}

std::vector<unsigned> ModelBundle::ladder_bits() const {
  std::vector<unsigned> bits;
  bits.reserve(rungs.size());
  for (const BundleRung& r : rungs) bits.push_back(r.bits);
  return bits;
}

ModelBundle make_bundle(const PreparedExperiment& prep,
                        const ExperimentConfig& config,
                        std::vector<TrainedRung> ladder,
                        double confidence_margin) {
  if (ladder.empty()) {
    throw std::invalid_argument("make_bundle: empty ladder");
  }
  ModelBundle bundle;
  bundle.backend = backend_name(ladder.front().design);
  bundle.lenet = config.lenet;
  bundle.confidence_margin = confidence_margin;
  bundle.trained_seed = config.seed;
  bundle.recipe = TrainRecipe::from_config(config);
  bundle.fingerprint =
      fingerprint_dataset(prep.data, config.seed, prep.real_mnist);
  bundle.rungs.reserve(ladder.size());
  for (TrainedRung& trained : ladder) {
    if (backend_name(trained.design) != bundle.backend) {
      throw std::invalid_argument(
          "make_bundle: rungs mix backends (" + bundle.backend + " vs " +
          backend_name(trained.design) + ")");
    }
    BundleRung rung;
    rung.bits = trained.bits;
    rung.qw = std::move(trained.qw);
    rung.flc = trained.flc;
    rung.tail = std::move(trained.tail);
    bundle.rungs.push_back(std::move(rung));
  }
  return bundle;
}

void save_bundle(ModelBundle& bundle, const std::string& path) {
  if (bundle.rungs.empty()) {
    throw std::invalid_argument("save_bundle: bundle has no rungs");
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("save_bundle: cannot open " + path);

  io::write_u32(f, nn::kBundleMagic);
  io::write_u32(f, kBundleVersion);
  io::write_string(f, bundle.backend);
  io::write_u32(f, static_cast<std::uint32_t>(bundle.lenet.conv1_kernels));
  io::write_u32(f, static_cast<std::uint32_t>(bundle.lenet.conv2_kernels));
  io::write_u32(f, static_cast<std::uint32_t>(bundle.lenet.dense_units));
  io::write_f32(f, bundle.lenet.dropout);
  io::write_f64(f, bundle.confidence_margin);
  io::write_u64(f, bundle.trained_seed);
  io::write_i32(f, bundle.recipe.base_epochs);
  io::write_i32(f, bundle.recipe.retrain_epochs);
  io::write_i32(f, bundle.recipe.batch_size);
  io::write_f32(f, bundle.recipe.base_lr);
  io::write_f32(f, bundle.recipe.retrain_lr);
  io::write_f64(f, bundle.recipe.sc_soft_threshold);
  io::write_u64(f, bundle.fingerprint.train_n);
  io::write_u64(f, bundle.fingerprint.test_n);
  io::write_u64(f, bundle.fingerprint.seed);
  io::write_u32(f, bundle.fingerprint.real_mnist ? 1 : 0);
  io::write_u64(f, bundle.fingerprint.content_hash);
  io::write_u32(f, static_cast<std::uint32_t>(bundle.rungs.size()));
  for (BundleRung& rung : bundle.rungs) {
    io::write_u32(f, rung.bits);
    write_quantized_weights(f, rung.qw);
    io::write_u32(f, rung.flc.bits);
    io::write_f64(f, rung.flc.soft_threshold);
    io::write_u32(f, rung.flc.seed);
    nn::save_params(rung.tail, f);
  }
  if (!f) throw std::runtime_error("save_bundle: write failed for " + path);
}

ModelBundle load_bundle(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_bundle: cannot open " + path);
  const std::string where = "load_bundle(" + path + ")";

  if (io::read_u32(f, (where + ": magic").c_str()) != nn::kBundleMagic) {
    throw std::runtime_error(where + ": not a model bundle (bad magic)");
  }
  const std::uint32_t version = io::read_u32(f, (where + ": version").c_str());
  if (version != kBundleVersion) {
    throw std::runtime_error(where + ": unsupported bundle version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kBundleVersion) + ")");
  }

  ModelBundle bundle;
  bundle.backend = io::read_string(f, (where + ": backend").c_str());
  if (bundle.backend.empty()) {
    throw std::runtime_error(where + ": empty backend name");
  }
  bundle.lenet.conv1_kernels = static_cast<int>(
      io::read_u32_bounded(f, (where + ": conv1_kernels").c_str(), 1, 4096));
  bundle.lenet.conv2_kernels = static_cast<int>(
      io::read_u32_bounded(f, (where + ": conv2_kernels").c_str(), 1, 4096));
  bundle.lenet.dense_units = static_cast<int>(
      io::read_u32_bounded(f, (where + ": dense_units").c_str(), 1, 1 << 20));
  bundle.lenet.dropout = io::read_f32(f, (where + ": dropout").c_str());
  if (!(bundle.lenet.dropout >= 0.0f && bundle.lenet.dropout < 1.0f)) {
    throw std::runtime_error(where + ": dropout outside [0, 1)");
  }
  bundle.confidence_margin =
      io::read_f64(f, (where + ": confidence_margin").c_str());
  if (!(bundle.confidence_margin >= 0.0 && bundle.confidence_margin <= 1.0)) {
    throw std::runtime_error(where + ": confidence_margin outside [0, 1]");
  }
  bundle.trained_seed = io::read_u64(f, (where + ": trained_seed").c_str());
  bundle.recipe.base_epochs =
      io::read_i32(f, (where + ": recipe.base_epochs").c_str());
  bundle.recipe.retrain_epochs =
      io::read_i32(f, (where + ": recipe.retrain_epochs").c_str());
  bundle.recipe.batch_size =
      io::read_i32(f, (where + ": recipe.batch_size").c_str());
  bundle.recipe.base_lr = io::read_f32(f, (where + ": recipe.base_lr").c_str());
  bundle.recipe.retrain_lr =
      io::read_f32(f, (where + ": recipe.retrain_lr").c_str());
  bundle.recipe.sc_soft_threshold =
      io::read_f64(f, (where + ": recipe.sc_soft_threshold").c_str());
  bundle.fingerprint.train_n =
      io::read_u64(f, (where + ": fingerprint.train_n").c_str());
  bundle.fingerprint.test_n =
      io::read_u64(f, (where + ": fingerprint.test_n").c_str());
  bundle.fingerprint.seed =
      io::read_u64(f, (where + ": fingerprint.seed").c_str());
  bundle.fingerprint.real_mnist =
      io::read_u32_bounded(f, (where + ": fingerprint.real_mnist").c_str(), 0,
                           1) != 0;
  bundle.fingerprint.content_hash =
      io::read_u64(f, (where + ": fingerprint.content_hash").c_str());

  const std::uint32_t rung_count =
      io::read_u32_bounded(f, (where + ": rung_count").c_str(), 1, 64);
  bundle.rungs.reserve(rung_count);
  for (std::uint32_t r = 0; r < rung_count; ++r) {
    const std::string rw = where + ": rung[" + std::to_string(r) + "]";
    BundleRung rung;
    rung.bits = io::read_u32_bounded(f, (rw + ".bits").c_str(), 1, 24);
    rung.qw = read_quantized_weights(f, rw + ".qw");
    rung.flc.bits =
        io::read_u32_bounded(f, (rw + ".flc.bits").c_str(), 1, 24);
    rung.flc.soft_threshold =
        io::read_f64(f, (rw + ".flc.soft_threshold").c_str());
    if (!(rung.flc.soft_threshold >= 0.0 && rung.flc.soft_threshold <= 1.0)) {
      throw std::runtime_error(rw + ".flc.soft_threshold outside [0, 1]");
    }
    rung.flc.seed = io::read_u32(f, (rw + ".flc.seed").c_str());
    if (rung.qw.bits != rung.bits || rung.flc.bits != rung.bits) {
      throw std::runtime_error(rw + ": precision mismatch (rung " +
                               std::to_string(rung.bits) + ", weights " +
                               std::to_string(rung.qw.bits) + ", config " +
                               std::to_string(rung.flc.bits) + ")");
    }
    if (rung.qw.kernels.size() !=
        static_cast<std::size_t>(bundle.lenet.conv1_kernels)) {
      throw std::runtime_error(
          rw + ": kernel count " + std::to_string(rung.qw.kernels.size()) +
          " does not match conv1_kernels " +
          std::to_string(bundle.lenet.conv1_kernels));
    }
    if (r > 0 && rung.bits <= bundle.rungs[r - 1].bits) {
      throw std::runtime_error(where +
                               ": rung bits must be strictly increasing");
    }
    rung.tail = build_tail(bundle.lenet);  // load_params fills every value
    nn::load_params(rung.tail, f, rw + ".tail");
    bundle.rungs.push_back(std::move(rung));
  }

  if (f.peek() != std::ifstream::traits_type::eof()) {
    throw std::runtime_error(where + ": trailing bytes after last rung");
  }
  return bundle;
}

bool bundle_file_valid(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::uint32_t magic = 0, version = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  f.read(reinterpret_cast<char*>(&version), sizeof(version));
  return f && magic == nn::kBundleMagic && version == kBundleVersion;
}

std::vector<runtime::AdaptiveRung> instantiate_bundle_ladder(
    ModelBundle& bundle, std::size_t first_rung) {
  if (first_rung >= bundle.rungs.size()) {
    throw std::invalid_argument(
        "instantiate_bundle_ladder: first_rung " +
        std::to_string(first_rung) + " out of range (bundle has " +
        std::to_string(bundle.rungs.size()) + " rungs)");
  }
  const runtime::BackendRegistry& registry =
      runtime::BackendRegistry::instance();
  std::vector<runtime::AdaptiveRung> rungs;
  rungs.reserve(bundle.rungs.size() - first_rung);
  for (std::size_t r = first_rung; r < bundle.rungs.size(); ++r) {
    BundleRung& src = bundle.rungs[r];
    runtime::AdaptiveRung rung;
    rung.bits = src.bits;
    rung.engine = registry.create(bundle.backend, src.qw, src.flc);
    rung.tail = tail_twin(bundle.lenet, src.tail);
    rungs.push_back(std::move(rung));
  }
  return rungs;
}

std::unique_ptr<runtime::Servable> instantiate_servable(
    ModelBundle& bundle, runtime::RuntimeConfig config) {
  if (bundle.rungs.empty()) {
    throw std::invalid_argument("instantiate_servable: bundle has no rungs");
  }
  return std::make_unique<runtime::AdaptivePipeline>(
      instantiate_bundle_ladder(bundle), bundle.confidence_margin, config);
}

HybridNetwork instantiate_hybrid(ModelBundle& bundle, std::size_t rung_index,
                                 runtime::RuntimeConfig config) {
  BundleRung& rung = bundle.rungs.at(rung_index);
  return HybridNetwork(
      runtime::BackendRegistry::instance().create(bundle.backend, rung.qw,
                                                  rung.flc),
      tail_twin(bundle.lenet, rung.tail), config);
}

ModelBundle load_or_train_bundle(const ExperimentConfig& config,
                                 std::span<const unsigned> ladder_bits,
                                 FirstLayerDesign design,
                                 const std::string& path,
                                 const data::ResolvedData& resolved,
                                 double confidence_margin,
                                 bool* trained_fresh) {
  const std::vector<unsigned> wanted(ladder_bits.begin(), ladder_bits.end());
  const DatasetFingerprint expected =
      fingerprint_dataset(resolved.split, config.seed, resolved.real_mnist);
  if (bundle_file_valid(path)) {
    try {
      ModelBundle bundle = load_bundle(path);
      const LeNetConfig& l = bundle.lenet;
      const bool matches =
          bundle.backend == backend_name(design) &&
          bundle.ladder_bits() == wanted &&
          bundle.trained_seed == config.seed &&
          l.conv1_kernels == config.lenet.conv1_kernels &&
          l.conv2_kernels == config.lenet.conv2_kernels &&
          l.dense_units == config.lenet.dense_units &&
          l.dropout == config.lenet.dropout &&
          bundle.recipe == TrainRecipe::from_config(config) &&
          bundle.fingerprint == expected;
      if (matches) {
        // The margin is a serving-time knob, not a trained quantity — honor
        // the caller's request without invalidating the artifact.
        bundle.confidence_margin = confidence_margin;
        if (trained_fresh != nullptr) *trained_fresh = false;
        return bundle;
      }
      std::fprintf(stderr,
                   "note: bundle %s does not match the requested experiment; "
                   "retraining\n",
                   path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: ignoring unreadable bundle %s: %s\n",
                   path.c_str(), e.what());
    }
  }

  PreparedExperiment prep = prepare_experiment(config, resolved);
  std::vector<TrainedRung> ladder =
      train_precision_ladder(prep, config, ladder_bits, design);
  ModelBundle bundle =
      make_bundle(prep, config, std::move(ladder), confidence_margin);
  save_bundle(bundle, path);
  if (trained_fresh != nullptr) *trained_fresh = true;
  return bundle;
}

}  // namespace scbnn::hybrid
