// ModelBundle tests: save -> load -> instantiate is bit-identical to the
// freshly trained original (both SC backends and the adaptive ladder),
// load_or_train_bundle's cache semantics, and the corrupt/version-mismatch/
// truncation/overflow error paths of the bundle format and the underlying
// nn::serialize primitives.
#include "hybrid/bundle.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hybrid/experiment.h"
#include "nn/serialize.h"
#include "runtime/adaptive_pipeline.h"

namespace scbnn::hybrid {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.train_n = 120;
  cfg.test_n = 48;
  cfg.lenet = {8, 8, 32, 0.0f};
  cfg.base_epochs = 1;
  cfg.retrain_epochs = 1;
  cfg.seed = 11;
  return cfg;
}

/// One trained experiment shared by the round-trip tests (training is the
/// slow part; every test reuses the same artifacts read-only).
struct TrainedArtifacts {
  ExperimentConfig cfg = tiny_config();
  PreparedExperiment prep;
  std::vector<runtime::Prediction> original;  ///< trained ladder, margin 0.4
  ModelBundle bundle;                         ///< same ladder, bundled
};

TrainedArtifacts& artifacts() {
  static TrainedArtifacts* a = [] {
    auto* art = new TrainedArtifacts;
    art->prep = prepare_experiment(art->cfg);
    const std::vector<unsigned> bits = {3u, 6u};
    std::vector<TrainedRung> ladder =
        train_precision_ladder(art->prep, art->cfg, bits);
    runtime::AdaptivePipeline trained(
        instantiate_ladder(ladder, art->cfg), 0.4,
        art->cfg.runtime_config());
    art->original = trained.classify(art->prep.data.test.images);
    art->bundle =
        make_bundle(art->prep, art->cfg, std::move(ladder), 0.4);
    return art;
  }();
  return *a;
}

void expect_bit_identical(const std::vector<runtime::Prediction>& a,
                          const std::vector<runtime::Prediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "frame " << i;
    EXPECT_EQ(a[i].margin, b[i].margin) << "frame " << i;
    EXPECT_EQ(a[i].rung, b[i].rung) << "frame " << i;
    EXPECT_EQ(a[i].bits_used, b[i].bits_used) << "frame " << i;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A bundle file in the working directory, named for this process so two
/// copies of this binary running at once never share one, and removed when
/// the test ends.
struct ScratchBundle {
  explicit ScratchBundle(const std::string& stem)
      : path(stem + "_" + std::to_string(::getpid()) + ".bundle") {
    std::remove(path.c_str());
  }
  ~ScratchBundle() { std::remove(path.c_str()); }
  ScratchBundle(const ScratchBundle&) = delete;
  ScratchBundle& operator=(const ScratchBundle&) = delete;
  const std::string path;
};

TEST(DatasetFingerprint, DetectsContentAndShapeChanges) {
  TrainedArtifacts& art = artifacts();
  const DatasetFingerprint fp =
      fingerprint_dataset(art.prep.data, art.cfg.seed, false);
  EXPECT_EQ(fp, fingerprint_dataset(art.prep.data, art.cfg.seed, false));

  data::DataSplit copy;
  copy.train.images = art.prep.data.train.images;
  copy.train.labels = art.prep.data.train.labels;
  copy.test.images = art.prep.data.test.images;
  copy.test.labels = art.prep.data.test.labels;
  copy.train.images[0] += 0.25f;
  EXPECT_NE(fingerprint_dataset(copy, art.cfg.seed, false).content_hash,
            fp.content_hash);
  EXPECT_FALSE(fingerprint_dataset(art.prep.data, art.cfg.seed + 1, false) ==
               fp);
}

TEST(BundleRoundTrip, AdaptiveLadderBitIdenticalAfterReload) {
  TrainedArtifacts& art = artifacts();
  const ScratchBundle file("test_bundle_adaptive");
  const std::string& path = file.path;
  save_bundle(art.bundle, path);
  EXPECT_TRUE(bundle_file_valid(path));

  ModelBundle loaded = load_bundle(path);
  EXPECT_EQ(loaded.backend, "sc-proposed");
  EXPECT_EQ(loaded.ladder_bits(), (std::vector<unsigned>{3u, 6u}));
  EXPECT_EQ(loaded.confidence_margin, 0.4);
  EXPECT_EQ(loaded.fingerprint,
            fingerprint_dataset(art.prep.data, art.cfg.seed,
                                art.prep.real_mnist));

  auto servable = instantiate_servable(loaded, art.cfg.runtime_config());
  expect_bit_identical(servable->classify(art.prep.data.test.images),
                       art.original);
}

TEST(BundleRoundTrip, InstantiatedLadderMatchesAcrossThreadCounts) {
  TrainedArtifacts& art = artifacts();
  for (unsigned threads : {1u, 3u}) {
    runtime::RuntimeConfig rc;
    rc.threads = threads;
    runtime::AdaptivePipeline pipeline(instantiate_bundle_ladder(art.bundle),
                                       0.4, rc);
    expect_bit_identical(pipeline.classify(art.prep.data.test.images),
                         art.original);
  }
}

TEST(BundleRoundTrip, SingleRungConventionalScBitIdentical) {
  TrainedArtifacts& art = artifacts();
  ExperimentConfig cfg = art.cfg;
  const std::vector<unsigned> bits = {4u};
  std::vector<TrainedRung> ladder = train_precision_ladder(
      art.prep, cfg, bits, FirstLayerDesign::kScConventional);

  // The freshly trained original: engine + tail as a one-rung pipeline.
  runtime::AdaptivePipeline trained(instantiate_ladder(ladder, cfg), 0.0,
                                    cfg.runtime_config());
  const auto original = trained.classify(art.prep.data.test.images);

  ModelBundle bundle = make_bundle(art.prep, cfg, std::move(ladder), 0.5);
  const ScratchBundle file("test_bundle_conventional");
  const std::string& path = file.path;
  save_bundle(bundle, path);
  ModelBundle loaded = load_bundle(path);
  EXPECT_EQ(loaded.backend, "sc-conventional");

  auto servable = instantiate_servable(loaded, cfg.runtime_config());
  EXPECT_EQ(servable->name(), trained.name());
  expect_bit_identical(servable->classify(art.prep.data.test.images),
                       original);
}

TEST(BundleRoundTrip, HybridNetworkFromBundleMatchesServable) {
  TrainedArtifacts& art = artifacts();
  const ScratchBundle file("test_bundle_adaptive");
  const std::string& path = file.path;
  save_bundle(art.bundle, path);
  ModelBundle loaded = load_bundle(path);

  HybridNetwork hybrid =
      instantiate_hybrid(loaded, 1, art.cfg.runtime_config());
  // Rung 1 is the 6-bit top rung: every frame the ladder escalated to the
  // top must get the same label the plain hybrid network computes.
  const auto direct = hybrid.classify(art.prep.data.test.images);
  for (std::size_t i = 0; i < art.original.size(); ++i) {
    if (art.original[i].rung == 1) {
      EXPECT_EQ(direct[i].label, art.original[i].label) << "frame " << i;
      EXPECT_EQ(direct[i].margin, art.original[i].margin) << "frame " << i;
    }
  }
}

TEST(BundleRoundTrip, ParamsFileValidCoversBundleMagic) {
  TrainedArtifacts& art = artifacts();
  const ScratchBundle file("test_bundle_magic");
  const std::string& path = file.path;
  save_bundle(art.bundle, path);
  EXPECT_TRUE(nn::params_file_valid(path));
  EXPECT_TRUE(bundle_file_valid(path));
  EXPECT_FALSE(bundle_file_valid("/nonexistent/scbnn.bundle"));
}

TEST(BundleErrors, RejectsBadMagicVersionTruncationAndTrailing) {
  TrainedArtifacts& art = artifacts();
  const ScratchBundle file("test_bundle_corrupt");
  const std::string& path = file.path;
  save_bundle(art.bundle, path);
  const std::string good = read_file(path);
  ASSERT_GT(good.size(), 64u);

  {  // magic
    std::string bad = good;
    bad[0] = static_cast<char>(bad[0] ^ 0x5A);
    write_file(path, bad);
    EXPECT_FALSE(bundle_file_valid(path));
    EXPECT_THROW((void)load_bundle(path), std::runtime_error);
  }
  {  // version
    std::string bad = good;
    bad[4] = static_cast<char>(bad[4] + 1);
    write_file(path, bad);
    EXPECT_FALSE(bundle_file_valid(path));
    try {
      (void)load_bundle(path);
      FAIL() << "expected version mismatch";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
  {  // truncation, several cut points
    for (std::size_t cut : {good.size() / 4, good.size() / 2,
                            good.size() - 3}) {
      write_file(path, good.substr(0, cut));
      EXPECT_THROW((void)load_bundle(path), std::runtime_error)
          << "cut at " << cut;
    }
  }
  {  // trailing bytes
    write_file(path, good + "xx");
    try {
      (void)load_bundle(path);
      FAIL() << "expected trailing-bytes error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
    }
  }
  write_file(path, good);
  EXPECT_NO_THROW((void)load_bundle(path));
}

TEST(SerializeIo, TensorReaderRejectsOverflowAndTruncation) {
  {  // dimension overflow: 4 dims of 2^24 elements each
    std::stringstream ss;
    nn::io::write_u32(ss, 4);
    for (int i = 0; i < 4; ++i) nn::io::write_u32(ss, 1u << 24);
    EXPECT_THROW((void)nn::io::read_tensor(ss, "overflow"),
                 std::runtime_error);
  }
  {  // zero dimension
    std::stringstream ss;
    nn::io::write_u32(ss, 1);
    nn::io::write_u32(ss, 0);
    EXPECT_THROW((void)nn::io::read_tensor(ss, "zero-dim"),
                 std::runtime_error);
  }
  {  // truncated payload
    std::stringstream ss;
    nn::io::write_u32(ss, 1);
    nn::io::write_u32(ss, 8);
    nn::io::write_f32(ss, 1.0f);  // 1 of 8 floats
    EXPECT_THROW((void)nn::io::read_tensor(ss, "truncated"),
                 std::runtime_error);
  }
  {  // round trip
    nn::Tensor t({2, 3});
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(i) * 0.5f;
    }
    std::stringstream ss;
    nn::io::write_tensor(ss, t);
    const nn::Tensor back = nn::io::read_tensor(ss, "round-trip");
    ASSERT_EQ(back.shape(), t.shape());
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(back[i], t[i]);
  }
}

TEST(LoadOrTrain, TrainsOnceThenLoadsBitIdentical) {
  ExperimentConfig cfg = tiny_config();
  cfg.train_n = 80;
  cfg.test_n = 32;
  cfg.seed = 23;
  const ScratchBundle file("test_bundle_cache");
  const std::string& path = file.path;
  const std::vector<unsigned> bits = {3u, 5u};

  auto resolved = data::resolve_dataset(cfg.train_n, cfg.test_n, cfg.seed);

  bool trained = false;
  ModelBundle first = load_or_train_bundle(
      cfg, bits, FirstLayerDesign::kScProposed, path, resolved, 0.5,
      &trained);
  EXPECT_TRUE(trained);

  ModelBundle second = load_or_train_bundle(
      cfg, bits, FirstLayerDesign::kScProposed, path, resolved, 0.5,
      &trained);
  EXPECT_FALSE(trained);

  auto a = instantiate_servable(first, cfg.runtime_config());
  auto b = instantiate_servable(second, cfg.runtime_config());
  expect_bit_identical(b->classify(resolved.split.test.images),
                       a->classify(resolved.split.test.images));

  // A different margin must not invalidate the artifact, only retune it.
  ModelBundle retuned = load_or_train_bundle(
      cfg, bits, FirstLayerDesign::kScProposed, path, resolved, 0.9,
      &trained);
  EXPECT_FALSE(trained);
  EXPECT_EQ(retuned.confidence_margin, 0.9);

  // Changed training data means a stale artifact: retrain.
  data::ResolvedData altered = resolved;
  altered.split.train.images[0] += 0.25f;
  (void)load_or_train_bundle(cfg, bits, FirstLayerDesign::kScProposed, path,
                             altered, 0.5, &trained);
  EXPECT_TRUE(trained);

  // So does a changed training recipe at identical data.
  ExperimentConfig more_epochs = cfg;
  more_epochs.retrain_epochs = cfg.retrain_epochs + 1;
  (void)load_or_train_bundle(more_epochs, bits,
                             FirstLayerDesign::kScProposed, path, altered,
                             0.5, &trained);
  EXPECT_TRUE(trained);
}

TEST(LoadOrTrain, LadderMismatchRetrains) {
  ExperimentConfig cfg = tiny_config();
  cfg.train_n = 80;
  cfg.test_n = 32;
  cfg.seed = 29;
  const ScratchBundle file("test_bundle_ladder_mismatch");
  const std::string& path = file.path;

  auto resolved = data::resolve_dataset(cfg.train_n, cfg.test_n, cfg.seed);

  bool trained = false;
  const std::vector<unsigned> two = {3u, 5u};
  (void)load_or_train_bundle(cfg, two, FirstLayerDesign::kScProposed, path,
                             resolved, 0.5, &trained);
  EXPECT_TRUE(trained);

  const std::vector<unsigned> three = {3u, 5u, 7u};
  ModelBundle bundle = load_or_train_bundle(
      cfg, three, FirstLayerDesign::kScProposed, path, resolved, 0.5,
      &trained);
  EXPECT_TRUE(trained);
  EXPECT_EQ(bundle.ladder_bits(), three);
}

}  // namespace
}  // namespace scbnn::hybrid
