// First-layer engine tests: the binary reference must be exact, the
// proposed SC engine close to it, the conventional SC engine noisier —
// the feature-level expression of the paper's Table 3 ordering.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "data/synthetic_mnist.h"
#include "hybrid/binary_first_layer.h"
#include "hybrid/first_layer.h"
#include "hybrid/sc_first_layer.h"
#include "hybrid/sc_first_layer_fast.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "runtime/backend_registry.h"

namespace scbnn::hybrid {
namespace {

nn::QuantizedConvWeights sample_qweights(int kernels, unsigned bits,
                                         std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor w({kernels, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  return nn::quantize_conv_weights(w, bits);
}

nn::Tensor sample_image(std::uint64_t instance) {
  return data::render_digit(static_cast<int>(instance % 10), instance / 10);
}

double agreement(const std::vector<float>& a, const std::vector<float>& b) {
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++same;
  }
  return static_cast<double>(same) / static_cast<double>(a.size());
}

std::vector<float> run_engine(const FirstLayerEngine& e,
                              const nn::Tensor& img) {
  std::vector<float> out(static_cast<std::size_t>(e.kernels()) * 28 * 28);
  e.compute(img.data(), out.data());
  return out;
}

TEST(BinaryFirstLayer, OutputsAreTernary) {
  const auto qw = sample_qweights(4, 8, 1);
  FirstLayerConfig cfg;
  cfg.bits = 8;
  BinaryFirstLayer engine(qw, cfg);
  const auto out = run_engine(engine, sample_image(3));
  for (float v : out) {
    EXPECT_TRUE(v == -1.0f || v == 0.0f || v == 1.0f);
  }
}

TEST(BinaryFirstLayer, MatchesFloatConvolutionSigns) {
  // At 8-bit quantization the integer engine must agree with a float
  // convolution + sign almost everywhere (disagreements only within a
  // quantization step of the decision boundary).
  nn::Rng rng(2);
  nn::Tensor w({2, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  const auto qw = nn::quantize_conv_weights(w, 8);
  FirstLayerConfig cfg;
  cfg.bits = 8;
  BinaryFirstLayer engine(qw, cfg);
  const nn::Tensor img = sample_image(7);
  const auto out = run_engine(engine, img);

  std::size_t mismatches = 0;
  for (int k = 0; k < 2; ++k) {
    for (int oy = 0; oy < 28; ++oy) {
      for (int ox = 0; ox < 28; ++ox) {
        double dot = 0.0;
        for (int ki = 0; ki < 5; ++ki) {
          for (int kj = 0; kj < 5; ++kj) {
            const int iy = oy + ki - 2, ix = ox + kj - 2;
            if (iy < 0 || iy >= 28 || ix < 0 || ix >= 28) continue;
            dot += static_cast<double>(img.at4(0, 0, iy, ix)) *
                   w.at4(k, 0, ki, kj);
          }
        }
        const float expect = dot > 1e-3 ? 1.0f : (dot < -1e-3 ? -1.0f : 0.0f);
        const float got = out[static_cast<std::size_t>(k) * 784 +
                              static_cast<std::size_t>(oy) * 28 + ox];
        if (std::abs(dot) > 5e-2 && got != expect) ++mismatches;
      }
    }
  }
  EXPECT_LT(mismatches, 16u);  // ~1% of 1568 outputs
}

/// Exact normalized dot-product values of every window for one kernel set,
/// used to restrict agreement checks to decisive windows (|v| above SC's
/// count granularity). Near-zero windows are *expected* to differ: SC is
/// inexact at near-zero values (Section V.B), which is why the paper adds
/// soft thresholding and retraining.
std::vector<double> exact_values(const nn::QuantizedConvWeights& qw,
                                 const nn::Tensor& img) {
  const double full = static_cast<double>(1u << qw.bits);
  std::vector<double> v(qw.kernels.size() * 784);
  for (std::size_t k = 0; k < qw.kernels.size(); ++k) {
    for (int oy = 0; oy < 28; ++oy) {
      for (int ox = 0; ox < 28; ++ox) {
        double dot = 0.0;
        for (int ki = 0; ki < 5; ++ki) {
          for (int kj = 0; kj < 5; ++kj) {
            const int iy = oy + ki - 2, ix = ox + kj - 2;
            if (iy < 0 || iy >= 28 || ix < 0 || ix >= 28) continue;
            const double xl =
                std::round(static_cast<double>(img.at4(0, 0, iy, ix)) * full);
            dot += (xl / full) *
                   (qw.kernels[k].levels[static_cast<std::size_t>(ki * 5 + kj)] /
                    full);
          }
        }
        v[k * 784 + static_cast<std::size_t>(oy) * 28 + ox] = dot;
      }
    }
  }
  return v;
}

TEST(ScFirstLayer, ProposedMatchesBinaryOnDecisiveWindows) {
  const auto qw = sample_qweights(4, 8, 3);
  FirstLayerConfig cfg;
  cfg.bits = 8;
  BinaryFirstLayer ref(qw, cfg);
  StochasticFirstLayer sc(StochasticFirstLayer::Style::kProposed, qw, cfg);
  const nn::Tensor img = sample_image(11);
  const auto a = run_engine(ref, img);
  const auto b = run_engine(sc, img);
  const auto v = exact_values(qw, img);
  std::size_t decisive = 0, same = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::abs(v[i]) > 0.3) {  // above the SC tree's rounding resolution
      ++decisive;
      if (a[i] == b[i]) ++same;
    }
  }
  ASSERT_GT(decisive, 100u);
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(decisive), 0.98);
}

TEST(ScFirstLayer, NearZeroWindowsQuantizeToZero) {
  // SC's count granularity maps sub-resolution dot products to 0 — the
  // near-zero inexactness the paper mitigates with soft thresholding.
  const auto qw = sample_qweights(4, 8, 3);
  FirstLayerConfig cfg;
  cfg.bits = 8;
  StochasticFirstLayer sc(StochasticFirstLayer::Style::kProposed, qw, cfg);
  const nn::Tensor img = sample_image(11);
  const auto b = run_engine(sc, img);
  const auto v = exact_values(qw, img);
  std::size_t tiny = 0, zeroed = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::abs(v[i]) < 0.03) {
      ++tiny;
      if (b[i] == 0.0f) ++zeroed;
    }
  }
  ASSERT_GT(tiny, 50u);
  // Most sub-resolution windows quantize to 0; per-node tree rounding can
  // still nudge a minority to a +/-1 count.
  EXPECT_GT(static_cast<double>(zeroed) / static_cast<double>(tiny), 0.8);
}

TEST(ScFirstLayer, ProposedBeatsConventional) {
  // The paper's central accuracy claim at the feature level: restrict to
  // decisive windows (|exact dot| above the SC count resolution), where
  // arithmetic quality — not the shared near-zero ambiguity — decides.
  for (unsigned bits : {6u, 8u}) {
    const auto qw = sample_qweights(4, bits, 4);
    FirstLayerConfig cfg;
    cfg.bits = bits;
    BinaryFirstLayer ref(qw, cfg);
    StochasticFirstLayer prop(StochasticFirstLayer::Style::kProposed, qw, cfg);
    StochasticFirstLayer conv(StochasticFirstLayer::Style::kConventional, qw,
                              cfg);
    std::size_t decisive = 0, same_prop = 0, same_conv = 0;
    for (std::uint64_t i = 0; i < 5; ++i) {
      const nn::Tensor img = sample_image(20 + i);
      const auto r = run_engine(ref, img);
      const auto p = run_engine(prop, img);
      const auto c = run_engine(conv, img);
      const auto v = exact_values(qw, img);
      for (std::size_t j = 0; j < v.size(); ++j) {
        if (std::abs(v[j]) > 0.5) {
          ++decisive;
          if (r[j] == p[j]) ++same_prop;
          if (r[j] == c[j]) ++same_conv;
        }
      }
    }
    ASSERT_GT(decisive, 200u);
    EXPECT_GT(same_prop, same_conv) << "bits=" << bits;
  }
}

TEST(ScFirstLayer, AgreementDegradesWithPrecision) {
  FirstLayerConfig cfg8, cfg4;
  cfg8.bits = 8;
  cfg4.bits = 4;
  const auto qw8 = sample_qweights(4, 8, 5);
  const auto qw4 = sample_qweights(4, 4, 5);
  BinaryFirstLayer ref8(qw8, cfg8);
  BinaryFirstLayer ref4(qw4, cfg4);
  StochasticFirstLayer sc8(StochasticFirstLayer::Style::kProposed, qw8, cfg8);
  StochasticFirstLayer sc4(StochasticFirstLayer::Style::kProposed, qw4, cfg4);
  const nn::Tensor img = sample_image(31);
  const double a8 = agreement(run_engine(ref8, img), run_engine(sc8, img));
  const double a4 = agreement(run_engine(ref4, img), run_engine(sc4, img));
  EXPECT_GT(a8, a4);
}

TEST(ScFirstLayer, SoftThresholdZeroesSmallResponses) {
  const auto qw = sample_qweights(4, 8, 6);
  FirstLayerConfig plain;
  plain.bits = 8;
  FirstLayerConfig thresholded = plain;
  thresholded.soft_threshold = 1.0;
  StochasticFirstLayer a(StochasticFirstLayer::Style::kProposed, qw, plain);
  StochasticFirstLayer b(StochasticFirstLayer::Style::kProposed, qw,
                         thresholded);
  const nn::Tensor img = sample_image(41);
  const auto out_a = run_engine(a, img);
  const auto out_b = run_engine(b, img);
  std::size_t zeros_a = 0, zeros_b = 0;
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    if (out_a[i] == 0.0f) ++zeros_a;
    if (out_b[i] == 0.0f) ++zeros_b;
  }
  EXPECT_GT(zeros_b, zeros_a);
}

TEST(ScFirstLayer, DeterministicAcrossCalls) {
  const auto qw = sample_qweights(2, 6, 7);
  FirstLayerConfig cfg;
  cfg.bits = 6;
  StochasticFirstLayer sc(StochasticFirstLayer::Style::kConventional, qw, cfg);
  const nn::Tensor img = sample_image(51);
  EXPECT_EQ(run_engine(sc, img), run_engine(sc, img));
}

TEST(FirstLayerEngine, BatchWrapperShapesAndParallelism) {
  const auto qw = sample_qweights(3, 4, 8);
  FirstLayerConfig cfg;
  cfg.bits = 4;
  const auto engine =
      make_first_layer_engine(FirstLayerDesign::kScProposed, qw, cfg);
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 13);
  const nn::Tensor feats = engine->compute_batch(split.train.images);
  EXPECT_EQ(feats.shape(), (std::vector<int>{12, 3, 28, 28}));
  // Batch result must equal the single-image path.
  std::vector<float> single(3 * 784);
  engine->compute(split.train.images.data(), single.data());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(feats[i], single[i]);
  }
}

TEST(FirstLayerEngine, FactoryProducesAllDesigns) {
  const auto qw = sample_qweights(2, 4, 9);
  FirstLayerConfig cfg;
  cfg.bits = 4;
  EXPECT_EQ(make_first_layer_engine(FirstLayerDesign::kBinaryQuantized, qw, cfg)
                ->name(),
            "binary-quantized");
  EXPECT_EQ(
      make_first_layer_engine(FirstLayerDesign::kScProposed, qw, cfg)->name(),
      "sc-proposed");
  EXPECT_EQ(make_first_layer_engine(FirstLayerDesign::kScConventional, qw, cfg)
                ->name(),
            "sc-conventional");
}

TEST(FirstLayerEngine, BitsMismatchRejected) {
  const auto qw = sample_qweights(2, 8, 10);
  FirstLayerConfig cfg;
  cfg.bits = 4;  // weights quantized at 8
  EXPECT_THROW(BinaryFirstLayer(qw, cfg), std::invalid_argument);
  EXPECT_THROW(StochasticFirstLayer(StochasticFirstLayer::Style::kProposed, qw,
                                    cfg),
               std::invalid_argument);
}

TEST(FirstLayerEngine, DesignNames) {
  EXPECT_EQ(to_string(FirstLayerDesign::kBinaryQuantized), "Binary");
  EXPECT_EQ(to_string(FirstLayerDesign::kScProposed), "This Work");
  EXPECT_EQ(to_string(FirstLayerDesign::kScConventional), "Old SC");
}

// --- Count-domain fast-path engines ------------------------------------------
// The optimization referee: the registry's sc-*-fast engines must be
// bit-identical to StochasticFirstLayer for both styles at every precision
// and at the production kernel count — the fast engines are an
// optimization, never an approximation.

struct FastCase {
  ScStyle style;
  const char* backend;
};
const FastCase kFastCases[] = {{ScStyle::kProposed, "sc-proposed-fast"},
                               {ScStyle::kConventional,
                                "sc-conventional-fast"}};

/// Registry-built fast engine vs the bit-level reference over 32 kernels
/// of weight seed `weight_seed`, on `images` consecutive sample images.
void expect_fast_matches_reference(const FastCase& c, unsigned bits,
                                   std::uint64_t weight_seed,
                                   std::uint64_t first_image, int images,
                                   double soft_threshold) {
  const auto qw = sample_qweights(32, bits, weight_seed);
  FirstLayerConfig cfg;
  cfg.bits = bits;
  cfg.soft_threshold = soft_threshold;
  StochasticFirstLayer ref(c.style, qw, cfg);
  const auto fast =
      runtime::BackendRegistry::instance().create(c.backend, qw, cfg);
  for (int i = 0; i < images; ++i) {
    const nn::Tensor img = sample_image(first_image + i);
    EXPECT_EQ(run_engine(ref, img), run_engine(*fast, img))
        << c.backend << " bits=" << bits << " image=" << i;
  }
}

class FastBitIdentity : public ::testing::TestWithParam<unsigned> {};

TEST_P(FastBitIdentity, ProposedFastMatchesReferenceExactly) {
  const unsigned bits = GetParam();
  expect_fast_matches_reference(kFastCases[0], bits, 100 + bits, 70 + 3 * bits,
                                3, 0.0);
}

TEST_P(FastBitIdentity, ConventionalFastMatchesReferenceExactly) {
  const unsigned bits = GetParam();
  expect_fast_matches_reference(kFastCases[1], bits, 200 + bits, 90 + 3 * bits,
                                3, 0.0);
}

TEST_P(FastBitIdentity, FastMatchesReferenceWithSoftThreshold) {
  const unsigned bits = GetParam();
  expect_fast_matches_reference(kFastCases[0], bits, 300 + bits, 55, 1, 1.0);
}

TEST_P(FastBitIdentity, ConventionalFastMatchesReferenceWithSoftThreshold) {
  const unsigned bits = GetParam();
  expect_fast_matches_reference(kFastCases[1], bits, 400 + bits, 55, 1, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Bits, FastBitIdentity,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

// The conventional fast engine's closed form rests on the MUX tree routing
// exactly one leaf to the root per cycle: the 32 leaf path masks must be
// pairwise disjoint and cover all N cycles.
TEST(FastFirstLayer, MuxLeafMasksPartitionTheStream) {
  for (unsigned bits = 2; bits <= 8; ++bits) {
    const std::size_t n = std::size_t{1} << bits;
    const std::size_t words = (n + 63) / 64;
    for (const std::uint32_t seed : {1u, 7u}) {
      const auto masks = detail::sc_mux_leaf_masks(bits, seed, n, words);
      ASSERT_EQ(masks.size(), 32 * words);
      std::size_t total = 0;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t seen = 0;
        for (std::size_t t = 0; t < 32; ++t) {
          const std::uint64_t m = masks[t * words + w];
          EXPECT_EQ(seen & m, 0u) << "bits=" << bits << " leaf " << t;
          seen |= m;
          total += static_cast<std::size_t>(std::popcount(m));
        }
      }
      EXPECT_EQ(total, n) << "bits=" << bits << " seed=" << seed;
    }
  }
}

TEST(FastFirstLayer, BatchMatchesSingleImagePath) {
  const auto qw = sample_qweights(3, 4, 14);
  FirstLayerConfig cfg;
  cfg.bits = 4;
  const data::DataSplit split = data::generate_synthetic_mnist(8, 1, 17);
  for (const FastCase& c : kFastCases) {
    FastStochasticFirstLayer fast(c.style, qw, cfg);
    const nn::Tensor feats = fast.compute_batch(split.train.images);
    EXPECT_EQ(feats.shape(), (std::vector<int>{8, 3, 28, 28}));
    std::vector<float> single(3 * 784);
    for (int img = 0; img < 8; ++img) {
      fast.compute(split.train.images.data() + img * 784, single.data());
      for (std::size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(feats[static_cast<std::size_t>(img) * single.size() + i],
                  single[i])
            << c.backend << " image " << img;
      }
    }
  }
}

TEST(FastFirstLayer, RegisteredInBackendRegistry) {
  auto& reg = runtime::BackendRegistry::instance();
  ASSERT_TRUE(reg.contains("sc-proposed-fast"));
  ASSERT_TRUE(reg.contains("sc-conventional-fast"));
  const auto qw = sample_qweights(2, 4, 16);
  FirstLayerConfig cfg;
  cfg.bits = 4;
  EXPECT_EQ(reg.create("sc-proposed-fast", qw, cfg)->name(),
            "sc-proposed-fast");
  EXPECT_EQ(reg.create("sc-conventional-fast", qw, cfg)->name(),
            "sc-conventional-fast");
  // And the registry-created fast engine matches the registry-created
  // reference engine bit for bit.
  const nn::Tensor img = sample_image(23);
  EXPECT_EQ(run_engine(*reg.create("sc-proposed", qw, cfg), img),
            run_engine(*reg.create("sc-proposed-fast", qw, cfg), img));
}

class ScPrecisionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScPrecisionSweep, AllPrecisionsProduceTernaryOutput) {
  const unsigned bits = GetParam();
  const auto qw = sample_qweights(2, bits, 60 + bits);
  FirstLayerConfig cfg;
  cfg.bits = bits;
  StochasticFirstLayer sc(StochasticFirstLayer::Style::kProposed, qw, cfg);
  EXPECT_EQ(sc.stream_length(), std::size_t{1} << bits);
  const auto out = run_engine(sc, sample_image(61));
  for (float v : out) {
    EXPECT_TRUE(v == -1.0f || v == 0.0f || v == 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, ScPrecisionSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace scbnn::hybrid
