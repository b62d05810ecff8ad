// First-layer engine tests: the binary reference must be exact, the
// proposed SC engine close to it, the conventional SC engine noisier —
// the feature-level expression of the paper's Table 3 ordering.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

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
  e.compute(img.data(), out.data(), *e.make_scratch());
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

/// The engine's original scalar loop, kept as its referee: 64-bit integer
/// dot products with two bounds checks per tap, then the normalized value
/// dot / 4^bits against the soft threshold.
std::vector<float> binary_reference(const nn::QuantizedConvWeights& qw,
                                    double soft_threshold,
                                    const float* image) {
  const auto full = static_cast<long>(std::uint32_t{1} << qw.bits);
  long x[kImageSize * kImageSize];
  for (int i = 0; i < kImageSize * kImageSize; ++i) {
    const float v =
        image[i] < 0.0f ? 0.0f : (image[i] > 1.0f ? 1.0f : image[i]);
    x[i] = std::lround(static_cast<double>(v) * static_cast<double>(full));
  }
  const double norm = static_cast<double>(full) * static_cast<double>(full);
  std::vector<float> out(qw.kernels.size() * kOutputsPerKernel);
  for (std::size_t k = 0; k < qw.kernels.size(); ++k) {
    const int* w = qw.kernels[k].levels.data();
    float* feat = out.data() + k * kOutputsPerKernel;
    for (int oy = 0; oy < kImageSize; ++oy) {
      for (int ox = 0; ox < kImageSize; ++ox) {
        long dot = 0;
        for (int ki = 0; ki < kKernelSize; ++ki) {
          const int iy = oy + ki - kPad;
          if (iy < 0 || iy >= kImageSize) continue;
          for (int kj = 0; kj < kKernelSize; ++kj) {
            const int ix = ox + kj - kPad;
            if (ix < 0 || ix >= kImageSize) continue;
            dot += x[iy * kImageSize + ix] *
                   static_cast<long>(w[ki * kKernelSize + kj]);
          }
        }
        const double v = static_cast<double>(dot) / norm;
        feat[oy * kImageSize + ox] =
            v > soft_threshold ? 1.0f
                               : (v < -soft_threshold ? -1.0f : 0.0f);
      }
    }
  }
  return out;
}

TEST(BinaryFirstLayer, MatchesScalarReferenceAtEveryPrecision) {
  // Float lanes (the conv GEMM) up to 9 bits, double lanes above. The
  // GEMM takes the kernels in groups of four rows, and AVX2 tiles each
  // group four rows at a time, so 32 kernels fill every tile and 5 leave
  // one kernel to the 1-row remainder tile. Kernels 0 and 1 are
  // full-scale +-2^bits on every tap and images 0 and 2 carry a 5x5 block
  // of out-of-range bright pixels in a corner, where the padding meets it,
  // so |dot| reaches its bound 25 * 4^bits: exactly the threshold at
  // t = 25. Kernel 2 is all zero, which only a negative threshold lights
  // up. Kernel 3 is 2^bits - 1 on every tap over image 1's centre block of
  // level 2^bits - 1, an odd dot, and the last threshold sits a fifth below
  // it. From 10 bits on that dot is past 2^24 and a float lane would round
  // it down onto the threshold's floor; at 9 bits a threshold kept in float
  // instead of floored would round up onto the dot.
  const double kThresholds[] = {0.0,
                                0.3,
                                1.0,
                                -0.2,
                                1e-300,
                                25.0,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (unsigned bits = 2; bits <= 16; ++bits) {
    const int full = 1 << bits;
    std::vector<nn::QuantizedConvWeights> weight_sets;
    for (const int kernels : {32, 5}) {
      auto qw = sample_qweights(kernels, bits, 70 + bits);
      qw.kernels[0].levels.assign(kFanIn, full);
      qw.kernels[1].levels.assign(kFanIn, -full);
      qw.kernels[2].levels.assign(kFanIn, 0);
      qw.kernels[3].levels.assign(kFanIn, full - 1);
      weight_sets.push_back(std::move(qw));
    }
    std::vector<nn::Tensor> images;
    for (int i = 0; i < 3; ++i) {
      nn::Tensor img = sample_image(100 + 10 * bits + static_cast<unsigned>(i));
      for (std::size_t p = 7; p < img.size(); p += 61) {
        img[p] = p % 2 == 0 ? -0.5f : -0.0f;
      }
      const int corner = i * (kImageSize - kKernelSize) / 2;
      for (int y = corner; y < corner + kKernelSize; ++y) {
        for (int x = corner; x < corner + kKernelSize; ++x) {
          float& p = img[static_cast<std::size_t>(y * kImageSize + x)];
          if (i == 1) {
            p = static_cast<float>(full - 1) / static_cast<float>(full);
          } else {
            p = (x + y) % 2 == 0 ? 2.0f : 1.5f;
          }
        }
      }
      images.push_back(std::move(img));
    }
    const double odd_dot = kFanIn * static_cast<double>(full - 1) * (full - 1);
    std::vector<double> thresholds(std::begin(kThresholds),
                                   std::end(kThresholds));
    thresholds.push_back((odd_dot - 0.2) / (static_cast<double>(full) * full));
    for (const auto& qw : weight_sets) {
      for (const double t : thresholds) {
        FirstLayerConfig cfg;
        cfg.bits = bits;
        cfg.soft_threshold = t;
        const BinaryFirstLayer engine(qw, cfg);
        for (std::size_t i = 0; i < images.size(); ++i) {
          const auto want = binary_reference(qw, t, images[i].data());
          const auto got = run_engine(engine, images[i]);
          for (std::size_t j = 0; j < want.size(); ++j) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[j]),
                      std::bit_cast<std::uint32_t>(want[j]))
                << "bits=" << bits << " kernels=" << qw.kernels.size()
                << " t=" << t << " image " << i << " output " << j;
          }
        }
      }
    }
  }
}

TEST(BinaryFirstLayer, RejectsWeightsOutsideTheExactLanes) {
  // The lanes are exact for |w| <= 2^bits, 25 taps and bits <= 16.
  auto qw = sample_qweights(2, 4, 11);
  FirstLayerConfig cfg;
  cfg.bits = 4;
  for (const int level : {17, -17}) {
    auto bad = qw;
    bad.kernels[1].levels[7] = level;
    EXPECT_THROW(BinaryFirstLayer(bad, cfg), std::invalid_argument) << level;
  }
  auto short_kernel = qw;
  short_kernel.kernels[0].levels.pop_back();
  EXPECT_THROW(BinaryFirstLayer(short_kernel, cfg), std::invalid_argument);
  qw.kernels[1].levels[7] = -16;
  EXPECT_NO_THROW(BinaryFirstLayer(qw, cfg));
  qw.bits = cfg.bits = 17;
  EXPECT_THROW(BinaryFirstLayer(qw, cfg), std::invalid_argument);
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
  const data::DataSplit split = data::generate_synthetic_mnist(12, 1, 13);
  for (const FirstLayerDesign design :
       {FirstLayerDesign::kBinaryQuantized, FirstLayerDesign::kScProposed}) {
    const auto engine = make_first_layer_engine(design, qw, cfg);
    const nn::Tensor feats = engine->compute_batch(split.train.images);
    EXPECT_EQ(feats.shape(), (std::vector<int>{12, 3, 28, 28}));
    // The batch reuses one scratch; each frame must read as it does on a
    // fresh scratch of its own.
    std::vector<float> single(3 * 784);
    for (int img = 0; img < 12; ++img) {
      engine->compute(split.train.images.data() + img * 784, single.data(),
                      *engine->make_scratch());
      for (std::size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(feats[static_cast<std::size_t>(img) * single.size() + i],
                  single[i])
            << engine->name() << " image " << img;
      }
    }
  }
}

// lround(NaN) is LONG_MIN on x86-64; an engine must not let it reach the
// arithmetic. Every backend reads a NaN pixel as level 0, like a 0 pixel.
TEST(FirstLayerEngine, NanPixelReadsAsZeroOnEveryBackend) {
  const auto qw = sample_qweights(4, 4, 18);
  FirstLayerConfig cfg;
  cfg.bits = 4;
  const nn::Tensor img = sample_image(27);
  std::size_t stroke = 0;  // a lit pixel, so 0 there changes the features
  while (img[stroke] < 0.5f) ++stroke;
  nn::Tensor zero = img;
  zero[stroke] = 0.0f;
  nn::Tensor nan = img;
  nan[stroke] = std::numeric_limits<float>::quiet_NaN();
  const auto& reg = runtime::BackendRegistry::instance();
  for (const std::string& name : reg.names()) {
    const auto engine = reg.create(name, qw, cfg);
    const auto want = run_engine(*engine, zero);
    EXPECT_NE(want, run_engine(*engine, img)) << name;
    EXPECT_EQ(run_engine(*engine, nan), want) << name;
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
/// of weight seed `weight_seed`, on `images` consecutive sample images and
/// then on a full-scale image. Every pixel of that one sits at level
/// 2^bits, so each tap reads its count table's top entry, the last step of
/// the prefix sum it is built by; a sampled digit reaches it only where a
/// pixel happens to be 1.0.
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
  nn::Tensor full({1, 28, 28});
  full.fill(1.0f);
  EXPECT_EQ(run_engine(ref, full), run_engine(*fast, full))
      << c.backend << " bits=" << bits << " full-scale image";
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
      fast.compute(split.train.images.data() + img * 784, single.data(),
                   *fast.make_scratch());
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
