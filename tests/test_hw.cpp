// Hardware cost-model tests: internal consistency, the paper's Table 3
// trends (exact), and magnitude bands against the published numbers.
#include <gtest/gtest.h>

#include <cmath>

#include "hw/binary_design.h"
#include "hw/report.h"
#include "hw/stochastic_design.h"

namespace scbnn::hw {
namespace {

TEST(CostSheet, Rollups) {
  CostSheet s;
  s.add("a", 10.0, 2.0, 0.5);
  s.add("b", 5.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(s.total_ges(), 25.0);
  TechnologyParams tech;
  EXPECT_DOUBLE_EQ(s.area_mm2(tech), 25.0 * tech.gate_area_um2 * 1e-6);
  // energy/cycle = (10*2*0.5 + 5*1*1) * E_ge
  EXPECT_DOUBLE_EQ(s.energy_per_cycle_j(tech),
                   15.0 * tech.gate_energy_fj * 1e-15);
  EXPECT_DOUBLE_EQ(s.dynamic_power_w(tech, 1e9),
                   s.energy_per_cycle_j(tech) * 1e9);
}

TEST(GateLibrary, MonotonicInWidth) {
  EXPECT_LT(ge::comparator(4), ge::comparator(8));
  EXPECT_LT(ge::async_counter(4), ge::async_counter(8));
  EXPECT_LT(ge::array_multiplier(4), ge::array_multiplier(8));
  // Array multiplier is super-linear.
  EXPECT_GT(ge::array_multiplier(8), 3.0 * ge::array_multiplier(4));
}

TEST(StochasticDesign, CyclesPerFrame) {
  StochasticConvDesign d8(8);
  EXPECT_DOUBLE_EQ(d8.cycles_per_frame(), 32.0 * 256.0);
  StochasticConvDesign d4(4);
  EXPECT_DOUBLE_EQ(d4.cycles_per_frame(), 32.0 * 16.0);
}

TEST(StochasticDesign, FrameTimeHalvesPerBit) {
  for (unsigned bits = 3; bits <= 8; ++bits) {
    StochasticConvDesign lo(bits - 1), hi(bits);
    EXPECT_DOUBLE_EQ(hi.frame_time_s(), 2.0 * lo.frame_time_s());
  }
}

TEST(StochasticDesign, PowerRoughlyFlatAcrossPrecision) {
  // Paper: SC power stays ~constant (33 -> 28 mW from 8 to 2 bits).
  const double p8 = StochasticConvDesign(8).power_w();
  const double p2 = StochasticConvDesign(2).power_w();
  EXPECT_GT(p2, 0.75 * p8);
  EXPECT_LT(p2, p8);
}

TEST(StochasticDesign, EnergyDropsExponentially) {
  // ~2x energy per bit of precision removed.
  for (unsigned bits = 3; bits <= 8; ++bits) {
    const double hi = StochasticConvDesign(bits).energy_per_frame_j();
    const double lo = StochasticConvDesign(bits - 1).energy_per_frame_j();
    EXPECT_NEAR(hi / lo, 2.0, 0.2) << "bits=" << bits;
  }
}

TEST(StochasticDesign, AreaNearlyConstant) {
  const double a8 = StochasticConvDesign(8).area_mm2();
  const double a2 = StochasticConvDesign(2).area_mm2();
  EXPECT_LT(a8 / a2, 1.4);  // paper: 1.321 / 1.057 = 1.25
  EXPECT_GT(a8, a2);        // counters/SNG width still shrink slightly
}

TEST(BinaryDesign, AreaShrinksWithPrecision) {
  double prev = 1e9;
  for (unsigned bits : {8u, 7u, 6u, 5u, 4u, 3u, 2u}) {
    const double a = BinaryConvDesign(bits).area_mm2();
    EXPECT_LT(a, prev) << "bits=" << bits;
    prev = a;
  }
}

TEST(BinaryDesign, NormalizedPowerGrowsAsPrecisionFalls) {
  // The paper's throughput-normalization argument: matching the SC design's
  // exponentially faster frames costs the binary design exponentially more
  // power.
  double prev = 0.0;
  for (unsigned bits : {8u, 7u, 6u, 5u, 4u, 3u, 2u}) {
    StochasticConvDesign sc(bits);
    const double p = BinaryConvDesign(bits).normalized_power_w(sc);
    EXPECT_GT(p, prev) << "bits=" << bits;
    prev = p;
  }
}

TEST(BinaryDesign, RequiredClockMatchesThroughput) {
  StochasticConvDesign sc(8);
  BinaryConvDesign bin(8);
  const double f = bin.required_clock_hz(sc);
  // windows/frame / engines / frame_time
  const double expected = (784.0 * 32.0 / bin.engines()) / sc.frame_time_s();
  EXPECT_DOUBLE_EQ(f, expected);
  // ~33 MHz at 8-bit: plausible for 65 nm.
  EXPECT_GT(f, 1e6);
  EXPECT_LT(f, 2e9);
}

TEST(Headline, BreakEvenAtEightBits) {
  // Paper: SC "breaks even with binary designs at 8-bit precision".
  StochasticConvDesign sc(8);
  BinaryConvDesign bin(8);
  const double ratio =
      bin.energy_per_frame_j() / sc.energy_per_frame_j();
  EXPECT_GT(ratio, 1.0);
  EXPECT_LT(ratio, 1.6);
}

TEST(Headline, RoughlyTenXAtFourBits) {
  // Paper: "9.8x more energy efficient at 4-bit precision".
  StochasticConvDesign sc(4);
  BinaryConvDesign bin(4);
  const double ratio =
      bin.energy_per_frame_j() / sc.energy_per_frame_j();
  EXPECT_GT(ratio, 7.0);
  EXPECT_LT(ratio, 13.0);
}

TEST(Headline, ScAreaRoughlyTwiceBinaryAtFourBits) {
  // Paper: "2x larger than the binary design at 4-bit precision".
  const double sc_area = StochasticConvDesign(4).area_mm2();
  const double bin_area = BinaryConvDesign(4).area_mm2();
  EXPECT_GT(sc_area / bin_area, 1.5);
  EXPECT_LT(sc_area / bin_area, 3.0);
}

class PaperBandTest : public ::testing::TestWithParam<int> {};

TEST_P(PaperBandTest, AllMetricsWithinBandsOfTable3) {
  const int i = GetParam();
  const unsigned bits = PaperTable3::kBits[static_cast<std::size_t>(i)];
  StochasticConvDesign sc(bits);
  BinaryConvDesign bin(bits);

  const double rel_tol = 0.30;  // the model is calibrated, not synthesized
  auto in_band = [rel_tol](double model, double paper) {
    return model > paper * (1.0 - rel_tol) && model < paper * (1.0 + rel_tol);
  };
  EXPECT_TRUE(in_band(sc.power_w() * 1e3,
                      PaperTable3::kThisWorkPowerMw[static_cast<std::size_t>(i)]))
      << "SC power @" << bits << ": " << sc.power_w() * 1e3;
  EXPECT_TRUE(in_band(bin.normalized_power_w(sc) * 1e3,
                      PaperTable3::kBinaryPowerMw[static_cast<std::size_t>(i)]))
      << "binary power @" << bits << ": " << bin.normalized_power_w(sc) * 1e3;
  EXPECT_TRUE(in_band(sc.energy_per_frame_j() * 1e9,
                      PaperTable3::kThisWorkEnergyNj[static_cast<std::size_t>(i)]))
      << "SC energy @" << bits;
  EXPECT_TRUE(in_band(bin.energy_per_frame_j() * 1e9,
                      PaperTable3::kBinaryEnergyNj[static_cast<std::size_t>(i)]))
      << "binary energy @" << bits;
  EXPECT_TRUE(in_band(sc.area_mm2(),
                      PaperTable3::kThisWorkAreaMm2[static_cast<std::size_t>(i)]))
      << "SC area @" << bits;
  EXPECT_TRUE(in_band(bin.area_mm2(),
                      PaperTable3::kBinaryAreaMm2[static_cast<std::size_t>(i)]))
      << "binary area @" << bits << ": " << bin.area_mm2();
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, PaperBandTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

TEST(Designs, WidthValidation) {
  EXPECT_THROW(StochasticConvDesign(1), std::invalid_argument);
  EXPECT_THROW(StochasticConvDesign(17), std::invalid_argument);
  EXPECT_THROW(BinaryConvDesign(1), std::invalid_argument);
  EXPECT_THROW(BinaryConvDesign(8, 0), std::invalid_argument);
}

TEST(TableWriter, FormatsNumbers) {
  EXPECT_EQ(TableWriter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::fmt_sci(0.000191, 2), "1.91e-04");
  EXPECT_THROW(TableWriter({"a"}, {4, 5}), std::invalid_argument);
}

TEST(Report, ScCyclesPerFrame) {
  // Section IV.A: kernels time-multiplexed passes of 2^bits cycles each.
  EXPECT_DOUBLE_EQ(sc_cycles_per_frame(8, 32), 32.0 * 256.0);
  EXPECT_DOUBLE_EQ(sc_cycles_per_frame(2, 32), 32.0 * 4.0);
  // Linear in the kernel count, exponential in precision.
  EXPECT_DOUBLE_EQ(sc_cycles_per_frame(5, 16), sc_cycles_per_frame(5, 32) / 2);
  EXPECT_DOUBLE_EQ(sc_cycles_per_frame(6, 32), 2 * sc_cycles_per_frame(5, 32));
  // Agrees with the full chip model's cycle accounting.
  EXPECT_DOUBLE_EQ(sc_cycles_per_frame(8, 32),
                   StochasticConvDesign(8).cycles_per_frame());
  // Backend dispatch: SC designs spend cycles, binary has no SC notion,
  // unknown names report 0 rather than guessing.
  EXPECT_DOUBLE_EQ(backend_sc_cycles_per_frame("sc-proposed", 4, 32),
                   sc_cycles_per_frame(4, 32));
  EXPECT_DOUBLE_EQ(backend_sc_cycles_per_frame("sc-conventional", 4, 32),
                   sc_cycles_per_frame(4, 32));
  EXPECT_DOUBLE_EQ(backend_sc_cycles_per_frame("binary-quantized", 4, 32),
                   0.0);
  EXPECT_DOUBLE_EQ(backend_sc_cycles_per_frame("no-such-chip", 4, 32), 0.0);
}

TEST(Report, BackendEnergyPerFrame) {
  // The calibrated models give non-zero per-frame energy for the built-in
  // backends; unknown names and out-of-range precisions report "no
  // estimate" (0.0) instead of throwing mid-bench.
  EXPECT_GT(backend_energy_per_frame_j("sc-proposed", 4), 0.0);
  EXPECT_GT(backend_energy_per_frame_j("binary-quantized", 4), 0.0);
  // Conventional SC shares the stochastic chip model.
  EXPECT_DOUBLE_EQ(backend_energy_per_frame_j("sc-conventional", 6),
                   backend_energy_per_frame_j("sc-proposed", 6));
  EXPECT_DOUBLE_EQ(backend_energy_per_frame_j("tpu-offload", 4), 0.0);
  EXPECT_DOUBLE_EQ(backend_energy_per_frame_j("sc-proposed", 63), 0.0);
}

TEST(Report, CanonicalBackendStripsFastSuffix) {
  // The count-domain fast backends are software restructurings of the same
  // SC chip — they must price exactly like their canonical design.
  EXPECT_EQ(canonical_backend("sc-proposed-fast"), "sc-proposed");
  EXPECT_EQ(canonical_backend("sc-conventional-fast"), "sc-conventional");
  EXPECT_EQ(canonical_backend("sc-proposed"), "sc-proposed");
  EXPECT_EQ(canonical_backend("binary-quantized"), "binary-quantized");
  // "-fast" alone (no stem) is not a backend alias.
  EXPECT_EQ(canonical_backend("-fast"), "-fast");
}

TEST(Report, FastBackendsPriceLikeCanonicalDesigns) {
  for (unsigned bits : {2u, 4u, 8u}) {
    EXPECT_DOUBLE_EQ(backend_energy_per_frame_j("sc-proposed-fast", bits),
                     backend_energy_per_frame_j("sc-proposed", bits));
    EXPECT_DOUBLE_EQ(backend_energy_per_frame_j("sc-conventional-fast", bits),
                     backend_energy_per_frame_j("sc-conventional", bits));
    EXPECT_DOUBLE_EQ(backend_sc_cycles_per_frame("sc-proposed-fast", bits, 32),
                     backend_sc_cycles_per_frame("sc-proposed", bits, 32));
  }
  EXPECT_GT(backend_energy_per_frame_j("sc-proposed-fast", 4), 0.0);
}

}  // namespace
}  // namespace scbnn::hw
