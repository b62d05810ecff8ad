// Error-tolerance study backing the paper's introduction claim that
// "stochastic circuits are smaller in size and more error tolerant, making
// them suitable for tiny sensors operating in harsh environments" [3][13].
//
// Two experiments at matched precision (8-bit values):
//   1. value-level: RMS error of one number under bit flips — a stochastic
//      stream vs a binary word (where the MSB carries half of full scale);
//   2. system-level: first-layer feature corruption of the hybrid design
//      when the SC datapath suffers soft errors, vs the binary engine with
//      faulted dot-product accumulator words.
//
// Knobs (flag / env): --trials/SCBNN_FAULT_TRIALS (Monte-Carlo trials per
// BER point), --bers/SCBNN_FAULT_BERS (value-level BER sweep),
// --sys-bers/SCBNN_FAULT_SYS_BERS (system-level BER sweep).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_common.h"
#include "data/synthetic_mnist.h"
#include "hybrid/binary_first_layer.h"
#include "hybrid/sc_first_layer.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "sc/fault.h"

namespace {

using namespace scbnn;

void value_level_study(const std::vector<double>& bers, int trials) {
  std::printf("[1] Value-level: RMS value error of an 8-bit number under "
              "bit-error rate (BER)\n");
  std::printf("%10s %22s %22s %10s\n", "BER", "stream (256 bits)",
              "binary word (8 bits)", "ratio");
  const std::uint32_t word = 179;
  const sc::Bitstream stream = sc::Bitstream::prefix_ones(256, word);
  for (double ber : bers) {
    double stream_acc = 0.0, word_acc = 0.0;
    for (int t = 0; t < trials; ++t) {
      const auto fs = sc::inject_stream_faults(
          stream, ber, static_cast<std::uint64_t>(t) * 2 + 1);
      const double se = fs.unipolar() - stream.unipolar();
      stream_acc += se * se;
      const auto fw = sc::inject_word_faults(
          word, 8, ber, static_cast<std::uint64_t>(t) * 2 + 2);
      const double we =
          (static_cast<double>(fw) - static_cast<double>(word)) / 256.0;
      word_acc += we * we;
    }
    const double stream_rms = std::sqrt(stream_acc / trials);
    const double word_rms = std::sqrt(word_acc / trials);
    std::printf("%10.4f %22.5f %22.5f %9.1fx\n", ber, stream_rms, word_rms,
                word_rms / std::max(stream_rms, 1e-12));
  }
  std::printf("  (analytic binary RMS at BER p: sqrt(p * sum (2^i/2^k)^2) "
              "= %.5f at p=0.01)\n\n",
              sc::word_fault_rms(8, 0.01));
}

void system_level_study(const std::vector<double>& bers) {
  std::printf("[2] System-level: first-layer ternary feature corruption "
              "under datapath soft errors\n");

  nn::Rng rng(5);
  nn::Tensor w({8, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  const auto qw = nn::quantize_conv_weights(w, 8);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = 8;
  hybrid::StochasticFirstLayer sc_engine(
      hybrid::StochasticFirstLayer::Style::kProposed, qw, cfg);
  hybrid::BinaryFirstLayer bin_engine(qw, cfg);

  const nn::Tensor img = data::render_digit(3, 1);
  std::vector<float> clean_sc(8 * 784), clean_bin(8 * 784);
  const auto sc_scratch = sc_engine.make_scratch();
  const auto bin_scratch = bin_engine.make_scratch();
  sc_engine.compute(img.data(), clean_sc.data(), *sc_scratch);
  bin_engine.compute(img.data(), clean_bin.data(), *bin_scratch);

  std::printf("%10s %26s %26s\n", "BER", "SC features flipped (%)",
              "binary features flipped (%)");
  for (double ber : bers) {
    // SC: corrupt the image's input streams by perturbing pixel levels as
    // a stream with BER faults would (each flip shifts the count by 1).
    // Model: value error ~ Binomial(N, ber) sign-symmetric -> quantized.
    std::mt19937_64 frng(99);
    std::binomial_distribution<int> flips(256, ber);
    std::bernoulli_distribution sign(0.5);
    nn::Tensor img_sc = img;
    for (std::size_t i = 0; i < img_sc.size(); ++i) {
      const int delta = flips(frng) * (sign(frng) ? 1 : -1);
      img_sc[i] = std::clamp(
          img_sc[i] + static_cast<float>(delta) / 256.0f, 0.0f, 1.0f);
    }
    std::vector<float> faulted_sc(8 * 784);
    sc_engine.compute(img_sc.data(), faulted_sc.data(), *sc_scratch);

    // Binary: fault the 8-bit pixel words feeding the integer datapath.
    nn::Tensor img_bin = img;
    for (std::size_t i = 0; i < img_bin.size(); ++i) {
      const auto level = static_cast<std::uint32_t>(
          std::lround(static_cast<double>(img_bin[i]) * 255.0));
      const std::uint32_t faulted = sc::inject_word_faults(
          level, 8, ber, 1337 + i);
      img_bin[i] = static_cast<float>(faulted) / 255.0f;
    }
    std::vector<float> faulted_bin(8 * 784);
    bin_engine.compute(img_bin.data(), faulted_bin.data(), *bin_scratch);

    auto flipped_pct = [](const std::vector<float>& a,
                          const std::vector<float>& b) {
      std::size_t n = 0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) ++n;
      }
      return 100.0 * static_cast<double>(n) / static_cast<double>(a.size());
    };
    std::printf("%10.3f %26.2f %26.2f\n", ber,
                flipped_pct(clean_sc, faulted_sc),
                flipped_pct(clean_bin, faulted_bin));
  }
  std::printf("\nReading: stream encodings degrade linearly and gracefully "
              "with BER; positional binary\nencodings concentrate damage in "
              "high-order bits, so the same physical fault rate flips\n"
              "many more downstream decisions.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int trials = static_cast<int>(
      flags.get_long("trials", "SCBNN_FAULT_TRIALS", 4000, 1, 1000000));
  const std::vector<double> bers = flags.get_double_list(
      "bers", "SCBNN_FAULT_BERS", "0.0005,0.002,0.01,0.05", 0.0, 1.0);
  const std::vector<double> sys_bers = flags.get_double_list(
      "sys-bers", "SCBNN_FAULT_SYS_BERS", "0.001,0.01,0.05", 0.0, 1.0);

  std::printf("Fault-tolerance study (paper Section I claim; mechanism per "
              "Qian et al. [25])\n\n");
  value_level_study(bers, trials);
  system_level_study(sys_bers);
  return 0;
}
