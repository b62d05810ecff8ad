// Table formatting and the paper's published reference values (Table 3),
// used for side-by-side printing in benches and band checks in tests.
#pragma once

#include <array>
#include <string>
#include <vector>

namespace scbnn::hw {

/// Paper Table 3 reference rows, indexed by precision 8..2 (index 0 = 8-bit).
struct PaperTable3 {
  static constexpr std::array<unsigned, 7> kBits = {8, 7, 6, 5, 4, 3, 2};
  // Misclassification rates (%).
  static constexpr std::array<double, 7> kBinaryMiscl = {0.89, 0.86, 0.89,
                                                         0.74, 0.79, 0.79,
                                                         1.30};
  static constexpr std::array<double, 7> kOldScMiscl = {2.22, 3.91, 1.30,
                                                        1.55, 1.63, 2.71,
                                                        4.89};
  static constexpr std::array<double, 7> kThisWorkMiscl = {0.94, 0.99, 1.04,
                                                           1.12, 1.04, 2.20,
                                                           43.82};
  // Throughput-normalized power (mW).
  static constexpr std::array<double, 7> kBinaryPowerMw = {
      40.95, 72.80, 121.52, 204.96, 325.36, 501.76, 683.20};
  static constexpr std::array<double, 7> kThisWorkPowerMw = {
      33.17, 33.55, 33.26, 33.01, 33.20, 29.96, 28.35};
  // Energy efficiency (nJ / frame).
  static constexpr std::array<double, 7> kBinaryEnergyNj = {
      670.92, 596.38, 497.74, 419.76, 333.17, 256.90, 174.90};
  static constexpr std::array<double, 7> kThisWorkEnergyNj = {
      543.42, 274.82, 136.22, 67.60, 34.00, 15.34, 7.26};
  // Area (mm^2).
  static constexpr std::array<double, 7> kBinaryAreaMm2 = {
      1.313, 1.094, 0.891, 0.710, 0.543, 0.391, 0.255};
  static constexpr std::array<double, 7> kThisWorkAreaMm2 = {
      1.321, 1.282, 1.240, 1.200, 1.166, 1.110, 1.057};
};

/// Paper Table 1 (multiplier MSE) and Table 2 (adder MSE) reference values:
/// {8-bit, 4-bit} per row, in row order of the paper.
struct PaperTables12 {
  static constexpr std::array<std::array<double, 2>, 4> kMultMse = {{
      {2.78e-3, 2.99e-3},   // one LFSR + shifted
      {2.57e-4, 1.60e-3},   // two LFSRs
      {1.28e-5, 1.01e-3},   // low-discrepancy
      {8.66e-6, 7.21e-4},   // ramp + low-discrepancy
  }};
  static constexpr std::array<std::array<double, 2>, 4> kAddMse = {{
      {3.24e-4, 5.55e-3},   // old adder, random + LFSR
      {5.49e-4, 5.49e-3},   // old adder, random + TFF
      {1.06e-4, 2.66e-3},   // old adder, LFSR + TFF
      {1.91e-6, 4.88e-4},   // new adder
  }};
};

/// Strip a "-fast" software-fast-path suffix from a backend name: the fast
/// engines simulate the same chip as their reference backend, so all
/// hardware figures resolve through the canonical name.
[[nodiscard]] std::string canonical_backend(const std::string& backend);

/// First-layer energy estimate (J/frame) for a named backend at `bits`
/// precision and `kernels` first-layer kernels, from the calibrated 65nm
/// design models. "sc-conventional" shares the stochastic chip model (the
/// paper gives no separate old-SC cost sheet; stream length and counter
/// structure match). Names are resolved via canonical_backend, so
/// "sc-proposed-fast" prices like "sc-proposed". Unknown backend names or
/// unsupported precisions return 0.0 — callers treat that as "no
/// estimate".
[[nodiscard]] double backend_energy_per_frame_j(const std::string& backend,
                                                unsigned bits,
                                                int kernels = 32);

/// SC first-layer run time in clock cycles for one frame: `kernels`
/// time-multiplexed kernel passes of 2^bits cycles each (Section IV.A).
[[nodiscard]] double sc_cycles_per_frame(unsigned bits, int kernels);

/// sc_cycles_per_frame for a named backend, 0.0 for backends with no
/// stochastic-cycle notion (e.g. "binary-quantized") — the backend->model
/// mapping lives here, beside the energy dispatch, not in callers.
[[nodiscard]] double backend_sc_cycles_per_frame(const std::string& backend,
                                                 unsigned bits, int kernels);

/// Fixed-width console table writer used by the bench harness.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers,
                       std::vector<int> widths);

  void print_header() const;
  void print_row(const std::vector<std::string>& cells) const;
  void print_rule() const;

  [[nodiscard]] static std::string fmt(double v, int precision = 2);
  [[nodiscard]] static std::string fmt_sci(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

}  // namespace scbnn::hw
