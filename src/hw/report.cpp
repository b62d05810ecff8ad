#include "hw/report.h"

#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "hw/binary_design.h"
#include "hw/stochastic_design.h"

namespace scbnn::hw {

std::string canonical_backend(const std::string& backend) {
  // Software fast paths ("-fast" suffix) simulate the same chip as their
  // reference backend; hardware figures are a property of the design, not
  // of how quickly the host evaluates it.
  constexpr std::string_view suffix = "-fast";
  if (backend.size() > suffix.size() &&
      backend.compare(backend.size() - suffix.size(), suffix.size(),
                      suffix) == 0) {
    return backend.substr(0, backend.size() - suffix.size());
  }
  return backend;
}

double backend_energy_per_frame_j(const std::string& backend, unsigned bits,
                                  int kernels) {
  const std::string name = canonical_backend(backend);
  ConvGeometry geo;
  geo.kernels = kernels;
  try {
    if (name == "binary-quantized") {
      return BinaryConvDesign(bits, /*engines=*/46, geo).energy_per_frame_j();
    }
    if (name == "sc-proposed" || name == "sc-conventional") {
      return StochasticConvDesign(bits, geo).energy_per_frame_j();
    }
  } catch (const std::exception&) {
    // Precision outside the calibrated model's range.
  }
  return 0.0;
}

double sc_cycles_per_frame(unsigned bits, int kernels) {
  return static_cast<double>(kernels) * static_cast<double>(1ULL << bits);
}

double backend_sc_cycles_per_frame(const std::string& backend, unsigned bits,
                                   int kernels) {
  const std::string name = canonical_backend(backend);
  if (name == "sc-proposed" || name == "sc-conventional") {
    return sc_cycles_per_frame(bits, kernels);
  }
  return 0.0;
}

TableWriter::TableWriter(std::vector<std::string> headers,
                         std::vector<int> widths)
    : headers_(std::move(headers)), widths_(std::move(widths)) {
  if (headers_.size() != widths_.size()) {
    throw std::invalid_argument("TableWriter: headers/widths mismatch");
  }
}

void TableWriter::print_header() const {
  print_rule();
  print_row(headers_);
  print_rule();
}

void TableWriter::print_row(const std::vector<std::string>& cells) const {
  std::printf("|");
  for (std::size_t i = 0; i < widths_.size(); ++i) {
    const std::string cell = i < cells.size() ? cells[i] : "";
    std::printf(" %-*s |", widths_[i], cell.c_str());
  }
  std::printf("\n");
}

void TableWriter::print_rule() const {
  std::printf("+");
  for (int w : widths_) {
    for (int i = 0; i < w + 2; ++i) std::printf("-");
    std::printf("+");
  }
  std::printf("\n");
}

std::string TableWriter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TableWriter::fmt_sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

}  // namespace scbnn::hw
