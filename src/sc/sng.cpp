#include "sc/sng.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scbnn::sc {

Bitstream generate_stream(NumberSource& source, std::uint32_t level,
                          std::size_t length) {
  Bitstream out(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (source.next() < level) out.set_bit(i, true);
  }
  return out;
}

std::uint32_t quantize_unipolar(double analog_value, unsigned bits) {
  if (bits == 0 || bits > 31) {
    throw std::invalid_argument("quantize_unipolar: bits must be in [1,31]");
  }
  const double clamped = std::clamp(analog_value, 0.0, 1.0);
  const auto levels = static_cast<double>(std::uint32_t{1} << bits);
  return static_cast<std::uint32_t>(std::lround(clamped * levels));
}

Bitstream analog_to_stochastic(double analog_value, unsigned bits,
                               std::size_t length) {
  const std::uint32_t level = quantize_unipolar(analog_value, bits);
  const std::size_t period = std::size_t{1} << bits;
  Bitstream out(length);
  // One ramp period emits `level` ones then zeros; repeat for longer streams.
  for (std::size_t start = 0; start < length; start += period) {
    const std::size_t ones = std::min<std::size_t>(level, length - start);
    for (std::size_t i = 0; i < ones; ++i) out.set_bit(start + i, true);
  }
  return out;
}

std::vector<std::uint32_t> source_sequence(NumberSource& source,
                                           std::size_t n) {
  std::vector<std::uint32_t> seq(n);
  source.reset();
  for (std::size_t t = 0; t < n; ++t) seq[t] = source.next();
  return seq;
}

std::vector<std::uint64_t> packed_level_table(
    const std::vector<std::uint32_t>& seq, std::size_t words,
    std::uint32_t levels) {
  std::vector<std::uint64_t> table(static_cast<std::size_t>(levels) * words,
                                   0u);
  for (std::uint32_t b = 0; b < levels; ++b) {
    std::uint64_t* dst = table.data() + static_cast<std::size_t>(b) * words;
    for (std::size_t t = 0; t < seq.size(); ++t) {
      if (seq[t] < b) dst[t / 64] |= std::uint64_t{1} << (t % 64);
    }
  }
  return table;
}

}  // namespace scbnn::sc
