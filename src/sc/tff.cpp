#include "sc/tff.h"

#include <stdexcept>

#include "sc/packed.h"

namespace scbnn::sc {

Bitstream tff_halve(const Bitstream& a, bool s0) {
  // c_i = a_i & q_i with q toggling on a_i = 1. At positions where a_i = 1,
  // q_i = s0 XOR parity(ones of a strictly before i). With pa = inclusive
  // prefix parity, parity-before = pa_i XOR a_i = pa_i XOR 1 at those
  // positions, so c = a & (s0 ? pa : ~pa).
  Bitstream out(a.length());
  auto aw = a.words();
  auto ow = out.words();
  bool carry = s0;
  for (std::size_t i = 0; i < aw.size(); ++i) {
    const std::uint64_t pa = prefix_xor(aw[i]);
    const std::uint64_t state_in = carry ? ~std::uint64_t{0} : 0;
    // q at position i = carry XOR parity(a before i) = carry ^ pa_i ^ a_i.
    ow[i] = aw[i] & (state_in ^ pa ^ aw[i]);
    carry = carry != word_parity(aw[i]);
  }
  out.mask_tail();
  return out;
}

Bitstream tff_add_serial(const Bitstream& x, const Bitstream& y, bool s0) {
  if (x.length() != y.length()) {
    throw std::invalid_argument("tff_add_serial: length mismatch");
  }
  Bitstream out(x.length());
  ToggleFlipFlop tff(s0);
  for (std::size_t i = 0; i < x.length(); ++i) {
    const bool xb = x.bit(i);
    const bool yb = y.bit(i);
    if (xb == yb) {
      out.set_bit(i, xb);
    } else {
      out.set_bit(i, tff.clock(true));
    }
  }
  return out;
}

bool tff_add_words(const std::uint64_t* x, const std::uint64_t* y,
                   std::uint64_t* z, std::size_t nwords, bool s0) noexcept {
  // At mismatch positions (m = x XOR y) the output is the TFF state before
  // the toggle: s0 XOR parity(mismatches strictly before i)
  //           = s0 XOR pm_i XOR 1     (pm = inclusive prefix parity of m).
  // At agreement positions the output is x (= y), i.e. x AND y.
  bool state = s0;
  for (std::size_t i = 0; i < nwords; ++i) {
    const std::uint64_t xi = x[i];
    const std::uint64_t yi = y[i];
    const std::uint64_t m = xi ^ yi;
    const std::uint64_t pm = prefix_xor(m);
    const std::uint64_t sel = state ? pm : ~pm;
    z[i] = (xi & yi) | (m & sel);
    state = state != word_parity(m);
  }
  return state;
}

Bitstream tff_add(const Bitstream& x, const Bitstream& y, bool s0) {
  if (x.length() != y.length()) {
    throw std::invalid_argument("tff_add: length mismatch");
  }
  Bitstream out(x.length());
  tff_add_words(x.words().data(), y.words().data(), out.words().data(),
                out.word_count(), s0);
  out.mask_tail();
  return out;
}

}  // namespace scbnn::sc
