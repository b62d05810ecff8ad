// Toggle-flip-flop (TFF) based stochastic circuits — the paper's core
// arithmetic contribution (Section III, Fig. 2).
//
// The TFF adder computes pZ = (pX + pY)/2 *exactly up to one ULP of the
// stream length*: ones(Z) = (ones(X)+ones(Y))/2, rounded down when the sum
// is odd and the initial TFF state S0 = 0, rounded up when S0 = 1
// (Fig. 2c) — in one closed form, ones(Z) = (ones(X)+ones(Y)+S0) >> 1.
// Unlike the MUX adder it needs no random select stream and is insensitive
// to input auto-correlation, so it can consume the heavily auto-correlated
// output of a ramp-compare analog-to-stochastic converter. Because that
// count identity holds for any pair of inputs, a whole TFF tree reduces to
// integer adds and shifts on its leaf counts; the count-domain first-layer
// engine (hybrid/sc_first_layer_fast.h) serves from exactly that, and
// tests/test_tff.cpp checks the identity against these circuits.
#pragma once

#include <cstdint>

#include "sc/bitstream.h"

namespace scbnn::sc {

/// Behavioral toggle flip-flop: Q toggles after any cycle where T = 1.
class ToggleFlipFlop {
 public:
  explicit ToggleFlipFlop(bool initial_state = false) : q_(initial_state) {}

  /// Current output Q (value *before* this cycle's toggle).
  [[nodiscard]] bool q() const noexcept { return q_; }

  /// Apply input T for one cycle; returns Q as seen during this cycle.
  bool clock(bool t) noexcept {
    const bool out = q_;
    if (t) q_ = !q_;
    return out;
  }

  void reset(bool state) noexcept { q_ = state; }

 private:
  bool q_;
};

/// Fig. 2a: pC = pA / 2 without an auxiliary random source. Every other 1 of
/// A is passed (c = a AND q, TFF toggled by a), so
/// ones(C) = floor(ones(A)/2) for s0 = 0, ceil for s0 = 1.
[[nodiscard]] Bitstream tff_halve(const Bitstream& a, bool s0 = false);

/// Fig. 2b, bit-serial reference model: at each cycle, if x == y the common
/// bit is output; otherwise the TFF state is output and the TFF toggles.
[[nodiscard]] Bitstream tff_add_serial(const Bitstream& x, const Bitstream& y,
                                       bool s0 = false);

/// Fig. 2b, word-parallel fast path (64 cycles per ~10 ALU ops using a
/// prefix-parity scan). Bit-exact against tff_add_serial.
[[nodiscard]] Bitstream tff_add(const Bitstream& x, const Bitstream& y,
                                bool s0 = false);

/// In-place word-parallel TFF add over raw words: z = tffadd(x, y), all
/// spanning `nwords` words with valid tail masking. Returns the final TFF
/// state. This is the hot inner loop of the bit-level stochastic
/// convolution engine (hybrid::StochasticFirstLayer).
bool tff_add_words(const std::uint64_t* x, const std::uint64_t* y,
                   std::uint64_t* z, std::size_t nwords, bool s0) noexcept;

}  // namespace scbnn::sc
