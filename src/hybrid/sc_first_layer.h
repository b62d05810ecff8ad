// Bit-exact stochastic first-layer engines (proposed and conventional).
//
// Simulates the paper's 784-unit stochastic convolution layer gate by gate
// on packed 64-bit words:
//   - input pixels enter through a ramp-compare analog-to-stochastic
//     converter (proposed) or an LFSR SNG (conventional);
//   - weights are split into unipolar w_pos / w_neg streams generated by a
//     shared low-discrepancy source (proposed) or a second LFSR
//     (conventional);
//   - per-tap AND multipliers feed a 32-leaf scaled adder tree of TFF
//     adders (proposed) or MUXes with LFSR selects (conventional);
//   - two asynchronous counters convert g_pos / g_neg to binary and a
//     comparator with a soft-threshold dead zone emits {-1, 0, +1}.
//
// All stream tables are computed once in the constructor and read-only
// afterwards, so compute is safe to call from many threads as long as each
// thread brings its own Scratch (the per-window slot banks).
//
// This is the *reference* implementation: one output position at a time,
// every stream simulated bit by bit. It is the referee for the count-domain
// fast path in sc_first_layer_fast.h, which is bit-identical by
// construction (same stream-table builders below, exact closed forms of
// the trees' counts), and the substrate for in-stream fault injection.
#pragma once

#include <cstdint>
#include <vector>

#include "hybrid/first_layer.h"

namespace scbnn::hybrid {

/// The two stochastic designs of the paper: "This Work" (ramp converter +
/// low-discrepancy weights + TFF tree) and "Old SC" (LFSR SNGs + MUX tree).
enum class ScStyle { kProposed, kConventional };

namespace detail {

/// Input-side comparator sequence over n cycles: the ramp converter's
/// (proposed) or an LFSR's seeded from `seed` (conventional). Pixel level
/// b's stream has bit t set iff seq[t] < b.
[[nodiscard]] std::vector<std::uint32_t> sc_input_sequence(ScStyle style,
                                                           unsigned bits,
                                                           std::uint32_t seed,
                                                           std::size_t n);

/// Input-side packed level table: levels+1 streams of n cycles, entry b is
/// the comparator-SNG output for level b over sc_input_sequence.
[[nodiscard]] std::vector<std::uint64_t> sc_input_level_table(
    ScStyle style, unsigned bits, std::uint32_t seed, std::size_t n,
    std::size_t words);

/// Weight-side packed level table (shared generator, amortized across
/// units): low-discrepancy van der Corput for proposed, a second LFSR
/// (alternate taps, independent seed) for conventional.
[[nodiscard]] std::vector<std::uint64_t> sc_weight_level_table(
    ScStyle style, unsigned bits, std::uint32_t seed, std::size_t n,
    std::size_t words);

/// MUX-tree select streams (p = 1/2), one per tree node from one wide LFSR
/// bank — the standard arrangement in prior SC NN hardware. `nodes` entries
/// of `words` words each. Conventional design only.
[[nodiscard]] std::vector<std::uint64_t> sc_mux_select_table(
    unsigned bits, std::uint32_t seed, std::size_t n, std::size_t words,
    std::size_t nodes);

/// Routing masks of the conventional design's 32-leaf MUX tree: entry t
/// (`words` words) has bit c set iff the select streams of
/// sc_mux_select_table route leaf t to the root on cycle c. Nodes are
/// numbered level by level, left to right (the reference reduction's
/// order), and select 1 takes the right input. Each of the n cycles
/// reaches exactly one leaf, so the 32 masks partition them.
[[nodiscard]] std::vector<std::uint64_t> sc_mux_leaf_masks(
    unsigned bits, std::uint32_t seed, std::size_t n, std::size_t words);

}  // namespace detail

class StochasticFirstLayer final : public FirstLayerEngine {
 public:
  using Style = ScStyle;

  StochasticFirstLayer(Style style, const nn::QuantizedConvWeights& weights,
                       const FirstLayerConfig& config);

  void compute(const float* image, float* out,
               Scratch& scratch) const override;
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override;

  [[nodiscard]] std::string name() const override {
    return style_ == Style::kProposed ? "sc-proposed" : "sc-conventional";
  }
  [[nodiscard]] int kernels() const noexcept override { return kernels_; }
  [[nodiscard]] unsigned bits() const noexcept override { return bits_; }

  /// Stream length N = 2^bits (cycles per dot product).
  [[nodiscard]] std::size_t stream_length() const noexcept { return n_; }

 private:
  static constexpr int kSlots = 32;  // adder-tree leaves (25 taps + 7 zero)

  /// Two banks of kSlots packed streams (positive and negative trees).
  /// Zero-initialized; the 7 pad slots (25..31) are never written afterwards
  /// — the tap loop only fills slots 0..24 and the tree reduction only
  /// writes slots 0..15 — so they stay zero for the scratch's lifetime.
  struct SlotScratch final : Scratch {
    explicit SlotScratch(std::size_t words)
        : pos(kSlots * words), neg(kSlots * words) {}
    std::vector<std::uint64_t> pos, neg;
  };

  void reduce_tree(std::uint64_t* slots) const;  // in-place, result in slot 0

  Style style_;
  unsigned bits_;
  std::size_t n_;       // stream length
  std::size_t words_;   // words per stream
  int kernels_;
  double soft_threshold_;

  // level -> input stream (L+1 entries, each `words_` words)
  std::vector<std::uint64_t> input_table_;
  // [kernel][tap] -> stream (kernels * 25 * words_)
  std::vector<std::uint64_t> wpos_, wneg_;
  // MUX-tree select streams, one per node (31 * words_), conventional only
  std::vector<std::uint64_t> selects_;
};

}  // namespace scbnn::hybrid
