// Count-domain fast path for the stochastic first layer.
//
// Bit-identical to StochasticFirstLayer (it is built from the same stream
// tables — hybrid::detail builders in sc_first_layer.h — and the same tree
// node numbering), but it never simulates a bit: both adder trees have
// exact integer closed forms on stream *counts*, so a dot product costs
// table lookups and small-integer adds whose number does not grow with the
// stream length 2^bits.
//
//  - Proposed design (TFF tree). A TFF adder node outputs
//    ones(Z) = (ones(X) + ones(Y) + s0) >> 1 for any input correlation
//    (sc/tff.h), and s0 = node % 2 is fixed, so the 32-leaf tree is 31
//    integer adds-and-shifts over the 25 leaf counts. A leaf count depends
//    only on (pixel level, weight magnitude): popcount(in[level] & w[mag]).
//    Per frame the engine fills one uint16 count map per live weight
//    magnitude over a zero-padded 32-wide level image, then runs the tree
//    across all 28 x 32 output lanes at once with leaves as pointers into
//    those maps (lanes 28..31 of each row are padding, discarded). Leaves
//    whose count is identically zero — the 7 pad leaves, zero weights, and
//    the other sign's taps — are null, and a node with two null inputs is
//    null too: (0 + 0 + s0) >> 1 = 0.
//
//  - Conventional design (MUX tree). A MUX tree routes exactly one leaf to
//    the root on every cycle: leaf t reaches it on the cycles of
//    M_t = AND of the select streams (or their complements) on t's path
//    (detail::sc_mux_leaf_masks). So the root count is
//    sum_t popcount(leaf_t & M_t), with no rounding at all, and since only
//    pos - neg reaches the threshold and each tap feeds one sign, every
//    (kernel, tap) collapses to one signed int16 table over pixel levels,
//    +-popcount(in[level] & w[mag] & M_t). The M_t partition the stream's
//    N cycles among 32 leaves, 7 of them pads, so many tables are all
//    zero and only the live taps are summed.
//
// Both styles end in one shared step: the count difference pos - neg
// indexes a precomputed {-1, 0, +1} table built with the reference
// engine's exact comparator arithmetic.
//
// Every input stream is a comparator SNG (bit t of level b iff seq[t] < b),
// so the constructor builds each count table without a popcount:
// popcount(in[b] & x) = #{t in x : seq[t] < b} is a prefix sum over levels
// of the histogram of seq on the cycles the weight stream x keeps.
#pragma once

#include <cstdint>
#include <vector>

#include "hybrid/sc_first_layer.h"

namespace scbnn::hybrid {

class FastStochasticFirstLayer final : public FirstLayerEngine {
 public:
  using Style = ScStyle;

  FastStochasticFirstLayer(Style style,
                           const nn::QuantizedConvWeights& weights,
                           const FirstLayerConfig& config);

  void compute(const float* image, float* out,
               Scratch& scratch) const override;
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override;

  [[nodiscard]] std::string name() const override {
    return style_ == Style::kProposed ? "sc-proposed-fast"
                                      : "sc-conventional-fast";
  }
  [[nodiscard]] int kernels() const noexcept override { return kernels_; }
  [[nodiscard]] unsigned bits() const noexcept override { return bits_; }

 private:
  static constexpr int kSlots = 32;  // adder-tree leaves (25 taps + 7 zero)

  struct CountScratch final : Scratch {
    CountScratch(std::size_t map_entries, std::size_t node_lanes)
        : levels(kMapSize), maps(map_entries), nodes(node_lanes),
          diff(kLanes) {}
    std::vector<std::uint16_t> levels;  // padded pixel levels (pads stay 0)
    std::vector<std::uint16_t> maps;    // proposed: one count map per magnitude
    std::vector<std::uint16_t> nodes;   // proposed: 16 node banks + 2 roots
    std::vector<std::int16_t> diff;     // pos - neg count per lane
  };

  /// Proposed: kernel k's w_pos and w_neg TFF trees into s.diff.
  void tff_diff(int k, CountScratch& s) const;
  /// Conventional: kernel k's live MUX-routed taps summed into s.diff.
  void mux_diff(int k, CountScratch& s) const;

  Style style_;
  unsigned bits_;
  std::size_t n_;  // stream length
  int kernels_;
  /// sign_[d + n_]: the reference comparator's output for count
  /// difference d in [-n_, n_].
  std::vector<float> sign_;

  // Proposed: count tables per live weight magnitude (n_ + 1 entries each)
  // and, per (kernel, tree, tap) with tree 0 = w_pos and 1 = w_neg, the
  // index of the tap's count map, or -1 for a structurally zero leaf.
  std::vector<std::uint16_t> counts_;
  std::vector<std::int32_t> leaf_map_;

  // Conventional: signed tables per distinct live (tap, weight level)
  // (n_ + 1 entries each) and each kernel's live taps, kernel k owning
  // live_taps_[kernel_taps_[k] .. kernel_taps_[k + 1]).
  struct LiveTap {
    std::uint32_t offset;  // lane offset of the tap in the padded image
    std::uint32_t table;   // table index into tap_tables_
  };
  std::vector<std::int16_t> tap_tables_;
  std::vector<LiveTap> live_taps_;
  std::vector<std::uint32_t> kernel_taps_;
};

}  // namespace scbnn::hybrid
