// Stochastic number generators (binary -> stochastic converters, Fig. 1c)
// and the ramp-compare analog-to-stochastic converter (Section IV.A).
#pragma once

#include <cstdint>
#include <vector>

#include "sc/bitstream.h"
#include "sc/rng_source.h"

namespace scbnn::sc {

/// Comparator-based SNG: emits bit_t = (source.next() < level) for `length`
/// cycles. `level` is the binary value B in [0, 2^source.bits()]; the
/// resulting stream encodes pX ~= B / 2^k.
[[nodiscard]] Bitstream generate_stream(NumberSource& source,
                                        std::uint32_t level,
                                        std::size_t length);

/// Ramp-compare analog-to-stochastic converter model.
///
/// A physical implementation compares the analog sensor voltage against a
/// ramp; the digital equivalent for an input already quantized to `level`
/// of `1 << bits` steps is a prefix-ones stream with exactly `level` ones
/// per period. The stream is heavily auto-correlated, which is harmless for
/// the paper's TFF-based adder (Section III) and exact for AND
/// multiplication against a low-discrepancy partner stream.
[[nodiscard]] Bitstream analog_to_stochastic(double analog_value,
                                             unsigned bits,
                                             std::size_t length);

/// Quantize an analog value in [0,1] to a level in [0, 2^bits].
[[nodiscard]] std::uint32_t quantize_unipolar(double analog_value,
                                              unsigned bits);

/// The source's first `n` values after a reset: seq[t] is what a
/// comparator SNG driven by it compares its level against on cycle t.
[[nodiscard]] std::vector<std::uint32_t> source_sequence(NumberSource& source,
                                                         std::size_t n);

/// Pack a comparator-SNG level table into raw words: entry b (b < levels)
/// holds the packed stream for level b over the seq.size() cycles of
/// `seq` (a source_sequence): bit t set iff seq[t] < b, each stream
/// spanning `words` 64-bit words. This is the construction-time workhorse
/// of the packed first-layer engines: one source sweep amortized over
/// every level.
[[nodiscard]] std::vector<std::uint64_t> packed_level_table(
    const std::vector<std::uint32_t>& seq, std::size_t words,
    std::uint32_t levels);

}  // namespace scbnn::sc
