// Binary serialization of network parameters and the checked stream
// primitives shared with the model-bundle format (hybrid/bundle.h).
//
// Two magics identify files this serializer writes: kParamsMagic for a bare
// parameter snapshot (also the body of the float base-model cache, after
// its identity header; see hybrid/experiment.cpp) and kBundleMagic for a
// versioned ModelBundle. Every reader is strict: truncated files, dimension
// overflow, and out-of-range counts are rejected with a std::runtime_error
// naming the offending field — never a partial read into a live network.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "nn/network.h"
#include "nn/tensor.h"

namespace scbnn::nn {

/// Magic header of a bare parameter snapshot ("SCBNN" params v1).
inline constexpr std::uint32_t kParamsMagic = 0x5CB11A01;
/// Magic header of a ModelBundle (see hybrid/bundle.h for the payload).
inline constexpr std::uint32_t kBundleMagic = 0x5CB11B01;

/// Checked little-endian-native stream primitives. Readers throw
/// std::runtime_error mentioning `what` when the stream ends early or the
/// value fails its bound; writers leave error reporting to the caller's
/// final stream check (one throw per file, not per field).
namespace io {

void write_u32(std::ostream& out, std::uint32_t v);
void write_u64(std::ostream& out, std::uint64_t v);
void write_f32(std::ostream& out, float v);
void write_f64(std::ostream& out, double v);
void write_i32(std::ostream& out, std::int32_t v);

[[nodiscard]] std::uint32_t read_u32(std::istream& in, const char* what);
[[nodiscard]] std::uint64_t read_u64(std::istream& in, const char* what);
[[nodiscard]] float read_f32(std::istream& in, const char* what);
[[nodiscard]] double read_f64(std::istream& in, const char* what);
[[nodiscard]] std::int32_t read_i32(std::istream& in, const char* what);

/// read_u32 that additionally requires the value in [lo, hi]; the error
/// names `what` and the violated bound.
[[nodiscard]] std::uint32_t read_u32_bounded(std::istream& in,
                                             const char* what,
                                             std::uint32_t lo,
                                             std::uint32_t hi);

/// Length-prefixed string; the reader caps the length at 4096 bytes (no
/// field in any scbnn format is longer) so a corrupt prefix cannot demand
/// a gigabyte allocation.
void write_string(std::ostream& out, const std::string& s);
[[nodiscard]] std::string read_string(std::istream& in, const char* what);

/// Tensor as rank, dims, float data. The reader bounds rank to 4, each
/// dimension to [1, 2^24], and the element count to kMaxTensorElems before
/// allocating — a corrupt or truncated header fails fast and clean.
inline constexpr std::uint64_t kMaxTensorElems = std::uint64_t{1} << 28;
void write_tensor(std::ostream& out, const Tensor& t);
[[nodiscard]] Tensor read_tensor(std::istream& in, const char* what);

}  // namespace io

/// Write all parameter tensors of `net` to `path` (or an open binary
/// stream). Format: kParamsMagic, count, then per tensor: rank, dims, float
/// data. Layer structure itself is not serialized — the loader must rebuild
/// an identically shaped network.
void save_params(Network& net, const std::string& path);
void save_params(Network& net, std::ostream& out);

/// Load parameters saved by save_params into an identically structured
/// network. Throws std::runtime_error on shape or format mismatch or a
/// truncated stream; the stream overload's errors mention `context`.
void load_params(Network& net, const std::string& path);
void load_params(Network& net, std::istream& in, const std::string& context);

/// True if `path` exists and carries a magic this serializer writes —
/// either a bare parameter snapshot or a ModelBundle.
[[nodiscard]] bool params_file_valid(const std::string& path);

}  // namespace scbnn::nn
