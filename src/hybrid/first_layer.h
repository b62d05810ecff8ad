// First-layer engine interface for the hybrid stochastic-binary network.
//
// The paper's system (Fig. 3) computes the first LeNet-5 convolution layer
// near the sensor: 784 dot-product units evaluate a 5x5 kernel over every
// (same-padded) position of the 28x28 input, 32 kernel passes per image,
// with a sign(x . w) activation in {-1, 0, +1}. Everything after this layer
// runs in the binary domain. An engine maps input images to those ternary
// feature maps; implementations differ in the arithmetic used (exact
// quantized binary vs bit-exact stochastic simulation, old or new design).
//
// One frame is the unit of work, as the sensor delivers it: an engine maps
// one image to its feature block against caller-provided per-thread
// scratch, so the serving runtime (runtime::AdaptivePipeline) can hand
// each executor job one frame without per-frame allocation. A frame's
// features depend on that frame alone — same seed, same features, bit for
// bit, whatever the batch or thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "nn/quantize.h"
#include "nn/tensor.h"

namespace scbnn::hybrid {

/// LeNet-5 first-layer geometry (Keras variant used in the paper's Fig. 3).
inline constexpr int kImageSize = 28;
inline constexpr int kKernelSize = 5;
inline constexpr int kPad = 2;                      // 'same' padding
inline constexpr int kFanIn = kKernelSize * kKernelSize;
inline constexpr int kOutputsPerKernel = kImageSize * kImageSize;  // 784 units

/// Lane geometry of the engines that evaluate a kernel at every output
/// position at once (the count-domain SC engines and the binary engine).
/// Row stride of the zero-padded level image.
inline constexpr std::size_t kPadded = kImageSize + 2 * kPad;
/// Output lanes: 28 rows of kPadded; lane oy*kPadded + ox, ox < 28 real.
inline constexpr std::size_t kLanes = kImageSize * kPadded;
/// Padded image plus the overhang the last lane's bottom-right tap reads.
inline constexpr std::size_t kMapSize =
    kLanes + (kKernelSize - 1) * (kPadded + 1);

struct FirstLayerConfig {
  unsigned bits = 8;           ///< stream/weight precision (2..8 in the paper)
  double soft_threshold = 0.0; ///< dead zone in normalized dot-product units
  std::uint32_t seed = 1;      ///< LFSR seeding for the conventional design
};

class FirstLayerEngine {
 public:
  /// Opaque per-thread workspace. A Scratch may be reused across any number
  /// of compute calls on the same engine, but never shared between
  /// threads concurrently. Engines that need no workspace use this base.
  class Scratch {
   public:
    virtual ~Scratch();
  };

  virtual ~FirstLayerEngine();

  /// The entry point: one image (28x28 floats in [0,1]) -> one feature
  /// block (kernels x 28 x 28 floats in {-1, 0, +1}, row-major,
  /// kernel-major). `scratch` must come from this engine's make_scratch().
  virtual void compute(const float* image, float* out,
                       Scratch& scratch) const = 0;

  /// Allocate a workspace sized for this engine.
  [[nodiscard]] virtual std::unique_ptr<Scratch> make_scratch() const;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int kernels() const noexcept = 0;
  /// Precision the engine was built at (stream length is 2^bits for SC).
  [[nodiscard]] virtual unsigned bits() const noexcept = 0;

  /// Tensor convenience: [N,1,28,28] -> [N, kernels, 28, 28], one compute
  /// call per image on the calling thread. Throughput paths should go
  /// through runtime::AdaptivePipeline, which spreads frames across its
  /// executor.
  [[nodiscard]] nn::Tensor compute_batch(const nn::Tensor& images) const;
};

enum class FirstLayerDesign {
  kBinaryQuantized,   ///< n-bit integer arithmetic + sign (paper's "Binary")
  kScProposed,        ///< ramp + low-discrepancy + TFF tree ("This Work")
  kScConventional,    ///< LFSR SNGs + MUX tree ("Old SC")
};

[[nodiscard]] std::string to_string(FirstLayerDesign d);

/// Registry key of a built-in design ("binary-quantized", "sc-proposed",
/// "sc-conventional") — the names runtime::BackendRegistry resolves.
[[nodiscard]] std::string backend_name(FirstLayerDesign d);

/// Inverse of backend_name. Throws std::invalid_argument listing the valid
/// names for anything else — used by tools that take a backend on the
/// command line.
[[nodiscard]] FirstLayerDesign design_from_backend(const std::string& name);

/// Build an engine over quantized first-layer weights. Resolves through
/// runtime::BackendRegistry, so it sees the same backends as name lookup.
[[nodiscard]] std::unique_ptr<FirstLayerEngine> make_first_layer_engine(
    FirstLayerDesign design, const nn::QuantizedConvWeights& weights,
    const FirstLayerConfig& config);

}  // namespace scbnn::hybrid
