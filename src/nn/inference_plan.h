// Inference-only execution plan for a sequential Network.
//
// Network::forward allocates a fresh Tensor per layer and runs naive scalar
// loops — fine for training, wasteful for serving. InferencePlan walks the
// network once at build time, resolves every intermediate shape, packs the
// Dense weights into GEMM-friendly layout, and fuses conv→bias→ReLU and
// dense→bias→ReLU into single microkernel calls (nn/gemm.h). A conv step
// builds no im2col panel: its GEMM reads the input image in place through
// a plan-time table of tap offsets (see Step). The plan runs one image at
// a time, the unit the serving runtime hands each worker, out of a
// caller-owned Arena (ping-pong activation buffers plus conv scratch), so
// the warm path performs ZERO heap allocations per image — a property
// regression tests enforce by counting operator new calls.
//
// Bit-identity: the microkernels replay the reference layers' float
// operation order element for element (see nn/gemm.h), so plan logits are
// bit-exact matches of Network::forward at every dispatch level, and an
// image's logits never depend on which worker ran it or on its batchmates.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/gemm.h"
#include "nn/network.h"

namespace scbnn::nn {

class Dense;

class InferencePlan {
 public:
  /// Caller-owned scratch for one worker: two ping-pong activation buffers
  /// sized for the widest intermediate shape, plus conv scratch: the
  /// zero-bordered copy of a padded conv's input, and the conv GEMM's
  /// lanes before the real ones are kept. Build with make_arena(); a given
  /// Arena is only valid for the plan that built it.
  struct Arena {
    std::vector<float> ping, pong, bordered, lanes;
  };

  /// Build a plan for `net` on per-image input shape [in_c, in_h, in_w].
  /// Supported layers: Conv2D, Dense, MaxPool2, ReLU, Dropout (inference
  /// no-op, skipped). Throws std::invalid_argument on any other layer or
  /// on a shape mismatch, naming the offending layer — callers fall back
  /// to Network::forward.
  InferencePlan(Network& net, int in_c, int in_h, int in_w);

  [[nodiscard]] Arena make_arena() const;

  /// Run one image from `x` ([in_c, in_h, in_w] row-major) to `logits`
  /// (classes() floats) at the given dispatch level. No heap allocation.
  void run(const float* x, float* logits, Arena& arena,
           kern::Level level) const;

  /// Re-pack the Dense weight copies from the (possibly retrained)
  /// network. Conv and bias parameters are referenced in place and always
  /// current; only the packed Dense layout is a snapshot. Call after
  /// mutating the network's parameters. No allocation.
  void refresh_params();

  [[nodiscard]] int classes() const noexcept { return classes_; }
  [[nodiscard]] std::size_t input_size() const noexcept { return in_size_; }
  /// Multiply-add FLOPs (2 per MAC) of the GEMM stages, for roofline math.
  [[nodiscard]] double flops_per_image() const noexcept { return flops_; }

 private:
  struct Step {
    enum class Kind { kPool, kConv, kDense, kRelu } kind;
    int in_c = 0, in_h = 0, in_w = 0;   // per-image input shape
    int out_c = 0, out_h = 0, out_w = 0;
    bool relu = false;                   // fused activation (conv/dense)
    const float* w = nullptr;            // conv weights [outC, inC*K*K]
    const float* b = nullptr;            // bias (conv: outC, dense: outF)
    // A conv reads its input through a zero border of `pad`: a source of
    // [in_c, src_h, src_w], src_h = in_h + 2*pad, src_w = in_w + 2*pad
    // (the input itself when pad == 0). GEMM column t is output row
    // t / src_w, column t % src_w: `lanes` = (out_h-1)*src_w + out_w
    // columns, whose last tap reads the source's last float; the
    // src_w - out_w wrapped columns of each row are computed and dropped.
    // Tap p = (ch*K + ki)*K + kj starts at b_row[p] = (ch*src_h + ki)*src_w
    // + kj.
    int pad = 0, src_w = 0, lanes = 0;
    std::vector<std::size_t> b_row;
    Dense* dense = nullptr;              // source layer for re-packing
    std::size_t packed_off = 0;          // dense weights into packed_
    [[nodiscard]] std::size_t in_size() const noexcept {
      return static_cast<std::size_t>(in_c) * in_h * in_w;
    }
    [[nodiscard]] std::size_t out_size() const noexcept {
      return static_cast<std::size_t>(out_c) * out_h * out_w;
    }
  };

  std::vector<Step> steps_;
  std::vector<float> packed_;  ///< dense weights repacked to [in, out]
  int in_c_ = 0, in_h_ = 0, in_w_ = 0;
  std::size_t in_size_ = 0;
  /// Widest step output: what the ping-pong buffers hold. The input is
  /// read in place and never copied into them.
  std::size_t max_act_ = 0;
  std::size_t bordered_size_ = 0;  ///< widest padded conv input
  std::size_t lanes_size_ = 0;     ///< widest conv GEMM output
  int classes_ = 0;
  double flops_ = 0.0;
};

}  // namespace scbnn::nn
