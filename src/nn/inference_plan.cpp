#include "nn/inference_plan.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/maxpool.h"

namespace scbnn::nn {

namespace {

[[noreturn]] void bad_layer(std::size_t idx, const std::string& what) {
  throw std::invalid_argument("InferencePlan: layer " + std::to_string(idx) +
                              ": " + what);
}

/// One [c, h, w] image into the middle of a zeroed [c, h + 2*pad,
/// w + 2*pad] buffer.
void copy_bordered(const float* x, int c, int h, int w, int pad,
                   float* dst) {
  const int bh = h + 2 * pad, bw = w + 2 * pad;
  std::fill_n(dst, static_cast<std::size_t>(c) * bh * bw, 0.0f);
  for (int ch = 0; ch < c; ++ch) {
    for (int i = 0; i < h; ++i) {
      std::memcpy(dst + (static_cast<std::size_t>(ch) * bh + i + pad) * bw +
                      pad,
                  x + (static_cast<std::size_t>(ch) * h + i) * w,
                  static_cast<std::size_t>(w) * sizeof(float));
    }
  }
}

}  // namespace

InferencePlan::InferencePlan(Network& net, int in_c, int in_h, int in_w)
    : in_c_(in_c), in_h_(in_h), in_w_(in_w) {
  if (in_c <= 0 || in_h <= 0 || in_w <= 0) {
    throw std::invalid_argument("InferencePlan: bad input shape");
  }
  in_size_ = static_cast<std::size_t>(in_c) * in_h * in_w;

  // First pass: size the packed Dense storage so pointers into it survive
  // the second pass (vector reallocation would invalidate them).
  std::size_t packed_total = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* d = dynamic_cast<Dense*>(&net.layer(i))) {
      packed_total += d->weights().size();
    }
  }
  packed_.resize(packed_total);

  int c = in_c, h = in_h, w = in_w;
  std::size_t packed_off = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    Layer& layer = net.layer(i);
    Step step;
    step.in_c = c;
    step.in_h = h;
    step.in_w = w;
    if (auto* conv = dynamic_cast<Conv2D*>(&layer)) {
      if (conv->in_channels() != c) {
        bad_layer(i, "Conv2D expects " +
                         std::to_string(conv->in_channels()) +
                         " channels, input has " + std::to_string(c));
      }
      const int k = conv->kernel(), pad = conv->pad();
      const int oh = h + 2 * pad - k + 1, ow = w + 2 * pad - k + 1;
      if (oh <= 0 || ow <= 0) bad_layer(i, "Conv2D output is empty");
      step.kind = Step::Kind::kConv;
      step.out_c = conv->out_channels();
      step.out_h = oh;
      step.out_w = ow;
      step.pad = pad;
      step.w = conv->weights().data();
      step.b = conv->bias().data();
      const int src_h = h + 2 * pad;
      step.src_w = w + 2 * pad;
      step.lanes = (oh - 1) * step.src_w + ow;
      for (int ch = 0; ch < c; ++ch) {
        for (int ki = 0; ki < k; ++ki) {
          for (int kj = 0; kj < k; ++kj) {
            step.b_row.push_back(
                (static_cast<std::size_t>(ch) * src_h + ki) * step.src_w +
                kj);
          }
        }
      }
      if (pad > 0) {
        bordered_size_ =
            std::max(bordered_size_,
                     static_cast<std::size_t>(c) * src_h * step.src_w);
      }
      lanes_size_ = std::max(lanes_size_,
                             static_cast<std::size_t>(step.out_c) *
                                 step.lanes);
      const std::size_t krows = step.b_row.size();
      flops_ += 2.0 * step.out_c * static_cast<double>(krows) * oh * ow;
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      const int out_f = dense->weights().dim(0);
      const int in_f = dense->weights().dim(1);
      if (static_cast<std::size_t>(in_f) !=
          static_cast<std::size_t>(c) * h * w) {
        bad_layer(i, "Dense expects " + std::to_string(in_f) +
                         " features, input flattens to " +
                         std::to_string(static_cast<std::size_t>(c) * h * w));
      }
      step.kind = Step::Kind::kDense;
      step.out_c = out_f;
      step.out_h = 1;
      step.out_w = 1;
      step.in_c = in_f;  // treated as flat [in_f]
      step.in_h = 1;
      step.in_w = 1;
      step.dense = dense;
      step.packed_off = packed_off;
      packed_off += dense->weights().size();
      step.b = dense->bias().data();
      flops_ += 2.0 * in_f * static_cast<double>(out_f);
    } else if (dynamic_cast<MaxPool2*>(&layer) != nullptr) {
      if (h % 2 != 0 || w % 2 != 0) {
        bad_layer(i, "MaxPool2 needs even spatial dims, input is " +
                         std::to_string(h) + "x" + std::to_string(w));
      }
      step.kind = Step::Kind::kPool;
      step.out_c = c;
      step.out_h = h / 2;
      step.out_w = w / 2;
    } else if (dynamic_cast<ReLU*>(&layer) != nullptr) {
      // Fuse into the preceding conv/dense when possible.
      if (!steps_.empty() && !steps_.back().relu &&
          (steps_.back().kind == Step::Kind::kConv ||
           steps_.back().kind == Step::Kind::kDense)) {
        steps_.back().relu = true;
        continue;
      }
      step.kind = Step::Kind::kRelu;
      step.out_c = c;
      step.out_h = h;
      step.out_w = w;
    } else if (dynamic_cast<Dropout*>(&layer) != nullptr) {
      continue;  // identity at inference time
    } else {
      bad_layer(i, "unsupported layer " + layer.name());
    }
    c = step.out_c;
    h = step.out_h;
    w = step.out_w;
    max_act_ = std::max(max_act_, step.out_size());
    steps_.push_back(std::move(step));
  }
  classes_ = static_cast<int>(static_cast<std::size_t>(c) * h * w);
  refresh_params();
}

void InferencePlan::refresh_params() {
  for (Step& step : steps_) {
    if (step.kind != Step::Kind::kDense) continue;
    // Repack [out, in] -> [in, out] so output columns are contiguous in
    // the GEMM's B rows.
    const float* src = step.dense->weights().data();
    float* dst = packed_.data() + step.packed_off;
    const int in_f = step.in_c, out_f = step.out_c;
    for (int p = 0; p < in_f; ++p) {
      for (int j = 0; j < out_f; ++j) {
        dst[static_cast<std::size_t>(p) * out_f + j] =
            src[static_cast<std::size_t>(j) * in_f + p];
      }
    }
  }
}

InferencePlan::Arena InferencePlan::make_arena() const {
  Arena a;
  a.ping.resize(max_act_);
  a.pong.resize(max_act_);
  a.bordered.resize(bordered_size_);
  a.lanes.resize(lanes_size_);
  return a;
}

void InferencePlan::run(const float* x, float* logits, Arena& arena,
                        kern::Level level) const {
  if (steps_.empty()) {
    std::memcpy(logits, x, in_size_ * sizeof(float));
    return;
  }
  const float* cur = x;
  float* bufs[2] = {arena.ping.data(), arena.pong.data()};
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    float* out = s + 1 == steps_.size() ? logits : bufs[s % 2];
    switch (step.kind) {
      case Step::Kind::kPool:
        kern::maxpool2(cur, step.in_c, step.in_h, step.in_w, out, level);
        break;
      case Step::Kind::kConv: {
        const float* src = cur;
        if (step.pad > 0) {
          copy_bordered(cur, step.in_c, step.in_h, step.in_w, step.pad,
                        arena.bordered.data());
          src = arena.bordered.data();
        }
        kern::gemm_rowbias_act(step.w, src, step.b_row.data(), step.b,
                               arena.lanes.data(), step.out_c,
                               static_cast<int>(step.b_row.size()),
                               step.lanes, step.relu, level);
        const std::size_t row_bytes =
            static_cast<std::size_t>(step.out_w) * sizeof(float);
        float* dst = out;
        for (int oc = 0; oc < step.out_c; ++oc) {
          const float* lane_row =
              arena.lanes.data() + static_cast<std::size_t>(oc) * step.lanes;
          for (int oi = 0; oi < step.out_h; ++oi) {
            std::memcpy(dst, lane_row, row_bytes);
            dst += step.out_w;
            lane_row += step.src_w;
          }
        }
        break;
      }
      case Step::Kind::kDense:
        kern::gemm_colbias_act(cur, packed_.data() + step.packed_off, step.b,
                               out, 1, step.in_c, step.out_c, step.relu,
                               level);
        break;
      case Step::Kind::kRelu:
        for (std::size_t i = 0; i < step.in_size(); ++i) {
          out[i] = cur[i] > 0.0f ? cur[i] : 0.0f;
        }
        break;
    }
    cur = out;
  }
}

}  // namespace scbnn::nn
