// Adaptive-precision pipeline tests: ladder validation, escalation edge
// cases, per-rung stats, kernel-derived cycle accounting, thread-count
// bit-identity, and equivalence with a serial rung-by-rung escalation
// reference.
#include "runtime/adaptive_pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/synthetic_mnist.h"
#include "hw/report.h"
#include "hybrid/experiment.h"
#include "nn/loss.h"
#include "nn/quantize.h"
#include "obs/trace.h"

namespace scbnn::runtime {
namespace {

hybrid::LeNetConfig tiny_lenet() {
  hybrid::LeNetConfig cfg;
  cfg.conv1_kernels = 8;
  cfg.conv2_kernels = 8;
  cfg.dense_units = 32;
  cfg.dropout = 0.1f;
  return cfg;
}

/// Build rungs at the given precisions from a shared base model, with
/// tails copied (not retrained — tests only need structural behavior).
/// Deterministic: two calls with the same arguments yield rungs with
/// bit-identical engines and tail weights.
std::vector<AdaptiveRung> make_rungs(nn::Network& base,
                                     const hybrid::LeNetConfig& lenet,
                                     std::initializer_list<unsigned> bits) {
  std::vector<AdaptiveRung> rungs;
  for (unsigned b : bits) {
    AdaptiveRung rung;
    rung.bits = b;
    const auto qw =
        nn::quantize_conv_weights(hybrid::base_conv1_weights(base), b);
    hybrid::FirstLayerConfig flc;
    flc.bits = b;
    flc.soft_threshold = 0.3;
    rung.engine = hybrid::make_first_layer_engine(
        hybrid::FirstLayerDesign::kScProposed, qw, flc);
    nn::Rng rng(7);
    rung.tail = hybrid::build_tail(lenet, rng);
    hybrid::copy_tail_params(base, rung.tail);
    rungs.push_back(std::move(rung));
  }
  return rungs;
}

/// SC cycles a frame accepted at `rung` spent: one pass of every rung it
/// entered, summed cheapest first.
double cycles_spent(const AdaptivePipeline& pipeline, int rung) {
  double cycles = 0.0;
  for (int r = 0; r <= rung; ++r) {
    cycles += pipeline.rung_cycles_per_image(static_cast<std::size_t>(r));
  }
  return cycles;
}

class AdaptivePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nn::Rng rng(3);
    base_ = hybrid::build_lenet(tiny_lenet(), rng);
    split_ = data::generate_synthetic_mnist(14, 1, 23);
  }
  nn::Network base_;
  data::DataSplit split_;
};

TEST_F(AdaptivePipelineTest, EmptyLadderThrows) {
  EXPECT_THROW(AdaptivePipeline({}, 0.5), std::invalid_argument);
}

TEST_F(AdaptivePipelineTest, NonIncreasingBitsThrow) {
  EXPECT_THROW(AdaptivePipeline(make_rungs(base_, tiny_lenet(), {6u, 3u}),
                                0.5),
               std::invalid_argument);
  // Equal bits are just as invalid as decreasing ones.
  auto equal_bits = make_rungs(base_, tiny_lenet(), {4u});
  auto more = make_rungs(base_, tiny_lenet(), {4u});
  equal_bits.push_back(std::move(more[0]));
  EXPECT_THROW(AdaptivePipeline(std::move(equal_bits), 0.5),
               std::invalid_argument);
}

TEST_F(AdaptivePipelineTest, BitsMismatchedWithEngineThrows) {
  // rung.bits drives cycle/energy accounting, so it must agree with the
  // engine's actual precision instead of silently misreporting stats.
  auto rungs = make_rungs(base_, tiny_lenet(), {3u, 6u});
  rungs[0].bits = 2;  // engine really runs at 3 bits
  EXPECT_THROW(AdaptivePipeline(std::move(rungs), 0.5),
               std::invalid_argument);
}

TEST_F(AdaptivePipelineTest, NullEngineAndBadMarginThrow) {
  auto rungs = make_rungs(base_, tiny_lenet(), {3u, 6u});
  rungs[1].engine.reset();
  EXPECT_THROW(AdaptivePipeline(std::move(rungs), 0.5),
               std::invalid_argument);
  EXPECT_THROW(AdaptivePipeline(make_rungs(base_, tiny_lenet(), {3u}), 1.5),
               std::invalid_argument);
  EXPECT_THROW(AdaptivePipeline(make_rungs(base_, tiny_lenet(), {3u}), -0.1),
               std::invalid_argument);
}

TEST_F(AdaptivePipelineTest, RuntimeConfigValidatedOnConstruction) {
  RuntimeConfig rc;
  rc.threads = Executor::kMaxThreads + 1;
  EXPECT_THROW(AdaptivePipeline(make_rungs(base_, tiny_lenet(), {3u}), 0.5,
                                rc),
               std::invalid_argument);
}

TEST_F(AdaptivePipelineTest, ZeroMarginExitsEveryImageAtRungZero) {
  AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u, 6u}), 0.0);
  const auto outcomes = pipeline.classify(split_.train.images);
  const int n = split_.train.images.dim(0);
  for (const Prediction& o : outcomes) {
    EXPECT_EQ(o.rung, 0);
    EXPECT_EQ(o.bits_used, 3u);
    EXPECT_DOUBLE_EQ(cycles_spent(pipeline, o.rung),
                     pipeline.rung_cycles_per_image(0));
  }
  const PipelineStats& stats = pipeline.last_stats();
  ASSERT_EQ(stats.rungs.size(), 2u);
  EXPECT_EQ(stats.rungs[0].images_in, n);
  EXPECT_EQ(stats.rungs[0].images_exited, n);
  EXPECT_EQ(stats.rungs[1].images_in, 0);
  EXPECT_EQ(stats.rungs[1].images_exited, 0);
  EXPECT_DOUBLE_EQ(stats.sc_cycles, n * pipeline.rung_cycles_per_image(0));
}

TEST_F(AdaptivePipelineTest, ImpossibleMarginEscalatesEveryImageToLastRung) {
  AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u, 6u}), 1.0);
  const auto outcomes = pipeline.classify(split_.train.images);
  const int n = split_.train.images.dim(0);
  const double all_rungs = pipeline.rung_cycles_per_image(0) +
                           pipeline.rung_cycles_per_image(1);
  for (const Prediction& o : outcomes) {
    EXPECT_EQ(o.rung, 1);
    EXPECT_EQ(o.bits_used, 6u);
    EXPECT_DOUBLE_EQ(cycles_spent(pipeline, o.rung), all_rungs);
  }
  const PipelineStats& stats = pipeline.last_stats();
  EXPECT_EQ(stats.rungs[0].images_in, n);
  EXPECT_EQ(stats.rungs[0].images_exited, 0);
  EXPECT_EQ(stats.rungs[1].images_in, n);
  EXPECT_EQ(stats.rungs[1].images_exited, n);
}

TEST_F(AdaptivePipelineTest, MarginExactlyAtThresholdAcceptsWithoutEscalating) {
  // Measure an image's rung-0 margin, then use that exact value as the
  // confidence threshold: >= semantics must accept at rung 0.
  const nn::Tensor one = data::head(split_.train, 1).images;
  AdaptivePipeline probe(make_rungs(base_, tiny_lenet(), {3u, 6u}), 0.0);
  const double margin = probe.classify(one)[0].margin;
  ASSERT_GT(margin, 0.0);
  ASSERT_LE(margin, 1.0);

  AdaptivePipeline exact(make_rungs(base_, tiny_lenet(), {3u, 6u}), margin);
  const auto outcome = exact.classify(one)[0];
  EXPECT_EQ(outcome.rung, 0);
  EXPECT_DOUBLE_EQ(outcome.margin, margin);

  // Any threshold strictly above that margin must escalate the image.
  const double above = std::nextafter(margin, 2.0);
  if (above <= 1.0) {
    AdaptivePipeline strict(make_rungs(base_, tiny_lenet(), {3u, 6u}), above);
    EXPECT_EQ(strict.classify(one)[0].rung, 1);
  }
}

TEST_F(AdaptivePipelineTest, MaxRungCapShortensTheLadderAndRestores) {
  // Margin 1.0 normally escalates everything to the top rung; a cap of 0
  // must keep every image at the cheap rung, and lifting the cap must
  // reproduce the uncapped run bit for bit.
  AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u, 6u}), 1.0);
  EXPECT_EQ(pipeline.max_rung(), 1);

  const std::vector<Prediction> uncapped =
      pipeline.classify(split_.train.images);
  for (const Prediction& o : uncapped) {
    EXPECT_EQ(o.rung, 1);
    EXPECT_EQ(o.bits_used, 6u);
    EXPECT_EQ(o.rung_cap, 1);
  }

  pipeline.set_max_rung(0);
  EXPECT_EQ(pipeline.max_rung(), 0);
  const std::vector<Prediction> capped =
      pipeline.classify(split_.train.images);
  for (const Prediction& o : capped) {
    EXPECT_EQ(o.rung, 0);
    EXPECT_EQ(o.bits_used, 3u);
    EXPECT_EQ(o.rung_cap, 0);
  }
  // Capped runs spend only the cheap rung's cycles.
  EXPECT_LT(pipeline.last_stats().sc_cycles,
            static_cast<double>(split_.train.images.dim(0)) *
                pipeline.rung_cycles_per_image(1));

  // Values past the ladder clamp; restoring reproduces the uncapped run.
  pipeline.set_max_rung(Servable::kUncappedRung);
  EXPECT_EQ(pipeline.max_rung(), 1);
  const std::vector<Prediction> restored =
      pipeline.classify(split_.train.images);
  ASSERT_EQ(restored.size(), uncapped.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].label, uncapped[i].label);
    EXPECT_EQ(restored[i].rung, uncapped[i].rung);
    EXPECT_DOUBLE_EQ(restored[i].margin, uncapped[i].margin);
  }

  // Negative caps clamp to the cheapest rung instead of underflowing.
  pipeline.set_max_rung(-5);
  EXPECT_EQ(pipeline.max_rung(), 0);
}

TEST_F(AdaptivePipelineTest, CycleAccountingDerivesKernelsFromEngine) {
  // The tiny base model has 8 first-layer kernels, not the paper's 32 —
  // cycle totals must reflect the engine, not a hardcoded default.
  AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u, 6u}), 0.0);
  EXPECT_EQ(pipeline.rung(0).engine->kernels(), 8);
  EXPECT_DOUBLE_EQ(pipeline.rung_cycles_per_image(0),
                   hw::sc_cycles_per_frame(3, 8));
  EXPECT_DOUBLE_EQ(pipeline.rung_cycles_per_image(1),
                   hw::sc_cycles_per_frame(6, 8));
  EXPECT_NE(pipeline.rung_cycles_per_image(0),
            hw::sc_cycles_per_frame(3, 32));  // the paper's 32 kernels
}

TEST_F(AdaptivePipelineTest, BitIdenticalAcrossThreadCounts) {
  const double margin = 0.35;
  auto run = [&](unsigned threads) {
    RuntimeConfig rc;
    rc.threads = threads;  // 4 workers: 14 frames -> 4 uneven chunks
    AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u, 5u, 7u}),
                              margin, rc);
    auto preds = pipeline.classify(split_.train.images);
    EXPECT_EQ(pipeline.last_stats().threads, threads);
    return std::make_pair(preds, pipeline.last_stats().sc_cycles);
  };
  const auto [serial, serial_cycles] = run(1);
  const auto [threaded, threaded_cycles] = run(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, threaded[i].label) << "image " << i;
    EXPECT_EQ(serial[i].rung, threaded[i].rung) << "image " << i;
    EXPECT_EQ(serial[i].bits_used, threaded[i].bits_used) << "image " << i;
    EXPECT_EQ(serial[i].margin, threaded[i].margin) << "image " << i;
  }
  EXPECT_EQ(serial_cycles, threaded_cycles);
}

TEST_F(AdaptivePipelineTest, MatchesSerialRungByRungEscalationReference) {
  // Independent reference: escalate each image serially through its own
  // rung set using the single-image engine path and a 1-row tail forward.
  const double margin = 0.35;
  auto ref_rungs = make_rungs(base_, tiny_lenet(), {3u, 5u, 7u});
  const int n = split_.train.images.dim(0);
  struct Expected {
    int label = -1;
    int rung = 0;
    unsigned bits_used = 0;
    double margin = 0.0;
    double cycles = 0.0;
  };
  std::vector<Expected> expected(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const float* image = split_.train.images.data() +
                         static_cast<std::size_t>(i) * 784;
    Expected& o = expected[static_cast<std::size_t>(i)];
    for (std::size_t r = 0; r < ref_rungs.size(); ++r) {
      AdaptiveRung& rung = ref_rungs[r];
      const int k = rung.engine->kernels();
      nn::Tensor features({1, k, 28, 28});
      rung.engine->compute(image, features.data(),
                           *rung.engine->make_scratch());
      const auto margins =
          nn::softmax_margins(rung.tail.forward(features, false));
      o.label = margins[0].best;
      o.rung = static_cast<int>(r);
      o.bits_used = rung.bits;
      o.margin = margins[0].margin;
      o.cycles += hw::sc_cycles_per_frame(rung.bits, k);
      if (o.margin >= margin || r + 1 == ref_rungs.size()) break;
    }
  }

  RuntimeConfig rc;
  rc.threads = 3;
  AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u, 5u, 7u}),
                            margin, rc);
  const auto got = pipeline.classify(split_.train.images);
  for (int i = 0; i < n; ++i) {
    const auto& e = expected[static_cast<std::size_t>(i)];
    const auto& g = got[static_cast<std::size_t>(i)];
    EXPECT_EQ(g.label, e.label) << "image " << i;
    EXPECT_EQ(g.rung, e.rung) << "image " << i;
    EXPECT_EQ(g.bits_used, e.bits_used) << "image " << i;
    EXPECT_EQ(g.margin, e.margin) << "image " << i;
    EXPECT_EQ(cycles_spent(pipeline, g.rung), e.cycles) << "image " << i;
  }
}

TEST_F(AdaptivePipelineTest, StatsAreConsistentAndEnergyPositive) {
  AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u, 6u}), 0.35);
  const auto outcomes = pipeline.classify(split_.train.images);
  const int n = split_.train.images.dim(0);
  const PipelineStats& stats = pipeline.last_stats();
  EXPECT_EQ(stats.images, n);
  int exited = 0;
  double cycles = 0.0, energy = 0.0;
  for (const RungStats& rs : stats.rungs) {
    exited += rs.images_exited;
    cycles += rs.sc_cycles;
    energy += rs.energy_j;
    EXPECT_GE(rs.images_in, rs.images_exited);
    // Every frame entering a rung pays that rung's per-frame cost.
    EXPECT_DOUBLE_EQ(rs.energy_j,
                     rs.images_in *
                         hw::backend_energy_per_frame_j("sc-proposed",
                                                        rs.bits, 8));
  }
  EXPECT_EQ(exited, n);  // every image exits exactly once
  EXPECT_DOUBLE_EQ(stats.sc_cycles, cycles);
  EXPECT_DOUBLE_EQ(stats.energy_j, energy);
  EXPECT_GT(stats.energy_j, 0.0);  // sc-proposed has a calibrated model
  EXPECT_GT(stats.latency_ms, 0.0);
  double outcome_cycles = 0.0, outcome_energy = 0.0;
  for (const Prediction& o : outcomes) {
    outcome_cycles += cycles_spent(pipeline, o.rung);
    // A frame is charged one pass of each rung it entered, no more.
    double spent = 0.0;
    for (int r = 0; r <= o.rung; ++r) {
      spent += hw::backend_energy_per_frame_j(
          "sc-proposed", stats.rungs[static_cast<std::size_t>(r)].bits, 8);
    }
    EXPECT_EQ(o.energy_j, spent);
    outcome_energy += o.energy_j;
    EXPECT_GE(o.label, 0);
    EXPECT_LT(o.label, 10);
    EXPECT_GE(o.margin, 0.0);
    EXPECT_LE(o.margin, 1.0);
    EXPECT_TRUE(o.bits_used == 3u || o.bits_used == 6u);
  }
  EXPECT_DOUBLE_EQ(outcome_cycles, stats.sc_cycles);
  EXPECT_DOUBLE_EQ(outcome_energy, stats.energy_j);
  // The mean lies between the cheap rung alone and every rung.
  EXPECT_GE(stats.mean_cycles_per_image(),
            pipeline.rung_cycles_per_image(0) - 1e-9);
  EXPECT_LE(stats.mean_cycles_per_image(), cycles_spent(pipeline, 1) + 1e-9);
}

TEST_F(AdaptivePipelineTest, EmitsStageSpansForEveryRungEntered) {
  // Margin 1.0 sends every frame through both rungs: each rung records
  // one first-layer and one tail span under the batch's trace id.
  AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u, 6u}), 1.0);
  constexpr std::uint64_t kTraceId = 0x5eed;
  obs::set_trace_mode(obs::TraceMode::kAll);
  {
    obs::AmbientTrace ambient(kTraceId);
    (void)pipeline.classify(split_.train.images);
  }
  obs::set_trace_mode(obs::TraceMode::kOff);
  const int n = split_.train.images.dim(0);
  int first_layer = 0, tail = 0;
  for (const obs::TraceSpan& span : obs::active_recorder().snapshot()) {
    if (span.trace_id != kTraceId) continue;
    if (span.name == obs::SpanName::kFirstLayer) ++first_layer;
    if (span.name == obs::SpanName::kTail) ++tail;
    if (span.name == obs::SpanName::kFirstLayer ||
        span.name == obs::SpanName::kTail) {
      EXPECT_EQ(span.arg0, static_cast<std::uint64_t>(n));
      EXPECT_GT(span.dur_ns, 0);
    }
  }
  EXPECT_EQ(first_layer, 2);
  EXPECT_EQ(tail, 2);
}

TEST_F(AdaptivePipelineTest, RejectsBadInputShape) {
  AdaptivePipeline pipeline(make_rungs(base_, tiny_lenet(), {3u}), 0.5);
  EXPECT_THROW((void)pipeline.classify(nn::Tensor({2, 1, 14, 14})),
               std::invalid_argument);
}

}  // namespace
}  // namespace scbnn::runtime
