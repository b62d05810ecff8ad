// google-benchmark microbenchmarks of the simulation kernels: how fast the
// SC substrate and the first-layer engines run on the host (simulation
// throughput, not modeled silicon performance — that is
// table3_power_energy_area).
// The executor section at the bottom prices the runtime's scheduling
// primitives themselves: parallel_for fan-out/join cost vs job count, the
// single-worker inline path, and chunk-steal throughput of the Executor.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/synthetic_mnist.h"
#include "hybrid/binary_first_layer.h"
#include "hybrid/bundle.h"
#include "hybrid/hybrid_network.h"
#include "hybrid/sc_first_layer.h"
#include "nn/conv2d.h"
#include "nn/gemm.h"
#include "nn/inference_plan.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "runtime/backend_registry.h"
#include "runtime/executor.h"
#include "sc/adder_tree.h"
#include "sc/mse.h"
#include "sc/tff.h"

namespace {

using namespace scbnn;

sc::Bitstream random_stream(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  sc::Bitstream s(n);
  for (std::size_t i = 0; i < n; ++i) s.set_bit(i, (rng() & 1u) != 0);
  return s;
}

void BM_TffAddSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_stream(n, 1), y = random_stream(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::tff_add_serial(x, y, false));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_TffAddSerial)->Arg(256)->Arg(4096);

void BM_TffAddPacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_stream(n, 1), y = random_stream(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::tff_add(x, y, false));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_TffAddPacked)->Arg(256)->Arg(4096);

void BM_TffAddWordsHot(benchmark::State& state) {
  // The allocation-free inner loop used by the convolution engine.
  constexpr std::size_t kWords = 4;  // N = 256
  std::uint64_t x[kWords], y[kWords], z[kWords];
  std::mt19937_64 rng(3);
  for (auto& w : x) w = rng();
  for (auto& w : y) w = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::tff_add_words(x, y, z, kWords, false));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TffAddWordsHot);

void BM_TffAdderTree32(benchmark::State& state) {
  std::vector<sc::Bitstream> inputs;
  for (int i = 0; i < 32; ++i) inputs.push_back(random_stream(256, i + 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sc::tff_adder_tree(inputs, sc::TffInitPolicy::kAlternating));
  }
}
BENCHMARK(BM_TffAdderTree32);

void BM_AdderMseExhaustive4Bit(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::adder_mse(sc::AddScheme::kTffAdder, 4));
  }
}
BENCHMARK(BM_AdderMseExhaustive4Bit);

/// 32 random 5x5 kernels quantized to `bits`: every first-layer benchmark's
/// weights.
nn::QuantizedConvWeights random_conv1_weights(unsigned bits) {
  nn::Rng rng(1);
  nn::Tensor w({32, 1, 5, 5});
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = rng.normal(0.0f, 0.3f);
  return nn::quantize_conv_weights(w, bits);
}

void BM_ScFirstLayerImage(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const auto qw = random_conv1_weights(bits);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = bits;
  hybrid::StochasticFirstLayer engine(
      hybrid::StochasticFirstLayer::Style::kProposed, qw, cfg);
  const nn::Tensor img = data::render_digit(3, 0);
  std::vector<float> out(32 * 28 * 28);
  // Reuse one scratch across iterations — the steady-state serving cost the
  // runtime's per-worker scratch achieves, without per-image allocation.
  const auto scratch = engine.make_scratch();
  for (auto _ : state) {
    engine.compute(img.data(), out.data(), *scratch);
    benchmark::ClobberMemory();
  }
  state.SetLabel("bit-exact 32-kernel stochastic conv, one 28x28 image");
}
BENCHMARK(BM_ScFirstLayerImage)->Arg(4)->Arg(8);

void BM_BinaryFirstLayerImage(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const auto qw = random_conv1_weights(bits);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = bits;
  hybrid::BinaryFirstLayer engine(qw, cfg);
  const nn::Tensor img = data::render_digit(3, 0);
  std::vector<float> out(32 * 28 * 28);
  const auto scratch = engine.make_scratch();
  for (auto _ : state) {
    engine.compute(img.data(), out.data(), *scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string("exact fixed-point 32-kernel conv, one 28x28 "
                             "image, conv GEMM at ") +
                 nn::kern::to_string(nn::kern::active_level()));
}
BENCHMARK(BM_BinaryFirstLayerImage)->Arg(4)->Arg(8);

void BM_FastScFirstLayerImage(benchmark::State& state) {
  // Same workload as BM_ScFirstLayerImage, on the count-domain engines:
  // range(0) is the style (0 = sc-proposed-fast, 1 = sc-conventional-fast)
  // and range(1) the precision, so the flat cost across bits — the closed
  // forms never touch a stream bit — reads off one report.
  const bool proposed = state.range(0) == 0;
  const auto bits = static_cast<unsigned>(state.range(1));
  const auto qw = random_conv1_weights(bits);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = bits;
  const auto engine = runtime::BackendRegistry::instance().create(
      proposed ? "sc-proposed-fast" : "sc-conventional-fast", qw, cfg);
  const nn::Tensor img = data::render_digit(3, 0);
  std::vector<float> out(32 * 28 * 28);
  const auto scratch = engine->make_scratch();
  for (auto _ : state) {
    engine->compute(img.data(), out.data(), *scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(engine->name() +
                 ": count-domain 32-kernel stochastic conv, one 28x28 image");
}
BENCHMARK(BM_FastScFirstLayerImage)
    ->ArgsProduct({{0, 1}, {2, 4, 6, 8}});

// --- Cold start -------------------------------------------------------------
// What a node that power-gates between bursts, or a respawned fleet shard,
// pays before its first answer: the count-domain engines' table builds, and
// a whole bundle reload.

void BM_FastScEngineBuild(benchmark::State& state) {
  // Construction alone, on BM_FastScFirstLayerImage's kernels: range(0) is
  // the style (0 = sc-proposed-fast, 1 = sc-conventional-fast), range(1)
  // the precision.
  const std::string backend =
      state.range(0) == 0 ? "sc-proposed-fast" : "sc-conventional-fast";
  const auto bits = static_cast<unsigned>(state.range(1));
  const auto qw = random_conv1_weights(bits);
  hybrid::FirstLayerConfig cfg;
  cfg.bits = bits;
  const runtime::BackendRegistry& registry =
      runtime::BackendRegistry::instance();
  for (auto _ : state) {
    const auto engine = registry.create(backend, qw, cfg);
    benchmark::DoNotOptimize(engine.get());
  }
  state.SetLabel(backend + ": count tables for 32 kernels");
}
BENCHMARK(BM_FastScEngineBuild)
    ->ArgsProduct({{0, 1}, {4, 8}})
    ->Unit(benchmark::kMicrosecond);

void BM_BundleColdStart(benchmark::State& state) {
  // Bundle file -> servable at the paper's LeNet {32, 64, 512}: load_bundle
  // and instantiate_servable of a 3/5/8-bit sc-proposed-fast ladder on one
  // thread. The file is written once, outside the timed loop.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("scbnn_cold_start_" + std::to_string(::getpid()) + ".bundle"))
          .string();
  {
    hybrid::ModelBundle bundle = bench::make_frozen_bundle(
        "sc-proposed-fast", {3, 5, 8}, hybrid::LeNetConfig{});
    hybrid::save_bundle(bundle, path);
  }
  runtime::RuntimeConfig rc;
  rc.threads = 1;
  for (auto _ : state) {
    hybrid::ModelBundle bundle = hybrid::load_bundle(path);
    const auto servable = hybrid::instantiate_servable(bundle, rc);
    benchmark::DoNotOptimize(servable.get());
  }
  std::remove(path.c_str());
  state.SetLabel("sc-proposed-fast 3/5/8-bit ladder, LeNet {32, 64, 512}");
}
BENCHMARK(BM_BundleColdStart)->Unit(benchmark::kMillisecond);

// --- Executor micro-benchmarks (runtime/) -----------------------------------
// The overhead of the scheduling layer itself, with trivial job bodies so
// the numbers are pure executor cost.

void BM_ExecutorParallelForWorkStealing(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  runtime::Executor pool(4);
  std::vector<long> sums(pool.size());
  for (auto _ : state) {
    pool.parallel_for(jobs,
                      [&sums](int job, unsigned worker) {
                        sums[worker] += job;
                      });
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * jobs);
  state.SetLabel("fan-out+join, 4 workers");
}
BENCHMARK(BM_ExecutorParallelForWorkStealing)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_ExecutorParallelForInlineSingleWorker(benchmark::State& state) {
  // The allocation-free inline loop a single-frame 1-thread serving
  // config rides per request.
  runtime::Executor pool(1);
  std::vector<long> sums(1);
  for (auto _ : state) {
    pool.parallel_for(64, [&sums](int job, unsigned worker) {
      sums[worker] += job;
    });
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ExecutorParallelForInlineSingleWorker);

void BM_ExecutorStealThroughput(benchmark::State& state) {
  // Chunk-steal rate under sustained fan-out pressure, read off the
  // executor's own counters: steals (and attempts) per second appear as
  // rate counters in the report.
  runtime::Executor pool(4);
  std::vector<long> sums(pool.size());
  const runtime::ExecutorStats before = pool.stats();
  for (auto _ : state) {
    pool.parallel_for(256, [&sums](int job, unsigned worker) {
      sums[worker] += job;
    });
    benchmark::ClobberMemory();
  }
  const runtime::ExecutorStats after = pool.stats();
  state.counters["steals"] = benchmark::Counter(
      static_cast<double>(after.steals - before.steals),
      benchmark::Counter::kIsRate);
  state.counters["steal_attempts"] = benchmark::Counter(
      static_cast<double>(after.steal_attempts - before.steal_attempts),
      benchmark::Counter::kIsRate);
  state.counters["chunks"] = benchmark::Counter(
      static_cast<double>(after.chunks_run - before.chunks_run),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutorStealThroughput);

void BM_Conv2DForward(benchmark::State& state) {
  nn::Rng rng(2);
  nn::Conv2D conv(1, 32, 5, 2, rng);
  nn::Tensor x({8, 1, 28, 28});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  state.SetLabel("batch of 8");
}
BENCHMARK(BM_Conv2DForward);

// --- Tail GEMM micro-benchmarks (nn/gemm.h) ---------------------------------
// Scalar vs dispatched microkernels at the exact shapes the serving tail's
// InferencePlan runs, so the SIMD speedup of the binary tail reads off one
// report. items_per_second is output elements; the flops counter is the
// 2*m*k*n multiply-add work through the kernel. Each benchmark runs once
// per dispatch level available on this host (scalar always; AVX2 when
// present).

void add_simd_levels(benchmark::internal::Benchmark* b) {
  for (nn::kern::Level level : nn::kern::available_levels()) {
    b->Arg(static_cast<int>(level));
  }
}

nn::kern::Level bench_level(benchmark::State& state) {
  const auto level = static_cast<nn::kern::Level>(state.range(0));
  state.SetLabel(nn::kern::to_string(level));
  return level;
}

std::vector<float> random_floats(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> uni(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& f : v) f = uni(rng);
  return v;
}

void BM_GemmRowBiasConvShape(benchmark::State& state) {
  // The plan's fused conv+bias+ReLU step for the bench tail's second conv,
  // as InferencePlan runs it: 8 kernels x (32ch * 5x5 taps) over a
  // 32x14x14 input read in place through tap offsets, 9*14 + 10 = 136
  // lanes per kernel, of which the 10x10 output positions are kept.
  // items_per_second counts kept outputs; flops counts every lane.
  const auto level = bench_level(state);
  constexpr int kM = 8, kC = 32, kH = 14, kKernel = 5;
  constexpr int kOut = kH - kKernel + 1;
  constexpr int kK = kC * kKernel * kKernel;
  constexpr int kLanes = (kOut - 1) * kH + kOut;
  std::vector<std::size_t> b_row;
  for (int ch = 0; ch < kC; ++ch) {
    for (int ki = 0; ki < kKernel; ++ki) {
      for (int kj = 0; kj < kKernel; ++kj) {
        b_row.push_back((static_cast<std::size_t>(ch) * kH + ki) * kH + kj);
      }
    }
  }
  const auto a = random_floats(static_cast<std::size_t>(kM) * kK, 1);
  const auto x = random_floats(static_cast<std::size_t>(kC) * kH * kH, 2);
  const auto bias = random_floats(kM, 3);
  std::vector<float> c(static_cast<std::size_t>(kM) * kLanes);
  for (auto _ : state) {
    nn::kern::gemm_rowbias_act(a.data(), x.data(), b_row.data(), bias.data(),
                               c.data(), kM, kK, kLanes, /*relu=*/true,
                               level);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kM * kOut * kOut);
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * kM * kK * kLanes,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmRowBiasConvShape)->Apply(add_simd_levels);

void BM_GemmColBiasDenseShape(benchmark::State& state) {
  // The plan's first dense step: one image's 200 features -> 32 units,
  // weights pre-packed [in, out].
  const auto level = bench_level(state);
  constexpr int kM = 1, kK = 200, kN = 32;
  const auto a = random_floats(static_cast<std::size_t>(kM) * kK, 4);
  const auto b = random_floats(static_cast<std::size_t>(kK) * kN, 5);
  const auto bias = random_floats(kN, 6);
  std::vector<float> c(static_cast<std::size_t>(kM) * kN);
  for (auto _ : state) {
    nn::kern::gemm_colbias_act(a.data(), b.data(), bias.data(), c.data(), kM,
                               kK, kN, /*relu=*/true, level);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kM * kN);
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * kM * kK * kN,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmColBiasDenseShape)->Apply(add_simd_levels);

void BM_FusedTailPlan(benchmark::State& state) {
  // The whole vectorized tail (pool-conv-pool-dense-dense with fused bias/
  // ReLU, arena scratch) on one image, as the serving runtime runs it right
  // after that image's first layer. items_per_second is images.
  const auto level = bench_level(state);
  const hybrid::LeNetConfig lenet{32, 8, 32, 0.0f};
  nn::Rng rng(7);
  nn::Network tail = hybrid::build_tail(lenet, rng);
  const nn::InferencePlan plan(tail, lenet.conv1_kernels, hybrid::kImageSize,
                               hybrid::kImageSize);
  nn::InferencePlan::Arena arena = plan.make_arena();
  const auto x = random_floats(plan.input_size(), 8);
  std::vector<float> logits(static_cast<std::size_t>(plan.classes()));
  for (auto _ : state) {
    plan.run(x.data(), logits.data(), arena, level);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(plan.flops_per_image()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FusedTailPlan)->Apply(add_simd_levels);

}  // namespace

BENCHMARK_MAIN();
