// google-benchmark microbenchmarks for the hot kernels that bound training
// throughput: GEMM (all three transpose forms), im2col convolution, the
// temperature-sigmoid gate, and the CSQ bi-level materialize/backward pair.
//
// In addition to the registered benchmarks, every run emits four
// cross-PR tracking reports:
//   BENCH_materialize.json — serial vs pooled weight materialization for
//     all five WeightSource families on a ResNet-20-sized layer;
//   BENCH_gemm.json        — GFLOP/s of the blocked/packed GEMM against the
//     seed's naive triple-loop reference (serial and pooled) over
//     conv-shaped problems, with a pooled bit-identity check;
//   BENCH_step.json        — full train-step latency (forward + backward +
//     SGD) of a ResNet-20 BasicBlock under dense and CSQ weights;
//   BENCH_infer.json       — serving latency of a finalized ResNet-20:
//     float eval-path forward vs the int8 compiled graph
//     (runtime/compiled_graph.h), per batch size;
//   BENCH_serve.json       — the batching server (serve/batching_server.h)
//     under closed-loop producer threads: throughput and p50/p99 request
//     latency vs offered load (producer count) and max_batch.
//   BENCH_train_scaling.json — deterministic data-parallel training
//     (opt/data_parallel.h): mean step latency and speedup at 1/2/4/8
//     workers on a fixed shard grid, with a bit-identity re-check.
// Every report opens with a "machine" context block (hardware threads, pool
// threads, CSQ_THREADS, portable build) so numbers are never compared
// across hosts by accident.
// `--smoke` runs every report in a 1-iteration mode and exits — the ctest
// entry uses it so CI catches bench bitrot.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/csq_weight.h"
#include "core/gate.h"
#include "data/dataset.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/models.h"
#include "nn/parameter_arena.h"
#include "nn/weight_source.h"
#include "opt/data_parallel.h"
#include "opt/sgd.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "runtime/packed_weights.h"
#include "serve/autoscaler.h"
#include "serve/batching_server.h"
#include "serve/transport.h"
#include "quant/bsq_weight.h"
#include "quant/dorefa_weight.h"
#include "quant/lqnets_weight.h"
#include "quant/ste_uniform_weight.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/init.h"
#include "tensor/quant_kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csq {
namespace {

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng) {
  Tensor tensor(std::move(shape));
  fill_uniform(tensor, -1.0f, 1.0f, rng);
  return tensor;
}

// Machine-context block stamped into every BENCH_*.json so numbers are never
// compared across hosts (or across tuned vs portable builds) by accident:
// the container this repo is usually benched in has a single hardware
// thread, which caps every parallel speedup at 1x.
std::string machine_context_json() {
  std::ostringstream os;
  os << "\"machine\": {\"hardware_threads\": "
     << std::thread::hardware_concurrency()
     << ", \"pool_threads\": " << global_pool().num_threads()
     << ", \"csq_threads_env\": ";
  if (const char* env = std::getenv("CSQ_THREADS")) {
    os << '"' << env << '"';
  } else {
    os << "null";
  }
  os << ", \"portable_build\": "
#ifdef CSQ_PORTABLE_BUILD
     << "true"
#else
     << "false"
#endif
     << "}";
  return os.str();
}

void BM_GemmNN(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = random_tensor({n, n}, rng);
  Tensor b = random_tensor({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(Trans::no, Trans::no, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  Tensor a = random_tensor({n, n}, rng);
  Tensor b = random_tensor({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(Trans::no, Trans::yes, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(128);

void BM_GemmParallel(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(3);
  Tensor a = random_tensor({n, n}, rng);
  Tensor b = random_tensor({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(Trans::no, Trans::no, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n, /*scratch=*/nullptr, GemmExec{/*pooled=*/true});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmParallel)->Arg(256)->Arg(512);

void BM_ConvForward(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(4);
  Conv2dConfig config;
  config.in_channels = channels;
  config.out_channels = channels;
  Conv2d conv("conv", config, dense_weight_factory(), rng);
  Tensor input = random_tensor({16, channels, 16, 16}, rng);
  for (auto _ : state) {
    Tensor out = conv.forward(input, /*training=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * 2 * channels * channels *
                          9 * 16 * 16);
}
BENCHMARK(BM_ConvForward)->Arg(8)->Arg(16)->Arg(32);

void BM_Im2Col(benchmark::State& state) {
  Rng rng(5);
  ConvGeometry geom;
  geom.channels = state.range(0);
  geom.height = 16;
  geom.width = 16;
  geom.kernel_h = geom.kernel_w = 3;
  geom.stride = 1;
  geom.pad = 1;
  Tensor image = random_tensor({geom.channels, 16, 16}, rng);
  Tensor col({geom.col_rows(), geom.col_cols()});
  for (auto _ : state) {
    im2col(geom, image.data(), col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_Im2Col)->Arg(8)->Arg(32);

void BM_GateEval(benchmark::State& state) {
  Rng rng(6);
  Tensor logits = random_tensor({state.range(0)}, rng);
  Tensor out(logits.shape());
  for (auto _ : state) {
    const float* in = logits.data();
    float* dst = out.data();
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      dst[i] = gate(in[i], 37.0f);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * logits.numel());
}
BENCHMARK(BM_GateEval)->Arg(4096)->Arg(65536);

void BM_CsqMaterialize(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  Rng rng(7);
  CsqWeightOptions options;
  CsqWeightSource source("layer", {side, side}, side, options, rng);
  source.set_beta(13.0f);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  for (auto _ : state) {
    // Defeat the eval dirty-flag: this benchmark measures the rebuild.
    params.front()->mark_updated();
    const Tensor& w = source.weight(/*training=*/false);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * side * side * 8);
}
BENCHMARK(BM_CsqMaterialize)->Arg(32)->Arg(96);

void BM_CsqMaterializeAndBackward(benchmark::State& state) {
  const std::int64_t side = state.range(0);
  Rng rng(8);
  CsqWeightOptions options;
  CsqWeightSource source("layer", {side, side}, side, options, rng);
  source.set_beta(13.0f);
  Tensor grad = random_tensor({side, side}, rng);
  for (auto _ : state) {
    source.weight(/*training=*/true);
    source.backward(grad);
  }
  state.SetItemsProcessed(state.iterations() * side * side * 8);
}
BENCHMARK(BM_CsqMaterializeAndBackward)->Arg(32)->Arg(96);

// ------------------------------------------ weight materialization bench --

struct MaterializeFamily {
  const char* name;
  std::function<WeightSourcePtr(Rng&)> make;
};

// A ResNet-20-sized conv layer: 64x64x3x3 = 36864 weights.
const std::vector<std::int64_t>& bench_shape() {
  static const std::vector<std::int64_t> shape = {64, 64, 3, 3};
  return shape;
}
constexpr std::int64_t kBenchFanIn = 64 * 3 * 3;

std::vector<MaterializeFamily> materialize_families() {
  std::vector<MaterializeFamily> families;
  families.push_back({"csq", [](Rng& rng) {
                        CsqWeightOptions options;
                        auto src = std::make_unique<CsqWeightSource>(
                            "layer", bench_shape(), kBenchFanIn, options, rng);
                        src->set_beta(13.0f);
                        return WeightSourcePtr(std::move(src));
                      }});
  families.push_back({"bsq", [](Rng& rng) {
                        return WeightSourcePtr(
                            std::make_unique<BsqWeightSource>(
                                "layer", bench_shape(), kBenchFanIn, rng));
                      }});
  families.push_back({"ste_uniform", [](Rng& rng) {
                        return WeightSourcePtr(
                            std::make_unique<SteUniformWeightSource>(
                                "layer", bench_shape(), kBenchFanIn,
                                /*bits=*/4, rng));
                      }});
  families.push_back({"dorefa", [](Rng& rng) {
                        return WeightSourcePtr(
                            std::make_unique<DorefaWeightSource>(
                                "layer", bench_shape(), kBenchFanIn,
                                /*bits=*/2, rng));
                      }});
  families.push_back({"lqnets", [](Rng& rng) {
                        return WeightSourcePtr(
                            std::make_unique<LqNetsWeightSource>(
                                "layer", bench_shape(), kBenchFanIn,
                                /*bits=*/2, rng));
                      }});
  return families;
}

// Wall-clock ns per element of an eval-mode materialization, measured until
// at least `min_ms` of accumulated runtime. Each iteration marks a
// parameter updated so the eval dirty-flag cannot short-circuit the rebuild
// being measured.
double time_materialize_ns_per_element(WeightSource& source,
                                       double min_ms = 120.0) {
  const std::int64_t elements = source.weight_count();
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  for (int i = 0; i < 3; ++i) {  // warmup
    if (!params.empty()) params.front()->mark_updated();
    source.weight(/*training=*/false);
  }
  using clock = std::chrono::steady_clock;
  double elapsed_ns = 0.0;
  std::int64_t iterations = 0;
  while (elapsed_ns < min_ms * 1e6 && iterations < 2000) {
    if (!params.empty()) params.front()->mark_updated();
    const auto start = clock::now();
    const Tensor& w = source.weight(/*training=*/false);
    const auto stop = clock::now();
    benchmark::DoNotOptimize(w.data());
    elapsed_ns += std::chrono::duration<double, std::nano>(stop - start).count();
    ++iterations;
  }
  return elapsed_ns / static_cast<double>(iterations * elements);
}

void write_materialize_report(const std::string& path, double min_ms = 120.0) {
  const KernelExec prior = default_kernel_exec();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing; skipping the "
              << "materialization report\n";
    return;
  }
  const std::int64_t elements = 64 * 64 * 3 * 3;
  out << "{\n  " << machine_context_json()
      << ",\n  \"layer\": \"64x64x3x3\",\n  \"elements\": " << elements
      << ",\n  \"threads\": " << global_pool().num_threads()
      << ",\n  \"results\": [\n";
  bool first = true;
  for (const MaterializeFamily& family : materialize_families()) {
    Rng rng(42);
    WeightSourcePtr source = family.make(rng);
    set_default_kernel_exec(KernelExec::serial);
    const double serial_ns = time_materialize_ns_per_element(*source, min_ms);
    set_default_kernel_exec(KernelExec::pooled);
    const double pooled_ns = time_materialize_ns_per_element(*source, min_ms);
    if (!first) out << ",\n";
    first = false;
    out << "    {\"family\": \"" << family.name
        << "\", \"serial_ns_per_element\": " << serial_ns
        << ", \"pooled_ns_per_element\": " << pooled_ns
        << ", \"speedup\": " << serial_ns / pooled_ns << "}";
    std::cout << "materialize " << family.name << ": serial " << serial_ns
              << " ns/elem, pooled " << pooled_ns << " ns/elem (x"
              << serial_ns / pooled_ns << ")\n";
  }
  out << "\n  ]\n}\n";
  set_default_kernel_exec(prior);
  std::cout << "wrote " << path << "\n";
}

// --------------------------------------------------------- GEMM report --

// The seed's unblocked i-k-j / dot-product kernels, kept verbatim as the
// performance reference the blocked kernel is measured against.
void naive_gemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float beta, float* c,
                std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(row, row + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
  if (alpha == 0.0f || k == 0) return;
  if (trans_a == Trans::no && trans_b == Trans::no) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float* a_row = a + i * lda;
      float* c_row = c + i * ldc;
      for (std::int64_t p = 0; p < k; ++p) {
        const float a_ip = alpha * a_row[p];
        if (a_ip == 0.0f) continue;
        const float* b_row = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
      }
    }
  } else if (trans_a == Trans::no && trans_b == Trans::yes) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float* a_row = a + i * lda;
      float* c_row = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* b_row = b + j * ldb;
        float acc = 0.0f;
        for (std::int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
        c_row[j] += alpha * acc;
      }
    }
  } else {
    for (std::int64_t p = 0; p < k; ++p) {
      const float* a_row = a + p * lda;
      const float* b_row = b + p * ldb;
      for (std::int64_t i = 0; i < m; ++i) {
        const float a_pi = alpha * a_row[i];
        if (a_pi == 0.0f) continue;
        float* c_row = c + i * ldc;
        for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_pi * b_row[j];
      }
    }
  }
}

using GemmFn = std::function<void(std::int64_t, std::int64_t, std::int64_t,
                                  const float*, const float*, float*)>;

// Mean GFLOP/s of fn over at least min_ms of accumulated runtime.
double time_gemm_gflops(const GemmFn& fn, std::int64_t m, std::int64_t n,
                        std::int64_t k, const float* a, const float* b,
                        float* c, double min_ms) {
  using clock = std::chrono::steady_clock;
  fn(m, n, k, a, b, c);  // warmup
  double elapsed_ns = 0.0;
  std::int64_t iterations = 0;
  while (elapsed_ns < min_ms * 1e6 && iterations < 2000) {
    const auto start = clock::now();
    fn(m, n, k, a, b, c);
    const auto stop = clock::now();
    benchmark::DoNotOptimize(c);
    elapsed_ns +=
        std::chrono::duration<double, std::nano>(stop - start).count();
    ++iterations;
  }
  const double flops =
      2.0 * static_cast<double>(m) * static_cast<double>(n) *
      static_cast<double>(k) * static_cast<double>(iterations);
  return flops / elapsed_ns;  // flops per ns == GFLOP/s
}

struct GemmProblem {
  const char* name;
  Trans trans_a, trans_b;
  std::int64_t m, n, k;
};

void write_gemm_report(const std::string& path, double min_ms) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing; skipping the "
              << "GEMM report\n";
    return;
  }
  // The acceptance cube plus conv-shaped problems: a 64ch 3x3 conv over
  // 32x32 (forward NN, weight-grad NT, input-grad TN) and a stage-2-sized
  // 128ch conv over 16x16.
  const GemmProblem problems[] = {
      {"cube256_nn", Trans::no, Trans::no, 256, 256, 256},
      {"conv64x32x32_fwd_nn", Trans::no, Trans::no, 64, 1024, 576},
      {"conv64x32x32_wgrad_nt", Trans::no, Trans::yes, 64, 576, 1024},
      {"conv64x32x32_igrad_tn", Trans::yes, Trans::no, 576, 1024, 64},
      {"conv128x16x16_fwd_nn", Trans::no, Trans::no, 128, 256, 1152},
  };
  out << "{\n  " << machine_context_json()
      << ",\n  \"threads\": " << global_pool().num_threads()
      << ",\n  \"problems\": [\n";
  bool first = true;
  for (const GemmProblem& p : problems) {
    Rng rng(7);
    const std::int64_t a_rows = p.trans_a == Trans::no ? p.m : p.k;
    const std::int64_t a_cols = p.trans_a == Trans::no ? p.k : p.m;
    const std::int64_t b_rows = p.trans_b == Trans::no ? p.k : p.n;
    const std::int64_t b_cols = p.trans_b == Trans::no ? p.n : p.k;
    Tensor a = random_tensor({a_rows, a_cols}, rng);
    Tensor b = random_tensor({b_rows, b_cols}, rng);
    Tensor c({p.m, p.n});

    const double naive = time_gemm_gflops(
        [&](std::int64_t m, std::int64_t n, std::int64_t k, const float* pa,
            const float* pb, float* pc) {
          naive_gemm(p.trans_a, p.trans_b, m, n, k, 1.0f, pa, a_cols, pb,
                     b_cols, 0.0f, pc, n);
        },
        p.m, p.n, p.k, a.data(), b.data(), c.data(), min_ms);
    const double blocked = time_gemm_gflops(
        [&](std::int64_t m, std::int64_t n, std::int64_t k, const float* pa,
            const float* pb, float* pc) {
          gemm(p.trans_a, p.trans_b, m, n, k, 1.0f, pa, a_cols, pb, b_cols,
               0.0f, pc, n);
        },
        p.m, p.n, p.k, a.data(), b.data(), c.data(), min_ms);
    const double pooled = time_gemm_gflops(
        [&](std::int64_t m, std::int64_t n, std::int64_t k, const float* pa,
            const float* pb, float* pc) {
          gemm(p.trans_a, p.trans_b, m, n, k, 1.0f, pa, a_cols, pb, b_cols,
               0.0f, pc, n, /*scratch=*/nullptr, GemmExec{/*pooled=*/true});
        },
        p.m, p.n, p.k, a.data(), b.data(), c.data(), min_ms);

    // Determinism contract check: pooled output must be bit-identical to
    // serial.
    Tensor serial_c({p.m, p.n});
    Tensor pooled_c({p.m, p.n});
    gemm(p.trans_a, p.trans_b, p.m, p.n, p.k, 1.0f, a.data(), a_cols,
         b.data(), b_cols, 0.0f, serial_c.data(), p.n);
    gemm(p.trans_a, p.trans_b, p.m, p.n, p.k, 1.0f, a.data(), a_cols,
         b.data(), b_cols, 0.0f, pooled_c.data(), p.n, /*scratch=*/nullptr,
         GemmExec{/*pooled=*/true});
    bool bit_identical = true;
    for (std::int64_t i = 0; i < serial_c.numel(); ++i) {
      if (serial_c[i] != pooled_c[i]) {
        bit_identical = false;
        break;
      }
    }

    if (!first) out << ",\n";
    first = false;
    out << "    {\"name\": \"" << p.name << "\", \"m\": " << p.m
        << ", \"n\": " << p.n << ", \"k\": " << p.k
        << ", \"naive_gflops\": " << naive
        << ", \"blocked_gflops\": " << blocked
        << ", \"blocked_pooled_gflops\": " << pooled
        << ", \"speedup_vs_naive\": " << blocked / naive
        << ", \"pooled_bit_identical\": "
        << (bit_identical ? "true" : "false") << "}";
    std::cout << "gemm " << p.name << ": naive " << naive << " GFLOP/s, "
              << "blocked " << blocked << " GFLOP/s (x" << blocked / naive
              << "), pooled " << pooled << " GFLOP/s, bit_identical="
              << bit_identical << "\n";
  }

  // Wide-N rows: the head-matmul family (few output rows, ~1000 columns)
  // where the classic MC row split degenerates to serial. GemmExec::ways forces
  // 1/2/4/8-way column-panel grids regardless of the machine's thread
  // count, so the rows are comparable across hosts (speedups are ~1x on a
  // single-hardware-thread runner — the grid still runs, the workers just
  // drain it sequentially).
  out << "\n  ],\n  \"wide_n\": [\n";
  const std::int64_t wide_k = 512, wide_n = 1000;
  bool first_wide = true;
  for (const std::int64_t m : {std::int64_t{1}, std::int64_t{8}}) {
    Rng rng(11);
    Tensor a = random_tensor({m, wide_k}, rng);
    Tensor b = random_tensor({wide_k, wide_n}, rng);
    Tensor c({m, wide_n});

    const double serial = time_gemm_gflops(
        [&](std::int64_t pm, std::int64_t pn, std::int64_t pk,
            const float* pa, const float* pb, float* pc) {
          gemm(Trans::no, Trans::no, pm, pn, pk, 1.0f, pa, wide_k, pb,
               wide_n, 0.0f, pc, pn);
        },
        m, wide_n, wide_k, a.data(), b.data(), c.data(), min_ms);

    Tensor serial_c({m, wide_n});
    gemm(Trans::no, Trans::no, m, wide_n, wide_k, 1.0f, a.data(), wide_k,
         b.data(), wide_n, 0.0f, serial_c.data(), wide_n);

    if (!first_wide) out << ",\n";
    first_wide = false;
    out << "    {\"name\": \"head_m" << m << "\", \"m\": " << m
        << ", \"n\": " << wide_n << ", \"k\": " << wide_k
        << ", \"split\": \""
        << (gemm_choose_split(m, wide_n, 4) == GemmSplit::kCols ? "cols"
                                                                : "other")
        << "\", \"serial_gflops\": " << serial << ", \"ways\": [";
    std::cout << "gemm wide_n m" << m << ": serial " << serial
              << " GFLOP/s";
    bool first_ways = true;
    for (const int ways : {1, 2, 4, 8}) {
      const double split_gflops = time_gemm_gflops(
          [&](std::int64_t pm, std::int64_t pn, std::int64_t pk,
              const float* pa, const float* pb, float* pc) {
            gemm(Trans::no, Trans::no, pm, pn, pk, 1.0f, pa, wide_k, pb,
                 wide_n, 0.0f, pc, pn, /*scratch=*/nullptr,
                 GemmExec{/*pooled=*/true, GemmSplit::kAuto, ways});
          },
          m, wide_n, wide_k, a.data(), b.data(), c.data(), min_ms);
      Tensor split_c({m, wide_n});
      gemm(Trans::no, Trans::no, m, wide_n, wide_k, 1.0f, a.data(), wide_k,
           b.data(), wide_n, 0.0f, split_c.data(), wide_n, /*scratch=*/nullptr,
           GemmExec{/*pooled=*/true, GemmSplit::kAuto, ways});
      bool bit_identical = true;
      for (std::int64_t i = 0; i < serial_c.numel(); ++i) {
        if (serial_c[i] != split_c[i]) {
          bit_identical = false;
          break;
        }
      }
      if (!first_ways) out << ", ";
      first_ways = false;
      out << "{\"ways\": " << ways << ", \"tasks\": "
          << gemm_split_task_count(GemmSplit::kAuto, m, wide_n, ways)
          << ", \"gflops\": " << split_gflops
          << ", \"speedup_vs_serial\": " << split_gflops / serial
          << ", \"bit_identical\": " << (bit_identical ? "true" : "false")
          << "}";
      std::cout << ", w" << ways << " " << split_gflops << " (x"
                << split_gflops / serial << ")";
    }
    out << "]}";
    std::cout << "\n";
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

// --------------------------------------------------------- step report --

// Full train-step latency (forward + backward + SGD) on one ResNet-20
// BasicBlock (16 channels, 16x16 activations, batch 8) under dense and CSQ
// weights — the end-to-end shape of the QAT hot path.
void write_step_report(const std::string& path, int steps) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing; skipping the "
              << "step report\n";
    return;
  }
  const std::int64_t batch = 8, channels = 16, side = 16;
  out << "{\n  " << machine_context_json()
      << ",\n  \"block\": \"resnet20-basic-" << channels << "ch\""
      << ",\n  \"batch\": " << batch << ",\n  \"image\": \"" << side << "x"
      << side << "\",\n  \"threads\": " << global_pool().num_threads()
      << ",\n  \"variants\": [\n";

  struct Variant {
    const char* name;
    std::function<WeightSourceFactory()> factory;
  };
  std::vector<CsqWeightSource*> registry;
  const Variant variants[] = {
      {"dense", [] { return dense_weight_factory(); }},
      {"csq", [&registry] { return csq_weight_factory(&registry); }},
  };

  bool first = true;
  for (const Variant& variant : variants) {
    Rng rng(21);
    BlockConfig config;
    config.in_channels = channels;
    config.out_channels = channels;
    BasicBlock block("block", config, variant.factory(), nullptr, rng);
    for (CsqWeightSource* source : registry) source->set_beta(8.0f);

    Tensor input = random_tensor({batch, channels, side, side}, rng);
    Tensor grad_output = random_tensor({batch, channels, side, side}, rng);
    std::vector<Parameter*> params;
    block.collect_parameters(params);
    SgdConfig sgd_config;
    sgd_config.learning_rate = 1e-4f;
    Sgd sgd(params, sgd_config);

    const auto run_step = [&] {
      for (Parameter* param : params) param->zero_grad();
      Tensor output = block.forward(input, /*training=*/true);
      Tensor grad_in = block.backward(grad_output);
      sgd.step();
      benchmark::DoNotOptimize(grad_in.data());
    };
    for (int i = 0; i < 2; ++i) run_step();  // warmup

    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    for (int i = 0; i < steps; ++i) run_step();
    const auto stop = clock::now();
    const double total_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const double step_ms = total_ms / static_cast<double>(steps);

    if (!first) out << ",\n";
    first = false;
    out << "    {\"weights\": \"" << variant.name
        << "\", \"mean_step_ms\": " << step_ms << ", \"steps\": " << steps
        << "}";
    std::cout << "train step (" << variant.name << "): " << step_ms
              << " ms\n";
    registry.clear();
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

// -------------------------------------------------------- infer report --

// Serving latency of a finalized ResNet-20 (width 16, 16x16 synthetic
// input): the float eval path (model.forward, eval mode, weights cached by
// the dirty flag) against the int8 compiled graph, per batch size. The
// acceptance bar from the runtime PR: int8 at or below float for batch >=
// 16 on the serving path.
void write_infer_report(const std::string& path, int iterations) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing; skipping the "
              << "infer report\n";
    return;
  }
  const std::int64_t channels = 3, side = 16;
  Rng rng(33);
  std::vector<CsqWeightSource*> registry;
  ModelConfig model_config;
  model_config.base_width = 16;
  // The paper's deployment regime: ~3-bit weight codes (an untrained
  // free-mask model finalizes to full-span 8-bit codes, which forces the
  // runtime's two-plane split on every layer — not the serving shape CSQ
  // targets).
  CsqWeightOptions weight_options;
  weight_options.fixed_precision = 3;
  Model model = make_resnet20(
      model_config, csq_weight_factory(&registry, weight_options), nullptr,
      rng);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions options;
  options.in_channels = channels;
  options.in_height = side;
  options.in_width = side;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  {
    Rng calib_rng(34);
    Tensor calib = random_tensor({8, channels, side, side}, calib_rng);
    graph.calibrate(calib);
  }

  // Per-replica activation/scratch memory at the largest benched batch:
  // the liveness-colored plan (the default) against the one-slot-per-edge
  // baseline policy, so serving-memory regressions show up in the bench
  // trajectory alongside latency.
  const std::int64_t max_batch = 32;
  graph.prepare(max_batch);
  std::int64_t baseline_workspace = 0;
  {
    runtime::LowerOptions baseline_options = graph.options();
    baseline_options.plan_buffers = false;
    runtime::CompiledGraph baseline =
        runtime::build_graph(graph.program(), baseline_options);
    baseline.restore_edge_scales(graph.edge_scales());
    baseline.prepare(max_batch);
    baseline_workspace = baseline.workspace_bytes();
  }
  std::cout << "workspace (batch " << max_batch
            << "): planned " << graph.workspace_bytes() << " B vs per-edge "
            << baseline_workspace << " B\n";

  out << "{\n  " << machine_context_json()
      << ",\n  \"model\": \"resnet20-w16-csq3b\",\n  \"image\": \"" << side << "x"
      << side << "\",\n  \"threads\": " << global_pool().num_threads()
      << ",\n  \"workspace_batch\": " << max_batch
      << ",\n  \"workspace_bytes\": " << graph.workspace_bytes()
      << ",\n  \"workspace_bytes_per_edge_baseline\": " << baseline_workspace
      << ",\n  \"batches\": [\n";
  bool first = true;
  for (const std::int64_t batch : {1, 4, 16, 32}) {
    Rng data_rng(35);
    Tensor input = random_tensor({batch, channels, side, side}, data_rng);
    graph.prepare(batch);

    using clock = std::chrono::steady_clock;
    const auto time_ms = [&](const std::function<void()>& fn) {
      fn();  // warmup
      const auto start = clock::now();
      for (int i = 0; i < iterations; ++i) fn();
      const auto stop = clock::now();
      return std::chrono::duration<double, std::milli>(stop - start).count() /
             static_cast<double>(iterations);
    };

    const double float_ms = time_ms([&] {
      Tensor logits = model.forward(input, /*training=*/false);
      benchmark::DoNotOptimize(logits.data());
    });
    const double int8_ms = time_ms([&] {
      Tensor logits = graph.forward(input);
      benchmark::DoNotOptimize(logits.data());
    });

    if (!first) out << ",\n";
    first = false;
    out << "    {\"batch\": " << batch << ", \"float_eval_ms\": " << float_ms
        << ", \"int8_graph_ms\": " << int8_ms
        << ", \"speedup\": " << float_ms / int8_ms << "}";
    std::cout << "infer batch " << batch << ": float " << float_ms
              << " ms, int8 " << int8_ms << " ms (x" << float_ms / int8_ms
              << ")\n";
  }
  out << "\n  ],\n";

  using clock = std::chrono::steady_clock;
  const auto time_ms = [&](int reps, const std::function<void()>& fn) {
    fn();  // warmup
    const auto start = clock::now();
    for (int i = 0; i < reps; ++i) fn();
    const auto stop = clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count() /
           static_cast<double>(reps);
  };

  // Per-layer kernel breakdown: each lowered GEMM timed standalone on its
  // serving shape (per-sample im2col columns), selected kernel against the
  // forced s8u8 reference — where the per-layer precision becomes latency.
  out << "  \"layer_kernels\": [\n";
  first = true;
  {
    const runtime::GraphProgram& program = graph.program();
    std::int64_t h = side, w = side;
    Rng gemm_rng(36);
    for (const runtime::ProgramInstr& instr : program.instrs) {
      if (instr.kind != runtime::ProgramInstr::Kind::kConv &&
          instr.kind != runtime::ProgramInstr::Kind::kLinear) {
        continue;
      }
      const QuantizedLayerExport& layer =
          program.layers[static_cast<std::size_t>(instr.layer)];
      const std::int64_t rows = layer.shape[0];
      std::int64_t cols = 1;
      for (std::size_t d = 1; d < layer.shape.size(); ++d) {
        cols *= layer.shape[d];
      }
      std::int64_t n = 1;
      if (instr.kind == runtime::ProgramInstr::Kind::kConv) {
        h = (h + 2 * instr.pad - instr.kernel) / instr.stride + 1;
        w = (w + 2 * instr.pad - instr.kernel) / instr.stride + 1;
        n = h * w;
      }
      const auto kind = static_cast<runtime::WeightKernel>(instr.kernel_kind);
      runtime::PackedIntWeights selected(layer.codes, layer.step(),
                                         layer.bits, rows, cols, kind);
      runtime::PackedIntWeights reference(layer.codes, layer.step(),
                                          layer.bits, rows, cols,
                                          runtime::WeightKernel::kS8U8);
      std::vector<std::uint8_t> b(static_cast<std::size_t>(cols * n));
      for (auto& v : b) {
        v = static_cast<std::uint8_t>(gemm_rng.uniform(0.0f, 255.0f));
      }
      std::vector<std::int32_t> c(static_cast<std::size_t>(rows * n));
      const int reps = std::max(iterations, 8);
      const double selected_ms = time_ms(reps, [&] {
        selected.gemm(Trans::no, n, b.data(), n, c.data(), n,
                      /*pooled=*/true);
        benchmark::DoNotOptimize(c.data());
      });
      const double reference_ms = time_ms(reps, [&] {
        reference.gemm(Trans::no, n, b.data(), n, c.data(), n,
                       /*pooled=*/true);
        benchmark::DoNotOptimize(c.data());
      });
      if (!first) out << ",\n";
      first = false;
      out << "    {\"layer\": \"" << layer.name << "\", \"bits\": "
          << layer.bits << ", \"kernel\": \"" << selected.kernel_name()
          << "\", \"gemm_m\": " << rows << ", \"gemm_n\": " << n
          << ", \"gemm_k\": " << cols << ", \"kernel_ms\": " << selected_ms
          << ", \"s8u8_ms\": " << reference_ms
          << ", \"speedup\": " << reference_ms / selected_ms << "}";
    }
  }
  out << "\n  ],\n";

  // Speedup-vs-precision curve: the SAME net lowered at fixed weight
  // precisions, whole-net auto-selected kernels against the
  // force_reference_kernel baseline (bit-identical logits, latency only).
  out << "  \"precision_curve\": [\n";
  first = true;
  const std::int64_t curve_batch = 16;
  for (const int bits : {1, 2, 3, 4, 8}) {
    Rng curve_rng(33);
    std::vector<CsqWeightSource*> curve_registry;
    CsqWeightOptions curve_weights;
    curve_weights.fixed_precision = bits;
    Model curve_model = make_resnet20(
        model_config, csq_weight_factory(&curve_registry, curve_weights),
        nullptr, curve_rng);
    for (CsqWeightSource* source : curve_registry) source->finalize();
    runtime::CompiledGraph auto_graph = runtime::lower(curve_model, options);
    {
      Rng calib_rng(34);
      Tensor calib = random_tensor({8, channels, side, side}, calib_rng);
      auto_graph.calibrate(calib);
    }
    runtime::LowerOptions forced_options = options;
    forced_options.force_reference_kernel = true;
    runtime::CompiledGraph forced_graph =
        runtime::build_graph(auto_graph.program(), forced_options);
    forced_graph.restore_edge_scales(auto_graph.edge_scales());
    auto_graph.prepare(curve_batch);
    forced_graph.prepare(curve_batch);

    Rng data_rng(35);
    Tensor input =
        random_tensor({curve_batch, channels, side, side}, data_rng);
    const double auto_ms = time_ms(iterations, [&] {
      Tensor logits = auto_graph.forward(input);
      benchmark::DoNotOptimize(logits.data());
    });
    const double forced_ms = time_ms(iterations, [&] {
      Tensor logits = forced_graph.forward(input);
      benchmark::DoNotOptimize(logits.data());
    });

    // Kernel histogram of the auto-selected lowering.
    std::map<std::string, int> kernel_counts;
    for (const auto& layer : auto_graph.layers()) {
      ++kernel_counts[layer.kernel];
    }
    if (!first) out << ",\n";
    first = false;
    out << "    {\"weight_bits\": " << bits << ", \"batch\": " << curve_batch
        << ", \"kernels\": {";
    bool first_kernel = true;
    for (const auto& entry : kernel_counts) {
      if (!first_kernel) out << ", ";
      first_kernel = false;
      out << "\"" << entry.first << "\": " << entry.second;
    }
    out << "}, \"auto_ms\": " << auto_ms << ", \"s8u8_forced_ms\": "
        << forced_ms << ", \"speedup\": " << forced_ms / auto_ms << "}";
    std::cout << "precision curve " << bits << "b: auto " << auto_ms
              << " ms vs s8u8 " << forced_ms << " ms (x"
              << forced_ms / auto_ms << ")\n";
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

// -------------------------------------------------------- serve report --

// The batching server under closed-loop load: `producers` threads each
// issue `requests_per_producer` single-sample requests as fast as their
// previous one completes. Reports throughput plus p50/p99 per-request
// latency for each (producers, max_batch) point — the flush-policy
// trade-off the serving layer exists to navigate.
void write_serve_report(const std::string& path, int requests_per_producer) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing; skipping the "
              << "serve report\n";
    return;
  }
  const std::int64_t side = 16;
  Rng rng(55);
  std::vector<CsqWeightSource*> registry;
  ModelConfig model_config;
  model_config.base_width = 16;
  CsqWeightOptions weight_options;
  weight_options.fixed_precision = 3;
  Model model = make_resnet20(
      model_config, csq_weight_factory(&registry, weight_options), nullptr,
      rng);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions lower_options;
  lower_options.in_height = side;
  lower_options.in_width = side;
  runtime::CompiledGraph graph = runtime::lower(model, lower_options);
  {
    Rng calib_rng(56);
    Tensor calib = random_tensor({8, 3, side, side}, calib_rng);
    graph.calibrate(calib);
  }

  constexpr int kSamples = 4;
  Rng data_rng(57);
  Tensor samples = random_tensor({kSamples, 3, side, side}, data_rng);
  const std::int64_t sample_numel = 3 * side * side;

  out << "{\n  " << machine_context_json()
      << ",\n  \"model\": \"resnet20-w16-csq3b\",\n  \"image\": \"" << side
      << "x" << side << "\",\n  \"threads\": " << global_pool().num_threads()
      << ",\n  \"replicas\": 2,\n  \"configs\": [\n";
  bool first = true;
  for (const int producers : {1, 4}) {
    for (const std::int64_t max_batch : {std::int64_t{1}, std::int64_t{8},
                                         std::int64_t{32}}) {
      serve::ServerOptions server_options;
      server_options.max_batch = max_batch;
      server_options.max_latency_us = 200;
      serve::BatchingServer server(server_options);
      std::vector<runtime::CompiledGraph> replicas;
      replicas.push_back(runtime::replicate(graph));
      replicas.push_back(runtime::replicate(graph));
      server.add_model("m", std::move(replicas));
      server.start();
      const serve::ModelHandle handle = server.handle("m");

      const int total = producers * requests_per_producer;
      std::vector<double> latencies_us(static_cast<std::size_t>(total), 0.0);
      using clock = std::chrono::steady_clock;
      const auto start = clock::now();
      std::vector<std::thread> threads;
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          std::vector<float> logits(10);
          for (int i = 0; i < requests_per_producer; ++i) {
            const int s = (p + i) % kSamples;
            const auto issued = clock::now();
            server.infer(handle, samples.data() + s * sample_numel,
                         logits.data());
            latencies_us[static_cast<std::size_t>(
                p * requests_per_producer + i)] =
                std::chrono::duration<double, std::micro>(clock::now() -
                                                          issued)
                    .count();
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      const double seconds =
          std::chrono::duration<double>(clock::now() - start).count();
      server.stop();

      std::sort(latencies_us.begin(), latencies_us.end());
      const auto percentile = [&](double q) {
        const auto index = static_cast<std::size_t>(
            q * static_cast<double>(latencies_us.size() - 1));
        return latencies_us[index];
      };
      const double throughput = static_cast<double>(total) / seconds;
      const auto stats = server.stats("m");
      const double mean_batch =
          static_cast<double>(stats.requests) /
          static_cast<double>(std::max<std::uint64_t>(stats.batches, 1));

      if (!first) out << ",\n";
      first = false;
      out << "    {\"producers\": " << producers
          << ", \"max_batch\": " << max_batch
          << ", \"requests\": " << total
          << ", \"throughput_rps\": " << throughput
          << ", \"p50_us\": " << percentile(0.50)
          << ", \"p99_us\": " << percentile(0.99)
          << ", \"mean_batch\": " << mean_batch
          << ", \"full_flushes\": " << stats.full_flushes
          << ", \"timer_flushes\": " << stats.timer_flushes << "}";
      std::cout << "serve p" << producers << " mb" << max_batch << ": "
                << throughput << " req/s, p50 " << percentile(0.50)
                << " us, p99 " << percentile(0.99) << " us, mean batch "
                << mean_batch << "\n";
    }
  }
  out << "\n  ],\n";

  // Batch-1 intra-op row: a single replica serving a single closed-loop
  // producer at max_batch=1 — the latency-floor configuration where batching
  // cannot help and the only parallelism available is INSIDE the forward.
  // borrow_idle_cores=off runs each forward serially; =on grants the sole
  // flusher the pool, fanning out the wide-N column-split GEMMs. Outputs
  // are verified bit-identical against single-sample oracles either way.
  {
    Tensor oracle[kSamples];
    for (int s = 0; s < kSamples; ++s) {
      Tensor one({1, 3, side, side});
      std::memcpy(one.data(), samples.data() + s * sample_numel,
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
      oracle[s] = graph.forward(one);
    }
    const int batch1_requests = std::max(requests_per_producer * 4, 24);

    out << "  \"batch1_intra_op\": {\"replicas\": 1, \"max_batch\": 1"
        << ", \"requests\": " << batch1_requests << ", \"rows\": [\n";
    bool first_b1 = true;
    for (const bool borrow : {false, true}) {
      serve::ServerOptions server_options;
      server_options.max_batch = 1;
      server_options.max_latency_us = 200;
      server_options.borrow_idle_cores = borrow;
      serve::BatchingServer server(server_options);
      std::vector<runtime::CompiledGraph> replicas;
      replicas.push_back(runtime::replicate(graph));
      replicas.front().set_pooled(false);  // intra-op only via the grant
      server.add_model("m", std::move(replicas));
      server.start();
      const serve::ModelHandle handle = server.handle("m");

      bool bit_identical = true;
      std::vector<double> latencies_us(
          static_cast<std::size_t>(batch1_requests), 0.0);
      std::vector<float> logits(10);
      using clock = std::chrono::steady_clock;
      for (int i = 0; i < batch1_requests; ++i) {
        const int s = i % kSamples;
        const auto issued = clock::now();
        server.infer(handle, samples.data() + s * sample_numel,
                     logits.data());
        latencies_us[static_cast<std::size_t>(i)] =
            std::chrono::duration<double, std::micro>(clock::now() - issued)
                .count();
        if (std::memcmp(logits.data(), oracle[s].data(),
                        logits.size() * sizeof(float)) != 0) {
          bit_identical = false;
        }
      }
      const auto stats = server.stats("m");
      server.stop();

      std::sort(latencies_us.begin(), latencies_us.end());
      const auto percentile = [&](double q) {
        const auto index = static_cast<std::size_t>(
            q * static_cast<double>(latencies_us.size() - 1));
        return latencies_us[index];
      };
      if (!first_b1) out << ",\n";
      first_b1 = false;
      out << "    {\"borrow_idle_cores\": " << (borrow ? "true" : "false")
          << ", \"p50_us\": " << percentile(0.50)
          << ", \"p99_us\": " << percentile(0.99)
          << ", \"borrowed_flushes\": " << stats.borrowed_flushes
          << ", \"bit_identical\": " << (bit_identical ? "true" : "false")
          << "}";
      std::cout << "serve batch1 borrow=" << (borrow ? "on" : "off")
                << ": p50 " << percentile(0.50) << " us, p99 "
                << percentile(0.99) << " us, borrowed "
                << stats.borrowed_flushes << ", bit_identical="
                << bit_identical << "\n";
    }
    out << "\n  ]},\n";
  }

  // Overload row: 2x as many closed-loop producers as the request ring has
  // slots (fewer can never overflow it), a per-request deadline, admission
  // control on (shed_overload: full ring fast-rejects with kOverloaded)
  // versus off (producers block on backpressure until the deadline
  // expires). Goodput counts served-within-deadline requests only; p99 is
  // over those.
  const int overload_producers = 16;
  // Enough requests per producer that the tight ring actually saturates —
  // even in --smoke mode, where the closed-loop configs above run short.
  const int overload_requests = std::max(requests_per_producer, 40);
  const std::int64_t overload_deadline_us = 50'000;
  struct OverloadRow {
    double seconds = 0.0;
    std::uint64_t ok = 0;
    std::vector<double> ok_latencies_us;
    serve::BatchingServer::ShardStats stats;
  };
  const auto run_overload = [&](bool shed) {
    serve::ServerOptions server_options;
    server_options.max_batch = 8;
    server_options.queue_capacity = 8;
    server_options.max_latency_us = 200;
    server_options.shed_overload = shed;
    serve::BatchingServer server(server_options);
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(runtime::replicate(graph));
    replicas.push_back(runtime::replicate(graph));
    server.add_model("m", std::move(replicas));
    server.start();
    const serve::ModelHandle handle = server.handle("m");

    OverloadRow row;
    std::mutex merge_mutex;
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    std::vector<std::thread> threads;
    for (int p = 0; p < overload_producers; ++p) {
      threads.emplace_back([&, p] {
        std::vector<float> logits(10);
        std::vector<double> mine;
        std::uint64_t served = 0;
        for (int i = 0; i < overload_requests; ++i) {
          const int s = (p + i) % kSamples;
          const auto issued = clock::now();
          const serve::ServeStatus status = server.try_infer(
              handle, samples.data() + s * sample_numel, logits.data(),
              overload_deadline_us);
          if (status != serve::ServeStatus::kOk) continue;
          ++served;
          mine.push_back(std::chrono::duration<double, std::micro>(
                             clock::now() - issued)
                             .count());
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        row.ok += served;
        row.ok_latencies_us.insert(row.ok_latencies_us.end(), mine.begin(),
                                   mine.end());
      });
    }
    for (std::thread& thread : threads) thread.join();
    row.seconds = std::chrono::duration<double>(clock::now() - start).count();
    row.stats = server.stats("m");
    server.stop();
    std::sort(row.ok_latencies_us.begin(), row.ok_latencies_us.end());
    return row;
  };

  out << "  \"overload\": {\"producers\": " << overload_producers
      << ", \"queue_capacity\": 8, \"deadline_us\": " << overload_deadline_us
      << ", \"rows\": [\n";
  bool first_row = true;
  for (const bool shed : {false, true}) {
    const OverloadRow row = run_overload(shed);
    const auto ok_percentile = [&](double q) {
      if (row.ok_latencies_us.empty()) return 0.0;
      const auto index = static_cast<std::size_t>(
          q * static_cast<double>(row.ok_latencies_us.size() - 1));
      return row.ok_latencies_us[index];
    };
    const double goodput = static_cast<double>(row.ok) / row.seconds;
    if (!first_row) out << ",\n";
    first_row = false;
    out << "    {\"shed_overload\": " << (shed ? "true" : "false")
        << ", \"goodput_rps\": " << goodput
        << ", \"p99_ok_us\": " << ok_percentile(0.99)
        << ", \"ok\": " << row.ok << ", \"shed\": " << row.stats.shed
        << ", \"timed_out\": " << row.stats.timed_out << "}";
    std::cout << "serve overload shed=" << (shed ? "on" : "off") << ": "
              << goodput << " good req/s, p99(ok) " << ok_percentile(0.99)
              << " us, shed " << row.stats.shed << ", timed out "
              << row.stats.timed_out << "\n";
  }
  out << "\n  ]},\n";

  // Transport row: the same closed loop, but over the loopback wire
  // (serve/transport.h) — each client thread owns a TransportClient
  // connection, so the row prices frame encode + TCP round trip + dispatch
  // on top of the in-process numbers above.
  {
    serve::ServerOptions server_options;
    server_options.max_batch = 8;
    server_options.max_latency_us = 200;
    serve::BatchingServer server(server_options);
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(runtime::replicate(graph));
    replicas.push_back(runtime::replicate(graph));
    server.add_model("m", std::move(replicas));
    server.start();
    serve::ServeTransport transport(server);
    transport.start();

    const int clients = 4;
    const int total = clients * requests_per_producer;
    std::vector<double> latencies_us(static_cast<std::size_t>(total), 0.0);
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::TransportClient client(transport.port());
        std::vector<float> logits;
        for (int i = 0; i < requests_per_producer; ++i) {
          const int s = (c + i) % kSamples;
          const auto issued = clock::now();
          client.infer("m", samples.data() + s * sample_numel,
                       static_cast<std::size_t>(sample_numel), logits);
          latencies_us[static_cast<std::size_t>(
              c * requests_per_producer + i)] =
              std::chrono::duration<double, std::micro>(clock::now() -
                                                        issued)
                  .count();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds =
        std::chrono::duration<double>(clock::now() - start).count();
    const auto stats = transport.stats();
    transport.stop();
    server.stop();

    std::sort(latencies_us.begin(), latencies_us.end());
    const auto percentile = [&](double q) {
      const auto index = static_cast<std::size_t>(
          q * static_cast<double>(latencies_us.size() - 1));
      return latencies_us[index];
    };
    const double throughput = static_cast<double>(total) / seconds;
    out << "  \"transport\": {\"clients\": " << clients
        << ", \"requests\": " << total
        << ", \"throughput_rps\": " << throughput
        << ", \"p50_us\": " << percentile(0.50)
        << ", \"p99_us\": " << percentile(0.99)
        << ", \"responses\": " << stats.responses
        << ", \"transport_errors\": " << stats.transport_errors << "},\n";
    std::cout << "serve transport c" << clients << ": " << throughput
              << " req/s over loopback, p50 " << percentile(0.50)
              << " us, p99 " << percentile(0.99) << " us\n";
  }

  // Autoscale row: replicas follow offered load at runtime — a shard
  // starts at 1 replica, a queue-driven policy (serve/autoscaler.h) scales
  // it up under a producer flood and back down once the flood stops.
  {
    serve::ServerOptions server_options;
    server_options.max_batch = 1;  // one forward per request: easy backlog
    server_options.max_replicas = 3;
    serve::BatchingServer server(server_options);
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(runtime::replicate(graph));
    server.add_model("m", std::move(replicas));
    server.start();

    serve::AutoscalerOptions policy;
    policy.interval_us = 2'000;
    policy.max_replicas = 3;
    policy.up_queue_depth = 2;
    policy.up_ticks = 2;
    policy.down_idle_ticks = 5;
    policy.cooldown_ticks = 1;
    serve::ReplicaAutoscaler autoscaler(server, "m", policy);
    autoscaler.start();

    const auto poll_replicas = [&](int want, bool at_least) {
      for (int i = 0; i < 600; ++i) {
        const int active = server.stats("m").replicas_active;
        if (at_least ? active >= want : active <= want) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return false;
    };

    const serve::ModelHandle handle = server.handle("m");
    std::atomic<bool> load{true};
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    std::vector<std::thread> producers;
    for (int p = 0; p < 6; ++p) {
      producers.emplace_back([&] {
        std::vector<float> logits(10);
        while (load.load()) {
          server.try_infer(handle, samples.data(), logits.data());
        }
      });
    }
    const bool scaled_up = poll_replicas(2, /*at_least=*/true);
    const double up_ms =
        std::chrono::duration<double, std::milli>(clock::now() - start)
            .count();
    const int peak = server.stats("m").replicas_active;
    load.store(false);
    for (std::thread& producer : producers) producer.join();
    const bool scaled_down = poll_replicas(1, /*at_least=*/false);
    const auto stats = server.stats("m");
    autoscaler.stop();
    server.stop();

    out << "  \"autoscale\": {\"min_replicas\": 1, \"max_replicas\": 3"
        << ", \"scaled_up\": " << (scaled_up ? "true" : "false")
        << ", \"time_to_scale_up_ms\": " << up_ms
        << ", \"peak_replicas\": " << peak
        << ", \"scaled_back_down\": " << (scaled_down ? "true" : "false")
        << ", \"scale_ups\": " << stats.scale_ups
        << ", \"scale_downs\": " << stats.scale_downs << "},\n";
    std::cout << "serve autoscale: 1 -> " << peak << " replicas in " << up_ms
              << " ms under load, back to " << stats.replicas_active
              << " when idle (" << stats.scale_ups << " ups, "
              << stats.scale_downs << " downs)\n";
  }

  // Mmap row: unique (private-dirty) memory added by loading one more
  // replica from the SAME artifact — copy loading re-packs weights into
  // anonymous heap pages, mmap loading borrows the file's page cache
  // (read-only file pages are never dirty), which is what lets N serving
  // processes share one copy of the weights.
  {
    const auto private_dirty_kb = [] {
      std::ifstream in("/proc/self/smaps_rollup");
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("Private_Dirty:", 0) == 0) {
          return std::strtol(line.c_str() + 14, nullptr, 10);
        }
      }
      return -1L;
    };
    const std::string artifact_path = "BENCH_serve_mmap.csqm";
    if (runtime::save_graph(artifact_path, graph)) {
      const long before_mmap = private_dirty_kb();
      runtime::CompiledGraph mapped =
          runtime::load_graph_mmap(artifact_path, /*pooled=*/false);
      const long after_mmap = private_dirty_kb();
      runtime::CompiledGraph copied =
          runtime::load_graph(artifact_path, /*pooled=*/false);
      const long after_copy = private_dirty_kb();
      const long mmap_kb = after_mmap - before_mmap;
      const long copy_kb = after_copy - after_mmap;
      // Both serve the same bits (spot-check, and keeps the loads live
      // across the measurements above).
      Tensor probe = random_tensor({1, 3, side, side}, data_rng);
      const Tensor a = mapped.forward(probe);
      const Tensor b = copied.forward(probe);
      bool identical = true;
      for (std::int64_t i = 0; i < a.numel(); ++i) {
        identical = identical && a[i] == b[i];
      }
      out << "  \"mmap\": {\"copy_load_private_dirty_kb\": " << copy_kb
          << ", \"mmap_load_private_dirty_kb\": " << mmap_kb
          << ", \"unique_rss_ratio\": "
          << (copy_kb > 0 ? static_cast<double>(mmap_kb) /
                                static_cast<double>(copy_kb)
                          : 0.0)
          << ", \"bit_identical\": " << (identical ? "true" : "false")
          << "}\n}\n";
      std::cout << "serve mmap: +" << mmap_kb
                << " KiB private-dirty per mmap replica vs +" << copy_kb
                << " KiB per copy replica ("
                << (identical ? "bit-identical" : "MISMATCH") << ")\n";
      std::remove(artifact_path.c_str());
    } else {
      out << "  \"mmap\": {\"error\": \"save_graph failed\"}\n}\n";
    }
  }
  std::cout << "wrote " << path << "\n";
}

// ------------------------------------------------- train-scaling report --

// Data-parallel training throughput: mean optimizer-step latency of a CSQ
// ResNet (depth 8, width 16) over a fixed 64-row batch at 1/2/4/8 workers.
// The shard grid is fixed (8 shards) regardless of worker count, so every
// row is running the SAME arithmetic — the report also re-checks the
// determinism contract by comparing final parameter bytes against the
// 1-worker run. Speedups are bounded by the machine context above: on a
// single-hardware-thread container every row lands near 1x.
void write_train_scaling_report(const std::string& path, int steps) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for writing; skipping the "
              << "train-scaling report\n";
    return;
  }
  const std::int64_t batch_rows = 64, side = 16;
  Rng data_rng(71);
  Batch batch;
  batch.images = random_tensor({batch_rows, 3, side, side}, data_rng);
  batch.labels.resize(static_cast<std::size_t>(batch_rows));
  for (auto& label : batch.labels) {
    label = static_cast<int>(data_rng.uniform(0.0f, 9.999f));
  }

  const auto build_model = [] {
    Rng rng(72);
    ModelConfig config;
    config.base_width = 16;
    std::vector<CsqWeightSource*> registry;
    Model model = make_resnet_cifar(8, config, csq_weight_factory(&registry),
                                    nullptr, rng);
    for (CsqWeightSource* source : registry) source->set_beta(8.0f);
    return model;
  };

  out << "{\n  " << machine_context_json()
      << ",\n  \"model\": \"resnet8-w16-csq\",\n  \"batch\": " << batch_rows
      << ",\n  \"image\": \"" << side << "x" << side
      << "\",\n  \"shards\": " << kDefaultTrainShards
      << ",\n  \"steps\": " << steps << ",\n  \"workers\": [\n";

  std::vector<float> reference_values;
  double reference_ms = 0.0;
  bool first = true;
  for (const int workers : {1, 2, 4, 8}) {
    Model model = build_model();
    DataParallelConfig dp_config;
    dp_config.workers = workers;
    DataParallelTrainer trainer(model, build_model, dp_config);
    SgdConfig sgd_config;
    sgd_config.learning_rate = 0.05f;
    sgd_config.momentum = 0.9f;
    Sgd optimizer(model.arena(), sgd_config);

    for (int i = 0; i < 2; ++i) trainer.train_step(batch, optimizer);

    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    for (int i = 0; i < steps; ++i) trainer.train_step(batch, optimizer);
    const auto stop = clock::now();
    const double step_ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(steps);

    const ParameterArena& arena = model.arena();
    bool bit_identical = true;
    if (workers == 1) {
      reference_values.assign(arena.values(), arena.values() + arena.size());
      reference_ms = step_ms;
    } else {
      bit_identical =
          std::memcmp(reference_values.data(), arena.values(),
                      reference_values.size() * sizeof(float)) == 0;
    }

    if (!first) out << ",\n";
    first = false;
    out << "    {\"workers\": " << workers
        << ", \"mean_step_ms\": " << step_ms
        << ", \"speedup\": " << reference_ms / step_ms
        << ", \"bit_identical_to_serial\": "
        << (bit_identical ? "true" : "false") << "}";
    std::cout << "train scaling x" << workers << ": " << step_ms
              << " ms/step (x" << reference_ms / step_ms
              << "), bit_identical=" << bit_identical << "\n";
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

void register_materialize_benchmarks() {
  for (const MaterializeFamily& family : materialize_families()) {
    for (const bool pooled : {false, true}) {
      const std::string name = std::string("BM_WeightMaterialize/") +
                               family.name + (pooled ? "/pooled" : "/serial");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [make = family.make, pooled](benchmark::State& state) {
            Rng rng(42);
            WeightSourcePtr source = make(rng);
            std::vector<Parameter*> params;
            source->collect_parameters(params);
            const KernelExec prior = default_kernel_exec();
            set_default_kernel_exec(pooled ? KernelExec::pooled
                                           : KernelExec::serial);
            for (auto _ : state) {
              // Defeat the eval dirty-flag: measure the rebuild, not the
              // cache hit.
              params.front()->mark_updated();
              const Tensor& w = source->weight(/*training=*/false);
              benchmark::DoNotOptimize(w.data());
            }
            set_default_kernel_exec(prior);
            state.SetItemsProcessed(state.iterations() *
                                    source->weight_count());
          });
    }
  }
}

}  // namespace
}  // namespace csq

int main(int argc, char** argv) {
  bool list_only = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--benchmark_list_tests", 0) == 0) list_only = true;
    if (arg == "--smoke") {
      smoke = true;
      // Hide the flag from the benchmark-library parser.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  if (smoke) {
    // 1-iteration CI mode: exercise every report writer (bitrot guard)
    // without the statistical runtime, then exit.
    csq::write_gemm_report("BENCH_gemm.json", /*min_ms=*/1.0);
    csq::write_step_report("BENCH_step.json", /*steps=*/1);
    csq::write_materialize_report("BENCH_materialize.json", /*min_ms=*/1.0);
    csq::write_infer_report("BENCH_infer.json", /*iterations=*/1);
    csq::write_serve_report("BENCH_serve.json", /*requests_per_producer=*/4);
    csq::write_train_scaling_report("BENCH_train_scaling.json", /*steps=*/1);
    return 0;
  }
  csq::register_materialize_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The cross-PR tracking reports run after flag parsing so pure listing
  // invocations stay instant; CSQ_SKIP_BENCH_REPORTS=1 (or the older
  // CSQ_SKIP_MATERIALIZE_REPORT=1) opts out.
  const bool skip_reports =
      std::getenv("CSQ_SKIP_BENCH_REPORTS") != nullptr ||
      std::getenv("CSQ_SKIP_MATERIALIZE_REPORT") != nullptr;
  if (!list_only && !skip_reports) {
    csq::write_gemm_report("BENCH_gemm.json", /*min_ms=*/150.0);
    csq::write_step_report("BENCH_step.json", /*steps=*/40);
    csq::write_materialize_report("BENCH_materialize.json");
    csq::write_infer_report("BENCH_infer.json", /*iterations=*/40);
    csq::write_serve_report("BENCH_serve.json",
                            /*requests_per_producer=*/150);
    csq::write_train_scaling_report("BENCH_train_scaling.json", /*steps=*/20);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
