// Hot-path regression tests for the blocked-GEMM / workspace rework:
//
//  * steady-state Conv2d / Linear forward+backward (+ SGD step) performs
//    ZERO heap allocations — asserted with a real global operator-new
//    counter, backed up by the tensor-pool and workspace growth counters;
//  * the eval-mode dirty flag on the weight sources skips re-materializing
//    unchanged weights and invalidates on set_beta / freeze_mask /
//    optimizer steps;
//  * Workspace slot semantics (grow-once, reference stability, bounds).
#include <gtest/gtest.h>

#include "alloc_probe.h"
#include "core/csq_weight.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "nn/weight_source.h"
#include "opt/sgd.h"
#include "quant/bsq_weight.h"
#include "quant/dorefa_weight.h"
#include "quant/lqnets_weight.h"
#include "quant/ste_uniform_weight.h"
#include "runtime/compiled_graph.h"
#include "tensor/workspace.h"
#include "test_helpers.h"
#include "util/check.h"

// The global operator-new counter lives in alloc_probe.cpp (shared with the
// serving-layer steady-state assertions in serve_test.cpp). The windows
// below assert a delta of ZERO, so any heap traffic on the hot path — a
// stray std::function closure, a vector growth, a fresh Tensor buffer —
// fails the suite.

namespace csq {
namespace {

using testing::alloc_count;
using testing::random_tensor;

// Runs `steps` training steps of layer+optimizer and returns the number of
// heap allocations the steady-state window performed.
template <typename Layer>
std::uint64_t steady_state_allocations(Layer& layer, Sgd& sgd,
                                       const Tensor& input,
                                       const Tensor& grad_output,
                                       std::vector<Parameter*>& params,
                                       int warmup = 3, int steps = 5) {
  for (int i = 0; i < warmup; ++i) {
    for (Parameter* p : params) p->zero_grad();
    Tensor out = layer.forward(input, /*training=*/true);
    Tensor grad_in = layer.backward(grad_output);
    sgd.step();
  }
  const std::uint64_t pool_allocs_before = tensor_pool_stats().data_allocations;
  const std::uint64_t ws_growth_before = layer.workspace().growth_count();
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < steps; ++i) {
    for (Parameter* p : params) p->zero_grad();
    Tensor out = layer.forward(input, /*training=*/true);
    Tensor grad_in = layer.backward(grad_output);
    sgd.step();
  }
  const std::uint64_t delta = alloc_count() - before;
  EXPECT_EQ(tensor_pool_stats().data_allocations, pool_allocs_before)
      << "steady state hit the heap for tensor storage";
  EXPECT_EQ(layer.workspace().growth_count(), ws_growth_before)
      << "steady state grew the layer workspace";
  return delta;
}

TEST(AllocationRegression, Conv2dCsqSteadyStateIsAllocationFree) {
  Rng rng(301);
  std::vector<CsqWeightSource*> registry;
  Conv2dConfig config;
  config.in_channels = 8;
  config.out_channels = 8;
  Conv2d conv("conv", config, csq_weight_factory(&registry), rng);
  registry.front()->set_beta(4.0f);

  Tensor input = random_tensor({4, 8, 8, 8}, rng);
  Tensor grad_output = random_tensor({4, 8, 8, 8}, rng);
  std::vector<Parameter*> params;
  conv.collect_parameters(params);
  Sgd sgd(params, {});

  EXPECT_EQ(steady_state_allocations(conv, sgd, input, grad_output, params),
            0u);
}

TEST(AllocationRegression, Conv2dDenseWithBiasSteadyStateIsAllocationFree) {
  Rng rng(302);
  Conv2dConfig config;
  config.in_channels = 6;
  config.out_channels = 10;
  config.bias = true;
  Conv2d conv("conv", config, dense_weight_factory(), rng);

  Tensor input = random_tensor({5, 6, 9, 9}, rng);
  Tensor grad_output = random_tensor({5, 10, 9, 9}, rng);
  std::vector<Parameter*> params;
  conv.collect_parameters(params);
  Sgd sgd(params, {});

  EXPECT_EQ(steady_state_allocations(conv, sgd, input, grad_output, params),
            0u);
}

// Stride 2 on an odd input: dX takes the Wᵀ·dOut + col2im path, whose
// grad_col stripes must be as grow-once as the stride-1 buffers.
TEST(AllocationRegression, Conv2dStride2SteadyStateIsAllocationFree) {
  Rng rng(305);
  Conv2dConfig config;
  config.in_channels = 8;
  config.out_channels = 16;
  config.stride = 2;
  Conv2d conv("conv", config, dense_weight_factory(), rng);

  Tensor input = random_tensor({4, 8, 9, 9}, rng);
  Tensor grad_output = random_tensor({4, 16, 5, 5}, rng);
  std::vector<Parameter*> params;
  conv.collect_parameters(params);
  Sgd sgd(params, {});

  EXPECT_EQ(steady_state_allocations(conv, sgd, input, grad_output, params),
            0u);
}

TEST(AllocationRegression, LinearSteadyStateIsAllocationFree) {
  Rng rng(303);
  Linear linear("fc", 64, 32, dense_weight_factory(), rng, /*bias=*/true);

  Tensor input = random_tensor({16, 64}, rng);
  Tensor grad_output = random_tensor({16, 32}, rng);
  std::vector<Parameter*> params;
  linear.collect_parameters(params);
  Sgd sgd(params, {});

  EXPECT_EQ(steady_state_allocations(linear, sgd, input, grad_output, params),
            0u);
}

TEST(AllocationRegression, EvalForwardIsAllocationFreeAndSkipsMaterialize) {
  Rng rng(304);
  std::vector<CsqWeightSource*> registry;
  Conv2dConfig config;
  config.in_channels = 8;
  config.out_channels = 8;
  Conv2d conv("conv", config, csq_weight_factory(&registry), rng);
  Tensor input = random_tensor({2, 8, 8, 8}, rng);

  for (int i = 0; i < 3; ++i) {
    Tensor out = conv.forward(input, /*training=*/false);
  }
  const std::uint64_t materialized = registry.front()->materialize_count();
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 5; ++i) {
    Tensor out = conv.forward(input, /*training=*/false);
  }
  EXPECT_EQ(alloc_count() - before, 0u);
  // Weights unchanged between the eval forwards: the dirty flag short
  // circuits every re-materialization.
  EXPECT_EQ(registry.front()->materialize_count(), materialized);
}

TEST(AllocationRegression, CompiledGraphBatchedForwardIsAllocationFree) {
  // The serving path: a finalized ResNet-20 lowered into the int8 compiled
  // graph. After warmup, a steady-state batched forward must not touch the
  // heap — activation edges, padded-image scratch and GEMM packing scratch
  // all come from grow-once storage.
  Rng rng(320);
  std::vector<CsqWeightSource*> registry;
  ModelConfig model_config;
  model_config.base_width = 4;
  Model model = make_resnet20(model_config, csq_weight_factory(&registry),
                              nullptr, rng);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions options;
  options.in_height = 12;
  options.in_width = 12;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  Tensor images = random_tensor({4, 3, 12, 12}, rng);
  graph.calibrate(images);
  graph.prepare(4);
  for (int i = 0; i < 3; ++i) {
    Tensor logits = graph.forward(images);
  }

  const std::uint64_t pool_allocs_before = tensor_pool_stats().data_allocations;
  const std::uint64_t growth_before = graph.buffer_growth_count();
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 5; ++i) {
    Tensor logits = graph.forward(images);
  }
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state int8 forward hit the heap";
  EXPECT_EQ(tensor_pool_stats().data_allocations, pool_allocs_before);
  EXPECT_EQ(graph.buffer_growth_count(), growth_before)
      << "steady-state int8 forward grew the graph workspace";
}

// -------------------------------------------------------- dirty flag ----

TEST(EvalDirtyFlag, CsqInvalidatesOnBetaMaskAndOptimizerStep) {
  Rng rng(310);
  CsqWeightOptions options;
  CsqWeightSource source("w", {6, 6}, 6, options, rng);
  source.set_beta(2.0f);

  source.weight(/*training=*/false);
  const std::uint64_t base = source.materialize_count();
  source.weight(false);
  source.weight(false);
  EXPECT_EQ(source.materialize_count(), base) << "unchanged eval re-ran";

  // set_beta with a new temperature invalidates...
  source.set_beta(3.0f);
  source.weight(false);
  EXPECT_EQ(source.materialize_count(), base + 1);
  // ...but a redundant set_beta does not.
  source.set_beta(3.0f);
  source.weight(false);
  EXPECT_EQ(source.materialize_count(), base + 1);

  // A training forward after an eval materialization rebuilds (the eval
  // pass cached no gates), revalidating the eval cache...
  source.weight(/*training=*/true);
  EXPECT_EQ(source.materialize_count(), base + 2);
  source.weight(false);
  EXPECT_EQ(source.materialize_count(), base + 2);
  // ...and a second training call (the backward pass re-fetching weights)
  // reuses the gate-cached materialization instead of rebuilding.
  source.weight(/*training=*/true);
  EXPECT_EQ(source.materialize_count(), base + 2);

  // An optimizer step bumps the parameter versions.
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  Sgd sgd(params, {});
  source.backward(Tensor::full({6, 6}, 0.1f));
  sgd.step();
  source.weight(false);
  EXPECT_EQ(source.materialize_count(), base + 3);

  // freeze_mask changes the materialization function.
  source.freeze_mask();
  source.weight(false);
  EXPECT_EQ(source.materialize_count(), base + 4);
  source.weight(false);
  EXPECT_EQ(source.materialize_count(), base + 4);
}

TEST(EvalDirtyFlag, CsqSkippedEvalMatchesFreshMaterialization) {
  Rng rng(311);
  CsqWeightOptions options;
  CsqWeightSource source("w", {5, 7}, 7, options, rng);
  source.set_beta(5.0f);
  const Tensor cached = source.weight(false);  // deep copy of the first run
  source.weight(false);                        // served from the cache
  const Tensor& again = source.weight(false);
  for (std::int64_t i = 0; i < cached.numel(); ++i) {
    ASSERT_EQ(cached[i], again[i]);
  }
  // Perturbing a logit under the mutation contract produces fresh weights.
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  params[1]->value[0] += 1.5f;
  params[1]->mark_updated();
  const Tensor& fresh = source.weight(false);
  float diff = 0.0f;
  for (std::int64_t i = 0; i < cached.numel(); ++i) {
    diff = std::max(diff, std::fabs(fresh[i] - cached[i]));
  }
  EXPECT_GT(diff, 0.0f) << "stale weights served after a marked update";
}

TEST(EvalDirtyFlag, AllFamiliesSkipUnchangedEvalForwards) {
  Rng rng(312);
  std::vector<WeightSourcePtr> sources;
  sources.push_back(
      std::make_unique<BsqWeightSource>("bsq", std::vector<std::int64_t>{4, 4},
                                        4, rng));
  sources.push_back(std::make_unique<SteUniformWeightSource>(
      "ste", std::vector<std::int64_t>{4, 4}, 4, /*bits=*/4, rng));
  sources.push_back(std::make_unique<DorefaWeightSource>(
      "dorefa", std::vector<std::int64_t>{4, 4}, 4, /*bits=*/2, rng));
  sources.push_back(std::make_unique<LqNetsWeightSource>(
      "lqnets", std::vector<std::int64_t>{4, 4}, 4, /*bits=*/2, rng));
  for (WeightSourcePtr& source : sources) {
    source->weight(false);
    const std::uint64_t base = source->materialize_count();
    source->weight(false);
    source->weight(false);
    EXPECT_EQ(source->materialize_count(), base)
        << source->kind() << ": unchanged eval re-ran";

    std::vector<Parameter*> params;
    source->collect_parameters(params);
    params.back()->value[0] += 0.25f;
    params.back()->mark_updated();
    source->weight(false);
    EXPECT_EQ(source->materialize_count(), base + 1)
        << source->kind() << ": marked update did not invalidate";
  }
}

TEST(EvalDirtyFlag, BackwardWeightFetchReusesForwardMaterialization) {
  // The conv/linear backward passes call weight(true) to rebuild the GEMM
  // operands; with unchanged parameters that must be a cache hit, not a
  // second full materialization per step.
  Rng rng(314);
  CsqWeightOptions options;
  CsqWeightSource source("w", {6, 6}, 6, options, rng);
  source.set_beta(3.0f);
  source.weight(/*training=*/true);  // forward
  const std::uint64_t count = source.materialize_count();
  source.weight(/*training=*/true);  // backward's operand fetch
  EXPECT_EQ(source.materialize_count(), count);
  source.backward(Tensor::full({6, 6}, 0.1f));
  // After backward consumed the gate cache, a new training forward must
  // rebuild even though no parameter changed yet.
  source.weight(/*training=*/true);
  EXPECT_EQ(source.materialize_count(), count + 1);
}

TEST(EvalDirtyFlag, LqNetsTrainingBasisUpdateInvalidatesEvalCache) {
  Rng rng(313);
  LqNetsWeightSource source("w", {16, 16}, 16, /*bits=*/2, rng);
  source.weight(false);
  // The training M-step refits the basis; the cached encoding is stale.
  source.weight(true);
  const std::uint64_t count = source.materialize_count();
  source.weight(false);
  EXPECT_EQ(source.materialize_count(), count + 1)
      << "eval served an encoding from a pre-update basis";
}

// --------------------------------------------------------- workspace ----

TEST(Workspace, GrowOnceSemantics) {
  Workspace ws;
  EXPECT_EQ(ws.growth_count(), 0u);
  float* a = ws.floats(0, 100);
  const std::uint64_t after_first = ws.growth_count();
  EXPECT_GT(after_first, 0u);
  // Same or smaller requests recycle without growth.
  EXPECT_EQ(ws.floats(0, 100), a);
  EXPECT_EQ(ws.floats(0, 10), a);
  EXPECT_EQ(ws.growth_count(), after_first);
  // Larger requests grow (and may move).
  ws.floats(0, 1000);
  EXPECT_GT(ws.growth_count(), after_first);
}

TEST(Workspace, TensorSlotsKeepReferencesStableAcrossSlotCreation) {
  Workspace ws;
  Tensor& first = ws.tensor(0, {8, 8});
  first.fill(3.5f);
  // Creating every other slot must not relocate slot 0 (the conv backward
  // holds the cols reference while creating the grad_weight slot).
  for (int slot = 1; slot < Workspace::kMaxSlots; ++slot) {
    ws.tensor(slot, {4, 4});
  }
  EXPECT_EQ(&ws.peek(0), &first);
  EXPECT_FLOAT_EQ(first[0], 3.5f);
}

TEST(Workspace, ResizeKeepsStorageAndPeekRequiresPopulation) {
  Workspace ws;
  Tensor& t = ws.tensor(0, {2, 6});
  const float* data = t.data();
  const std::uint64_t growth = ws.growth_count();
  // Same element count, different shape: storage and growth count hold.
  Tensor& reshaped = ws.tensor(0, {3, 4});
  EXPECT_EQ(reshaped.data(), data);
  EXPECT_EQ(ws.growth_count(), growth);
  EXPECT_EQ(reshaped.dim(0), 3);
  EXPECT_THROW(ws.peek(1), check_error);
  EXPECT_THROW(ws.floats(Workspace::kMaxSlots, 4), check_error);
}

// -------------------------------------------------------- tensor pool ----

TEST(TensorPool, RecyclesBuffersAcrossTensorLifetimes) {
  const TensorPoolStats before = tensor_pool_stats();
  {
    Tensor a({64, 64});
    a.fill(1.0f);
  }
  {
    Tensor b = Tensor::uninitialized({64, 64});
    (void)b;
  }
  const TensorPoolStats after = tensor_pool_stats();
  EXPECT_GT(after.data_requests, before.data_requests);
  // The second tensor reuses the first one's released span.
  EXPECT_GT(after.data_reuses, before.data_reuses);
}

TEST(TensorPool, ResizeUnspecifiedReusesCapacity) {
  Tensor t({100});
  const float* data = t.data();
  t.resize_unspecified({10, 10});
  EXPECT_EQ(t.data(), data);
  EXPECT_EQ(t.ndim(), 2);
  t.resize_unspecified({5});
  EXPECT_EQ(t.data(), data);
  EXPECT_EQ(t.numel(), 5);
}

}  // namespace
}  // namespace csq
