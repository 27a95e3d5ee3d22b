// Tests for the flat parameter arena (nn/parameter_arena): borrowed-tensor
// view semantics, binding transparency, the arena-backed SGD sweep's
// bit-identity with the per-parameter path, and the chunk-ordered tree
// reduction kernel underpinning data-parallel gradient combines.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/models.h"
#include "nn/parameter_arena.h"
#include "nn/weight_source.h"
#include "opt/sgd.h"
#include "tensor/quant_kernels.h"
#include "util/check.h"
#include "util/rng.h"

namespace csq {
namespace {

Model tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  ModelConfig config;
  config.num_classes = 4;
  config.base_width = 4;
  return make_resnet_cifar(8, config, dense_weight_factory(), nullptr, rng);
}

// ---- Tensor borrow mode ---------------------------------------------------

TEST(TensorBorrow, ViewReadsAndWritesExternalSpan) {
  std::vector<float> span = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  Tensor view = Tensor::borrow(span.data(), {2, 3});
  EXPECT_TRUE(view.is_borrowed());
  EXPECT_EQ(view.numel(), 6);
  EXPECT_EQ(view.data(), span.data());
  EXPECT_FLOAT_EQ(view[4], 5.0f);

  view[1] = -7.0f;
  EXPECT_FLOAT_EQ(span[1], -7.0f);
  view.fill(0.5f);
  EXPECT_FLOAT_EQ(span[5], 0.5f);
}

TEST(TensorBorrow, CopyFromViewOwnsItsStorage) {
  std::vector<float> span = {1.0f, 2.0f, 3.0f, 4.0f};
  Tensor view = Tensor::borrow(span.data(), {4});
  Tensor copy(view);
  EXPECT_FALSE(copy.is_borrowed());
  EXPECT_NE(copy.data(), span.data());
  copy[0] = 9.0f;
  EXPECT_FLOAT_EQ(span[0], 1.0f);
}

TEST(TensorBorrow, AssignIntoViewCopiesInPlace) {
  std::vector<float> span = {0.0f, 0.0f, 0.0f, 0.0f};
  Tensor view = Tensor::borrow(span.data(), {2, 2});
  Tensor source = Tensor::from_data({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  view = source;
  EXPECT_TRUE(view.is_borrowed());
  EXPECT_EQ(view.data(), span.data());
  EXPECT_FLOAT_EQ(span[3], 4.0f);
  // The view takes the source's shape along with its elements.
  EXPECT_EQ(view.ndim(), 1);
}

TEST(TensorBorrow, AssignIntoViewRequiresMatchingCount) {
  std::vector<float> span = {0.0f, 0.0f, 0.0f};
  Tensor view = Tensor::borrow(span.data(), {3});
  Tensor wrong({4});
  EXPECT_THROW(view = wrong, check_error);
}

TEST(TensorBorrow, FreeStorageBypassesThePool) {
  // A destroyed tensor parks its span in the recycling pool; free_storage
  // returns it to the heap, so the pool's cached bytes do not move.
  Tensor owned({1 << 16});
  const std::uint64_t cached = tensor_pool_stats().cached_bytes;
  owned.free_storage();
  EXPECT_TRUE(owned.empty());
  EXPECT_EQ(owned.ndim(), 0);
  EXPECT_EQ(tensor_pool_stats().cached_bytes, cached);

  std::vector<float> span = {1.0f, 2.0f};
  Tensor view = Tensor::borrow(span.data(), {2});
  EXPECT_THROW(view.free_storage(), check_error);
}

// ---- Arena binding --------------------------------------------------------

TEST(ParameterArena, BindingPreservesValuesAndLaysOutContiguously) {
  Model model = tiny_model(5);
  std::vector<std::vector<float>> before;
  for (Parameter* param : model.parameters()) {
    before.emplace_back(param->value.data(),
                        param->value.data() + param->value.numel());
  }

  ParameterArena& arena = model.arena();
  ASSERT_EQ(arena.views().size(), model.parameters().size());

  std::int64_t expected_offset = 0;
  for (std::size_t i = 0; i < arena.views().size(); ++i) {
    const ParameterArena::View& view = arena.views()[i];
    EXPECT_EQ(view.offset, expected_offset);
    expected_offset += view.count;
    EXPECT_TRUE(view.param->value.is_borrowed());
    EXPECT_EQ(view.param->value.data(), arena.values() + view.offset);
    EXPECT_EQ(view.param->grad.data(), arena.grads() + view.offset);
    ASSERT_EQ(view.count, static_cast<std::int64_t>(before[i].size()));
    EXPECT_EQ(std::memcmp(view.param->value.data(), before[i].data(),
                          before[i].size() * sizeof(float)),
              0)
        << view.param->name << " changed during binding";
  }
  EXPECT_EQ(expected_offset, arena.size());
}

TEST(ParameterArena, ElementWritesThroughParameterLandInArena) {
  Model model = tiny_model(6);
  ParameterArena& arena = model.arena();
  Parameter* param = model.parameters().front();
  param->value[0] = 123.5f;
  EXPECT_FLOAT_EQ(arena.values()[arena.views().front().offset], 123.5f);
}

TEST(ParameterArena, ZeroGradsClearsEverything) {
  Model model = tiny_model(7);
  ParameterArena& arena = model.arena();
  arena.grads()[0] = 1.0f;
  arena.grads()[arena.size() - 1] = 2.0f;
  model.zero_grad();  // routes through the arena once bound
  for (std::int64_t i = 0; i < arena.size(); ++i) {
    ASSERT_EQ(arena.grads()[i], 0.0f) << "grad " << i;
  }
}

TEST(ParameterArena, RebindingIsRejected) {
  Model model = tiny_model(12);
  model.arena();
  EXPECT_THROW(ParameterArena duplicate(model.parameters()), check_error);
}

// ---- Arena-backed SGD -----------------------------------------------------

TEST(ArenaSgd, StepBitIdenticalToPerParameterPath) {
  Model legacy = tiny_model(21);
  Model flat = tiny_model(21);  // same seed: identical initial values

  SgdConfig config;
  config.learning_rate = 0.05f;
  config.momentum = 0.9f;
  config.weight_decay = 5e-4f;
  Sgd legacy_opt(legacy.parameters(), config);
  Sgd flat_opt(flat.arena(), config);

  Rng rng(22);
  const std::vector<Parameter*>& legacy_params = legacy.parameters();
  const std::vector<Parameter*>& flat_params = flat.parameters();
  ASSERT_EQ(legacy_params.size(), flat_params.size());

  for (int step = 0; step < 3; ++step) {
    for (std::size_t p = 0; p < legacy_params.size(); ++p) {
      for (std::int64_t i = 0; i < legacy_params[p]->grad.numel(); ++i) {
        const float g = rng.uniform(-1.0f, 1.0f);
        legacy_params[p]->grad[i] = g;
        flat_params[p]->grad[i] = g;
      }
    }
    legacy_opt.step();
    flat_opt.step();
  }

  for (std::size_t p = 0; p < legacy_params.size(); ++p) {
    ASSERT_EQ(std::memcmp(legacy_params[p]->value.data(),
                          flat_params[p]->value.data(),
                          static_cast<std::size_t>(
                              legacy_params[p]->value.numel()) *
                              sizeof(float)),
              0)
        << legacy_params[p]->name << " diverged";
  }
}

TEST(ArenaSgd, StepBumpsVersions) {
  Model model = tiny_model(23);
  Sgd optimizer(model.arena(), SgdConfig{});
  std::vector<std::uint64_t> versions;
  for (Parameter* param : model.parameters()) {
    versions.push_back(param->version);
  }
  optimizer.step();
  const std::vector<Parameter*>& params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_GT(params[i]->version, versions[i]) << params[i]->name;
  }
}

// ---- Tree reduction kernel ------------------------------------------------

TEST(TreeReduce, MatchesReferenceAndIsExecutionInvariant) {
  Rng rng(31);
  const std::int64_t count = 10'000;  // spans several kernel chunks
  for (const int num_sources : {1, 2, 3, 5, 8, 13}) {
    std::vector<std::vector<float>> data(
        static_cast<std::size_t>(num_sources));
    std::vector<const float*> sources;
    for (auto& span : data) {
      span.resize(static_cast<std::size_t>(count));
      for (float& x : span) x = rng.uniform(-2.0f, 2.0f);
      sources.push_back(span.data());
    }

    // Reference: the same pairwise tree, computed unchunked.
    std::vector<float> expected(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      float lane[kMaxReduceSpans];
      for (int s = 0; s < num_sources; ++s) lane[s] = data[s][i];
      for (int stride = 1; stride < num_sources; stride *= 2) {
        for (int s = 0; s + stride < num_sources; s += 2 * stride) {
          lane[s] += lane[s + stride];
        }
      }
      expected[static_cast<std::size_t>(i)] = lane[0];
    }

    std::vector<float> serial(static_cast<std::size_t>(count));
    std::vector<float> pooled(static_cast<std::size_t>(count));
    tree_reduce_spans(sources.data(), num_sources, serial.data(), count,
                      KernelExec::serial);
    tree_reduce_spans(sources.data(), num_sources, pooled.data(), count,
                      KernelExec::pooled);
    EXPECT_EQ(std::memcmp(serial.data(), expected.data(),
                          expected.size() * sizeof(float)),
              0)
        << num_sources << " sources: serial != reference";
    EXPECT_EQ(std::memcmp(pooled.data(), serial.data(),
                          serial.size() * sizeof(float)),
              0)
        << num_sources << " sources: pooled != serial";
  }
}

TEST(TreeReduce, SingleSourceIsACopy) {
  std::vector<float> src = {1.5f, -2.0f, 3.25f};
  std::vector<float> dst(3, 0.0f);
  const float* sources[1] = {src.data()};
  tree_reduce_spans(sources, 1, dst.data(), 3, KernelExec::serial);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), 3 * sizeof(float)), 0);
}

}  // namespace
}  // namespace csq
