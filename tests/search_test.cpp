// Tests for src/search: sensitivity profiling, greedy budgeted assignment,
// evolutionary search.
#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "quant/quantizer.h"
#include "nn/models.h"
#include "opt/trainer.h"
#include "search/assignment.h"
#include "search/evo_search.h"
#include "search/sensitivity.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace csq {
namespace {

SyntheticConfig tiny_config() {
  SyntheticConfig config;
  config.num_classes = 4;
  config.train_samples = 96;
  config.test_samples = 64;
  config.height = 8;
  config.width = 8;
  config.noise_stddev = 0.3f;
  config.seed = 20;
  return config;
}

// A small pretrained model shared by the profiling tests.
struct Pretrained {
  Model model;
  SyntheticDataset data;
};

Pretrained make_pretrained() {
  Pretrained out;
  out.data = make_synthetic(tiny_config());
  Rng rng(21);
  ModelConfig model_config;
  model_config.num_classes = 4;
  model_config.base_width = 4;
  out.model = make_resnet20(model_config, dense_weight_factory(), nullptr,
                            rng);
  TrainConfig config;
  config.epochs = 6;
  config.batch_size = 32;
  config.learning_rate = 0.05f;
  fit(out.model, out.data.train, out.data.test, config);
  return out;
}

TEST(Sensitivity, ProfileShapesAndMonotonicity) {
  Pretrained pre = make_pretrained();
  const SensitivityProfile profile =
      profile_sensitivity(pre.model, pre.data.train, 8, 64);

  ASSERT_EQ(profile.sensitivity.size(), pre.model.quant_layers().size());
  ASSERT_EQ(profile.layer_names.size(), profile.sensitivity.size());
  ASSERT_EQ(profile.layer_sizes.size(), profile.sensitivity.size());

  double total_1bit = 0.0, total_8bit = 0.0;
  for (const auto& per_bits : profile.sensitivity) {
    ASSERT_EQ(per_bits.size(), 8u);
    for (const double value : per_bits) EXPECT_GE(value, 0.0);
    total_1bit += per_bits[0];
    total_8bit += per_bits[7];
  }
  // Aggregate monotonicity: 1-bit quantization hurts more than 8-bit over
  // the whole network (individual layers can be noisy on the small
  // calibration subset).
  EXPECT_GT(total_1bit, total_8bit);
}

TEST(Sensitivity, ProfilingRestoresWeights) {
  Pretrained pre = make_pretrained();
  const std::vector<Tensor> before = backup_dense_weights(pre.model);
  profile_sensitivity(pre.model, pre.data.train, 4, 64);
  const std::vector<Tensor> after = backup_dense_weights(pre.model);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(max_abs_diff(before[i], after[i]), 0.0f);
  }
}

TEST(Sensitivity, BackupRestoreRoundTrip) {
  Pretrained pre = make_pretrained();
  std::vector<Tensor> backup = backup_dense_weights(pre.model);
  auto* dense =
      dynamic_cast<DenseWeightSource*>(pre.model.quant_layers()[0].source);
  dense->parameter().value.fill(0.0f);
  restore_dense_weights(pre.model, backup);
  EXPECT_GT(max_abs(dense->parameter().value), 0.0f);
}

// Synthetic profile for deterministic assignment tests.
SensitivityProfile synthetic_profile() {
  SensitivityProfile profile;
  profile.layer_names = {"cheap", "pricey", "huge"};
  profile.layer_sizes = {100, 100, 800};
  // sensitivity[l][b-1], decreasing in b. "pricey" is very sensitive,
  // "cheap" barely, "huge" moderately.
  profile.sensitivity = {
      {0.08, 0.04, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0},
      {8.0, 4.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.0},
      {0.8, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0},
  };
  return profile;
}

TEST(Assignment, MeetsBudgetAndKeepsSensitiveLayersHigh) {
  const SensitivityProfile profile = synthetic_profile();
  const BitAssignment assignment = assign_bits_greedy(profile, 4.0);
  EXPECT_LE(assignment.average_bits, 4.0 + 1e-9);
  // The very sensitive layer must keep more bits than the cheap one.
  EXPECT_GT(assignment.bits[1], assignment.bits[0]);
}

TEST(Assignment, AverageBitsIsElementWeighted) {
  EXPECT_NEAR(assignment_average_bits({2, 8}, {300, 100}), 3.5, 1e-12);
}

TEST(Assignment, RespectsMinBits) {
  const SensitivityProfile profile = synthetic_profile();
  const BitAssignment assignment =
      assign_bits_greedy(profile, 2.0, /*min_bits=*/2);
  for (const int bits : assignment.bits) EXPECT_GE(bits, 2);
}

TEST(Assignment, LooseBudgetKeepsEverythingAtMax) {
  const SensitivityProfile profile = synthetic_profile();
  const BitAssignment assignment = assign_bits_greedy(profile, 8.0);
  for (const int bits : assignment.bits) EXPECT_EQ(bits, 8);
}

TEST(Assignment, MismatchedSizesThrow) {
  EXPECT_THROW(assignment_average_bits({1, 2}, {10}), check_error);
}

TEST(Assignment, ApplyPtqSnapsToPerLayerGrids) {
  Pretrained pre = make_pretrained();
  std::vector<int> bits(pre.model.quant_layers().size(), 3);
  apply_assignment_ptq(pre.model, bits);
  auto* dense =
      dynamic_cast<DenseWeightSource*>(pre.model.quant_layers()[0].source);
  const Tensor& w = dense->parameter().value;
  const float scale = max_abs_scale(w);
  for (std::int64_t i = 0; i < std::min<std::int64_t>(w.numel(), 30); ++i) {
    const float grid = w[i] / scale * 7.0f;
    EXPECT_NEAR(grid, std::round(grid), 1e-2f);
  }
}

TEST(EvoSearch, MeetsBudgetAndDoesNotRegress) {
  Pretrained pre = make_pretrained();
  const SensitivityProfile profile =
      profile_sensitivity(pre.model, pre.data.train, 8, 64);

  EvoSearchConfig config;
  config.population = 6;
  config.generations = 3;
  config.target_bits = 4.0;
  config.fitness_samples = 64;
  const EvoSearchResult result =
      evolutionary_search(pre.model, pre.data.test, profile, config);

  EXPECT_LE(result.average_bits, 4.0 + 1e-9);
  EXPECT_EQ(result.best_bits.size(), profile.sensitivity.size());
  // History is monotone non-decreasing (elitism).
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_GE(result.history[g], result.history[g - 1] - 1e-9);
  }
  EXPECT_GT(result.best_fitness, 25.0);  // meaningfully above random (4 cls)
}

TEST(EvoSearch, RestoresModelWeights) {
  Pretrained pre = make_pretrained();
  const SensitivityProfile profile =
      profile_sensitivity(pre.model, pre.data.train, 4, 64);
  const std::vector<Tensor> before = backup_dense_weights(pre.model);

  EvoSearchConfig config;
  config.population = 4;
  config.generations = 2;
  config.target_bits = 4.0;
  config.fitness_samples = 32;
  evolutionary_search(pre.model, pre.data.test, profile, config);

  const std::vector<Tensor> after = backup_dense_weights(pre.model);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(max_abs_diff(before[i], after[i]), 0.0f);
  }
}

TEST(EvoSearch, BitsStayWithinNarrowProfile) {
  // A profile covering 1..4 bits bounds both searches at 4 bits: neither
  // may start above it or read a sensitivity it does not have.
  Pretrained pre = make_pretrained();
  const SensitivityProfile profile =
      profile_sensitivity(pre.model, pre.data.train, 4, 64);

  for (const int bits : assign_bits_greedy(profile, 8.0).bits) {
    EXPECT_EQ(bits, 4);
  }
  EvoSearchConfig config;
  config.population = 4;
  config.generations = 2;
  config.target_bits = 4.0;
  config.fitness_samples = 32;
  const EvoSearchResult result =
      evolutionary_search(pre.model, pre.data.test, profile, config);
  for (const int bits : result.best_bits) {
    EXPECT_GE(bits, 1);
    EXPECT_LE(bits, 4);
  }

  SensitivityProfile ragged = profile;
  ragged.sensitivity.back().pop_back();
  EXPECT_THROW(assign_bits_greedy(ragged, 3.0), check_error);
  EXPECT_THROW(assign_bits_greedy(profile, 3.0, /*min_bits=*/5), check_error);
}

}  // namespace
}  // namespace csq
