// Integration tests for the CSQ training pipeline (Algorithm 1): budget
// convergence, trajectory recording, finalization exactness, finetune phase.
// Kept small (tiny model, tiny data) so the suite stays fast.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/csq_trainer.h"
#include "core/export.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "opt/trainer.h"
#include "util/check.h"

namespace csq {
namespace {

SyntheticConfig tiny_data_config() {
  SyntheticConfig config;
  config.num_classes = 4;
  config.train_samples = 96;
  config.test_samples = 48;
  config.height = 8;
  config.width = 8;
  config.noise_stddev = 0.3f;
  config.seed = 12;
  return config;
}

struct TrainedCsq {
  Model model;
  std::vector<CsqWeightSource*> sources;
  CsqTrainResult result;
};

Model build_tiny_resnet20(std::vector<CsqWeightSource*>* sources,
                          const CsqWeightOptions& options) {
  Rng rng(13);
  ModelConfig model_config;
  model_config.num_classes = 4;
  model_config.base_width = 4;
  return make_resnet20(model_config, csq_weight_factory(sources, options),
                       nullptr, rng);
}

// `workers` > 1 trains data-parallel on the default shard grid.
TrainedCsq run_tiny_csq(double target_bits, double lambda, int epochs,
                        int finetune_epochs = 0,
                        const CsqWeightOptions& options = {},
                        int workers = 1) {
  const SyntheticDataset data = make_synthetic(tiny_data_config());
  TrainedCsq out;
  out.model = build_tiny_resnet20(&out.sources, options);
  CsqTrainConfig config;
  config.train.epochs = epochs;
  config.train.batch_size = 32;
  config.train.learning_rate = 0.05f;
  config.lambda = lambda;
  config.target_bits = target_bits;
  config.finetune_epochs = finetune_epochs;
  config.data_parallel.workers = workers;
  out.result = train_csq(out.model, out.sources, data.train, data.test,
                         config, [&options] {
                           std::vector<CsqWeightSource*> unused;
                           return build_tiny_resnet20(&unused, options);
                         });
  return out;
}

TEST(CsqTrainer, ReachesNeighborhoodOfTargetPrecision) {
  const TrainedCsq trained = run_tiny_csq(/*target=*/3.0, /*lambda=*/0.05,
                                          /*epochs=*/10);
  EXPECT_NEAR(trained.result.average_bits, 3.0, 0.25);
  // The paper's prune-then-grow shape: the budget regularizer first prunes
  // precision far below the target, then precision grows back to it.
  const std::vector<double>& trajectory =
      trained.result.precision_trajectory;
  ASSERT_FALSE(trajectory.empty());
  EXPECT_LT(*std::min_element(trajectory.begin(), trajectory.end()),
            3.0 - 1.0);
  EXPECT_NEAR(trajectory.back(), 3.0, 0.25);
  EXPECT_DOUBLE_EQ(trained.result.compression,
                   32.0 / trained.result.average_bits);
}

TEST(CsqTrainer, GrowsFromBelowToTargetPrecision) {
  // The paper's growing direction: every bit starts deselected (mask logit
  // -0.1, precision 0) and the budget regularizer grows precision up to the
  // target, serially and through the data-parallel step.
  CsqWeightOptions options;
  options.mask_init = -0.1f;
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    const TrainedCsq trained =
        run_tiny_csq(/*target=*/3.0, /*lambda=*/0.05, /*epochs=*/15,
                     /*finetune_epochs=*/0, options, workers);
    const std::vector<double>& trajectory =
        trained.result.precision_trajectory;
    ASSERT_FALSE(trajectory.empty());
    EXPECT_EQ(trajectory.front(), 0.0);
    EXPECT_NEAR(trained.result.average_bits, 3.0, 0.25);
  }
}

TEST(CsqTrainer, TinyLambdaFailsToReachBudget) {
  // The paper's Figure 2 property: lambda <= 1e-6 cannot control precision.
  const TrainedCsq trained = run_tiny_csq(/*target=*/3.0, /*lambda=*/1e-6,
                                          /*epochs=*/8);
  EXPECT_GT(trained.result.average_bits, 5.0);
}

TEST(CsqTrainer, TrajectoryRecordedPerEpochAndDecreasing) {
  const TrainedCsq trained = run_tiny_csq(3.0, 0.05, 10);
  ASSERT_EQ(trained.result.precision_trajectory.size(), 10u);
  EXPECT_GE(trained.result.precision_trajectory.front(),
            trained.result.precision_trajectory.back());
  EXPECT_LE(trained.result.precision_trajectory.front(), 8.0);
}

TEST(CsqTrainer, FinalizedModelUsesExactGridWeights) {
  TrainedCsq trained = run_tiny_csq(4.0, 0.05, 8);
  for (CsqWeightSource* source : trained.sources) {
    EXPECT_EQ(source->mode(), CsqMode::finalized);
    EXPECT_EQ(export_roundtrip_error(*source), 0.0f);
  }
}

TEST(CsqTrainer, SoftAndFinalizedAccuracyAgreeAfterAnnealing) {
  // At beta_max the gates are near-binary: snapping them must not change
  // the model much (the paper's "exact quantized model, no rounding").
  const TrainedCsq trained = run_tiny_csq(4.0, 0.05, 12);
  EXPECT_NEAR(trained.result.test_accuracy, trained.result.soft_test_accuracy,
              15.0f);
}

TEST(CsqTrainer, LayerBitsCoverEveryQuantLayer) {
  const TrainedCsq trained = run_tiny_csq(3.0, 0.05, 6);
  EXPECT_EQ(trained.result.layer_bits.size(),
            trained.model.quant_layers().size());
  for (const LayerPrecision& layer : trained.result.layer_bits) {
    EXPECT_GE(layer.bits, 0);
    EXPECT_LE(layer.bits, 8);
    EXPECT_GT(layer.weight_count, 0);
  }
  EXPECT_EQ(trained.result.layer_bits.front().name, "conv1");
  EXPECT_EQ(trained.result.layer_bits.back().name, "fc");
}

TEST(CsqTrainer, FinetunePhaseRunsAndKeepsScheme) {
  const TrainedCsq trained = run_tiny_csq(3.0, 0.02, 8, /*finetune=*/4);
  // Finetune ran: its fit result is populated.
  EXPECT_GT(trained.result.finetune_phase.test_accuracy, 0.0f);
  // The scheme frozen at the end of the joint phase is preserved through
  // finetune and finalization: the last joint-epoch precision (recorded
  // with the same I(m_B >= 0) rule) must equal the final precision exactly.
  ASSERT_FALSE(trained.result.precision_trajectory.empty());
  EXPECT_DOUBLE_EQ(trained.result.average_bits,
                   trained.result.precision_trajectory.back());
}

TEST(CsqTrainer, AccuracyIsReasonableOnEasyData) {
  // Tiny data means few optimizer steps per epoch; the bit-level model
  // needs ~60 steps before the soft representation organizes (the dense
  // baseline learns faster — that gap is the cost CSQ pays for bit-level
  // freedom, also visible in the paper's long training schedules).
  const TrainedCsq trained = run_tiny_csq(5.0, 0.02, 20);
  EXPECT_GT(trained.result.test_accuracy, 50.0f);  // 4 classes, easy noise
}

TEST(CsqTrainer, RequiresAtLeastOneSource) {
  const SyntheticDataset data = make_synthetic(tiny_data_config());
  Rng rng(14);
  ModelConfig model_config;
  model_config.num_classes = 4;
  model_config.base_width = 4;
  Model dense = make_resnet20(model_config, dense_weight_factory(), nullptr,
                              rng);
  CsqTrainConfig config;
  EXPECT_THROW(train_csq(dense, {}, data.train, data.test, config),
               check_error);
}

}  // namespace
}  // namespace csq
