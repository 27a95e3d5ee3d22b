#include "core/csq_trainer.h"

#include <memory>

#include "util/check.h"
#include "util/logging.h"

namespace csq {

CsqTrainResult train_csq(Model& model,
                         const std::vector<CsqWeightSource*>& sources,
                         const InMemoryDataset& train_data,
                         const InMemoryDataset& test_data,
                         const CsqTrainConfig& config,
                         const DataParallelTrainer::ModelFactory&
                             replica_factory) {
  CSQ_CHECK(!sources.empty()) << "train_csq: no CSQ weight sources";
  CSQ_CHECK(config.train.epochs >= 1) << "train_csq: bad epoch count";

  CsqTrainResult result;

  // Data-parallel setup: the replicas read the primary's materialized
  // weights, so the scheme state (temperature, frozen masks) lives only in
  // `sources`.
  std::unique_ptr<DataParallelTrainer> dp;
  if (config.data_parallel.workers > 1) {
    dp = std::make_unique<DataParallelTrainer>(model, replica_factory,
                                               config.data_parallel);
  }
  const auto set_all_beta = [&](float beta) {
    for (CsqWeightSource* source : sources) source->set_beta(beta);
  };

  // ---- Joint phase: bi-level training under the budget regularizer ----
  const TemperatureSchedule joint_schedule(config.beta0, config.beta_max,
                                           config.train.epochs);
  FitHooks hooks;
  hooks.on_epoch_begin = [&](int epoch) {
    set_all_beta(joint_schedule.at_epoch(epoch));
  };
  hooks.before_step = [&]() {
    apply_budget_regularizer(sources, config.lambda, config.target_bits);
  };
  hooks.on_epoch_end = [&](int, float, float) {
    result.precision_trajectory.push_back(average_precision(sources));
  };
  result.joint_phase =
      dp ? fit(*dp, train_data, test_data, config.train, hooks)
         : fit(model, train_data, test_data, config.train, hooks);

  // ---- Optional finetune phase: frozen scheme, rewound temperature ----
  for (CsqWeightSource* source : sources) source->freeze_mask();
  if (config.finetune_epochs > 0) {
    const TemperatureSchedule finetune_schedule(
        config.beta0, config.beta_max, config.finetune_epochs);
    TrainConfig finetune_config = config.train;
    finetune_config.epochs = config.finetune_epochs;
    finetune_config.learning_rate = config.finetune_learning_rate;
    finetune_config.warmup_epochs = 0;

    FitHooks finetune_hooks;
    finetune_hooks.on_epoch_begin = [&](int epoch) {
      set_all_beta(finetune_schedule.at_epoch(epoch));
    };
    result.finetune_phase =
        dp ? fit(*dp, train_data, test_data, finetune_config, finetune_hooks)
           : fit(model, train_data, test_data, finetune_config,
                 finetune_hooks);
  }

  // ---- Finalization: exact quantized model ----------------------------
  result.soft_test_accuracy = evaluate_accuracy(model, test_data);
  for (CsqWeightSource* source : sources) source->finalize();
  result.test_accuracy = evaluate_accuracy(model, test_data);
  result.average_bits = average_precision(sources);
  result.compression = 32.0 / result.average_bits;

  std::vector<std::pair<std::string, CsqWeightSource*>> named;
  named.reserve(model.quant_layers().size());
  for (const QuantLayer& layer : model.quant_layers()) {
    if (auto* source = dynamic_cast<CsqWeightSource*>(layer.source)) {
      named.emplace_back(layer.name, source);
    }
  }
  result.layer_bits = layer_precisions(named);

  log_debug() << "csq: finalized avg_bits=" << result.average_bits
              << " acc=" << result.test_accuracy
              << "% (soft " << result.soft_test_accuracy << "%)"
              << (dp ? " [data-parallel]" : "");
  return result;
}

}  // namespace csq
