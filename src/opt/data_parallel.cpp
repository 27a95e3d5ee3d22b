#include "opt/data_parallel.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "tensor/quant_kernels.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace csq {

DataParallelTrainer::DataParallelTrainer(Model& primary,
                                         const ModelFactory& replica_factory,
                                         const DataParallelConfig& config)
    : primary_(&primary),
      workers_(config.workers),
      micro_batch_config_(config.micro_batch) {
  CSQ_CHECK(workers_ >= 1 && workers_ <= kMaxReduceSpans)
      << "data-parallel: worker count " << workers_ << " outside [1, "
      << kMaxReduceSpans << "]";
  CSQ_CHECK(micro_batch_config_ >= 0) << "data-parallel: bad micro_batch";

  ParameterArena& primary_arena = primary_->arena();
  const std::vector<ParameterArena::View>& views = primary_arena.views();
  const std::vector<QuantLayer>& layers = primary_->quant_layers();

  // Gradient span layout: one dW slice per quant layer, then the arena
  // views no source owns.
  std::unordered_set<const Parameter*> source_params;
  std::vector<Parameter*> collected;
  for (const QuantLayer& layer : layers) {
    weight_offsets_.push_back(weight_floats_);
    weight_floats_ += layer.source->weight_count();
    collected.clear();
    layer.source->collect_parameters(collected);
    source_params.insert(collected.begin(), collected.end());
  }
  span_floats_ = weight_floats_;
  std::vector<bool> source_view(views.size());
  for (std::size_t v = 0; v < views.size(); ++v) {
    source_view[v] = source_params.count(views[v].param) != 0;
    if (source_view[v]) continue;
    extra_views_.push_back(v);
    span_floats_ += views[v].count;
  }

  owned_replicas_.reserve(static_cast<std::size_t>(workers_ - 1));
  replicas_.resize(static_cast<std::size_t>(workers_));
  replicas_[0].model = primary_;
  for (int w = 1; w < workers_; ++w) {
    CSQ_CHECK(static_cast<bool>(replica_factory))
        << "data-parallel: workers > 1 requires a replica factory";
    owned_replicas_.push_back(replica_factory());
    Model& replica = owned_replicas_.back();
    const std::vector<Parameter*>& params = replica.parameters();
    CSQ_CHECK(params.size() == views.size())
        << "data-parallel: replica " << w << " has " << params.size()
        << " parameters, the primary " << views.size()
        << " (factory must use the same builder)";
    // Every value becomes a view of the primary's arena, so the optimizer
    // step is visible to the replicas without a copy. Gradients stay only
    // where a replica's backward writes them: the views no source owns.
    // The displaced factory storage goes to the heap, not the Tensor pool,
    // which would keep it resident.
    for (std::size_t v = 0; v < views.size(); ++v) {
      Parameter& param = *params[v];
      const Tensor& primary_value = views[v].param->value;
      CSQ_CHECK(!param.value.is_borrowed())
          << "data-parallel: replica " << w << " parameter " << param.name
          << " is arena-bound (factory must return an unbound model)";
      CSQ_CHECK(param.value.same_shape(primary_value))
          << "data-parallel: replica " << w << " parameter " << param.name
          << " has shape " << param.value.shape_string() << ", the primary "
          << primary_value.shape_string()
          << " (factory must use the same builder)";
      param.value.free_storage();
      param.value = Tensor::borrow(primary_arena.values() + views[v].offset,
                                   primary_value.shape());
      if (source_view[v]) param.grad.free_storage();
      param.mark_updated();
    }
    const std::vector<QuantLayer>& replica_layers = replica.quant_layers();
    CSQ_CHECK(replica_layers.size() == layers.size())
        << "data-parallel: replica " << w << " has " << replica_layers.size()
        << " quant layers, the primary " << layers.size();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      CSQ_CHECK(replica_layers[i].source->weight_shape() ==
                layers[i].source->weight_shape())
          << "data-parallel: replica " << w << " quant layer "
          << layers[i].name << " weight shape differs from the primary";
    }
    replicas_[static_cast<std::size_t>(w)].model = &replica;
  }

  reduced_.resize(static_cast<std::size_t>(span_floats_));
  for (std::size_t i = 0; i < layers.size(); ++i) {
    reduced_weight_grads_.push_back(
        Tensor::borrow(reduced_.data() + weight_offsets_[i],
                       layers[i].source->weight_shape()));
  }
  step_weights_.resize(layers.size());

  // Collect each replica's batchnorms in depth-first module order; the
  // shared offsets let any worker capture into a shard's stat span and the
  // primary replay from it.
  for (int w = 0; w < workers_; ++w) {
    Replica& rep = replicas_[static_cast<std::size_t>(w)];
    for (const std::size_t v : extra_views_) {
      rep.extra_grads.push_back(&rep.model->parameters()[v]->grad);
    }
    rep.model->for_each_module([&rep](Module& module) {
      if (auto* bn = dynamic_cast<BatchNorm2d*>(&module)) {
        rep.batchnorms.push_back(bn);
      }
    });
    rep.shard_shape.assign(4, 0);
    if (w == 0) {
      for (BatchNorm2d* bn : rep.batchnorms) {
        bn_offsets_.push_back(bn_channels_);
        bn_channels_ += bn->channels();
      }
    } else {
      CSQ_CHECK(rep.batchnorms.size() == replicas_[0].batchnorms.size())
          << "data-parallel: replica " << w << " batchnorm count differs";
      for (std::size_t j = 0; j < rep.batchnorms.size(); ++j) {
        CSQ_CHECK(rep.batchnorms[j]->channels() ==
                  replicas_[0].batchnorms[j]->channels())
            << "data-parallel: replica " << w << " batchnorm " << j
            << " channel count differs";
      }
    }
  }

  errors_.resize(static_cast<std::size_t>(workers_));
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

DataParallelTrainer::~DataParallelTrainer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void DataParallelTrainer::for_each_replica(
    const std::function<void(Model&)>& fn) {
  for (Model& replica : owned_replicas_) fn(replica);
}

void DataParallelTrainer::prepare_step(const Batch& batch) {
  CSQ_CHECK(batch.images.ndim() == 4)
      << "data-parallel: expected (B,C,H,W) images, got "
      << batch.images.shape_string();
  batch_rows_ = batch.images.dim(0);
  CSQ_CHECK(batch_rows_ >= 1 &&
            batch_rows_ == static_cast<std::int64_t>(batch.labels.size()))
      << "data-parallel: batch size / label count mismatch";
  sample_numel_ =
      batch.images.dim(1) * batch.images.dim(2) * batch.images.dim(3);

  if (micro_batch_config_ > 0) {
    micro_batch_ = std::min(micro_batch_config_, batch_rows_);
  } else {
    const std::int64_t shards =
        std::min<std::int64_t>(kDefaultTrainShards, batch_rows_);
    micro_batch_ = (batch_rows_ + shards - 1) / shards;
  }
  const std::int64_t shard_count =
      (batch_rows_ + micro_batch_ - 1) / micro_batch_;
  CSQ_CHECK(shard_count <= kMaxReduceSpans)
      << "data-parallel: batch of " << batch_rows_ << " rows at micro_batch "
      << micro_batch_ << " needs " << shard_count << " shards (max "
      << kMaxReduceSpans << "); raise micro_batch";
  num_shards_ = static_cast<int>(shard_count);
  step_batch_ = &batch;

  // Grow-once scratch: these resizes only allocate until the largest batch
  // geometry has been seen, after which every step reuses the buffers.
  const auto shards = static_cast<std::size_t>(num_shards_);
  const auto span_floats = shards * static_cast<std::size_t>(span_floats_);
  if (shard_spans_.size() < span_floats) shard_spans_.resize(span_floats);
  const auto stat_floats = shards * 2 * static_cast<std::size_t>(bn_channels_);
  if (bn_stats_.size() < stat_floats) bn_stats_.resize(stat_floats);
  if (shard_loss_.size() < shards) shard_loss_.resize(shards);
  if (shard_correct_.size() < shards) shard_correct_.resize(shards);
  if (shard_rows_.size() < shards) shard_rows_.resize(shards);
}

DataParallelTrainer::StepStats DataParallelTrainer::train_step(
    const Batch& batch, Sgd& optimizer,
    const std::function<void()>& before_step) {
  prepare_step(batch);
  primary_->arena().zero_grads();
  std::fill(errors_.begin(), errors_.end(), std::exception_ptr());

  // The step's one training materialization per source, on the calling
  // thread while the workers sleep, so the fixed-grid kernels run pooled.
  // Every replica's layers (the primary's too) then read these weights.
  const std::vector<QuantLayer>& layers = primary_->quant_layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    step_weights_[i] = layers[i].source->weight(/*training=*/true).data();
  }
  for (Replica& replica : replicas_) {
    const std::vector<QuantLayer>& bound = replica.model->quant_layers();
    for (std::size_t i = 0; i < bound.size(); ++i) {
      bound[i].source->binding().weight = step_weights_[i];
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++generation_;
    pending_ = workers_ - 1;
  }
  wake_.notify_all();

  try {
    run_worker(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
  }
  step_batch_ = nullptr;
  for (Replica& replica : replicas_) {
    for (const QuantLayer& layer : replica.model->quant_layers()) {
      layer.source->binding() = WeightBinding{};
    }
  }
  for (const std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }

  StepStats stats;
  combine_and_step(optimizer, before_step, stats);
  return stats;
}

void DataParallelTrainer::worker_loop(int w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    try {
      run_worker(w);
    } catch (...) {
      errors_[static_cast<std::size_t>(w)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_.notify_all();
    }
  }
}

void DataParallelTrainer::run_worker(int w) {
  // Shard parallelism is the only parallelism: inner kernels run serially
  // on this thread so N workers never contend for the shared pool, and the
  // fixed-chunk-grid kernels make serial execution bit-identical to pooled.
  SerialExecutionGuard guard;
  Replica& replica = replicas_[static_cast<std::size_t>(w)];
  for (int s = w; s < num_shards_; s += workers_) run_shard(replica, s);
}

void DataParallelTrainer::run_shard(Replica& replica, int shard) {
  const Batch& batch = *step_batch_;
  const std::int64_t begin = static_cast<std::int64_t>(shard) * micro_batch_;
  const std::int64_t end = std::min(begin + micro_batch_, batch_rows_);
  const std::int64_t rows = end - begin;

  replica.shard_shape[0] = rows;
  replica.shard_shape[1] = batch.images.dim(1);
  replica.shard_shape[2] = batch.images.dim(2);
  replica.shard_shape[3] = batch.images.dim(3);
  // The batch is contiguous (B,C,H,W), so a row range is a contiguous span:
  // the shard input is a borrow view, not a copy.
  const Tensor images =
      Tensor::borrow(const_cast<float*>(batch.images.data()) +
                         begin * sample_numel_,
                     replica.shard_shape);
  replica.labels.assign(batch.labels.begin() + begin,
                        batch.labels.begin() + end);

  // Point the layers' dW at this shard's span and clear the gradients of
  // the views no source owns, which backward accumulates in place.
  float* span = shard_span(shard);
  const std::vector<QuantLayer>& layers = replica.model->quant_layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i].source->binding().grad = span + weight_offsets_[i];
  }
  for (Tensor* grad : replica.extra_grads) grad->zero();

  float* stats = bn_stats_.data() +
                 static_cast<std::size_t>(shard) * 2 *
                     static_cast<std::size_t>(bn_channels_);
  for (std::size_t j = 0; j < replica.batchnorms.size(); ++j) {
    replica.batchnorms[j]->set_stat_capture(
        stats + bn_offsets_[j], stats + bn_channels_ + bn_offsets_[j]);
  }

  Tensor logits = replica.model->forward(images, /*training=*/true);
  const auto s = static_cast<std::size_t>(shard);
  shard_loss_[s] = replica.loss.forward(logits, replica.labels);
  shard_correct_[s] = count_correct(replica.loss.predictions(),
                                    replica.labels);
  shard_rows_[s] = rows;

  // The loss gradient is the mean over the SHARD; rescale to the shard's
  // share of the full-batch mean so summing shard gradients reproduces the
  // serial full-batch gradient. scale == 1.0f exactly for a one-shard grid,
  // where the multiply is skipped to keep bits identical to the serial
  // path.
  Tensor grad = replica.loss.backward();
  const float scale =
      static_cast<float>(rows) / static_cast<float>(batch_rows_);
  if (scale != 1.0f) {
    float* g = grad.data();
    const std::int64_t count = grad.numel();
    for (std::int64_t i = 0; i < count; ++i) g[i] *= scale;
  }
  replica.model->backward(grad);

  for (BatchNorm2d* bn : replica.batchnorms) {
    bn->set_stat_capture(nullptr, nullptr);
  }

  float* extra = span + weight_floats_;
  for (const Tensor* grad : replica.extra_grads) {
    std::memcpy(extra, grad->data(),
                static_cast<std::size_t>(grad->numel()) * sizeof(float));
    extra += grad->numel();
  }
}

void DataParallelTrainer::combine_and_step(
    Sgd& optimizer, const std::function<void()>& before_step,
    StepStats& stats) {
  ParameterArena& arena = primary_->arena();

  // Pairwise tree over the shard gradient spans; the tree shape depends
  // only on the shard count, and the pool is idle here, so the pooled
  // fixed-chunk-grid kernel is both fast and deterministic.
  const float* spans[kMaxReduceSpans];
  for (int s = 0; s < num_shards_; ++s) {
    spans[s] = shard_span(s);
  }
  tree_reduce_spans(spans, num_shards_, reduced_.data(), span_floats_,
                    default_kernel_exec());

  // The non-source gradients land in the (zeroed) arena; each source then
  // runs its one backward of the step on the reduced dW.
  const float* extra = reduced_.data() + weight_floats_;
  for (const std::size_t v : extra_views_) {
    const ParameterArena::View& view = arena.views()[v];
    std::memcpy(arena.grads() + view.offset, extra,
                static_cast<std::size_t>(view.count) * sizeof(float));
    extra += view.count;
  }
  const std::vector<QuantLayer>& layers = primary_->quant_layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i].source->backward(reduced_weight_grads_[i]);
  }

  // Replay captured batchnorm statistics in shard order on the primary, so
  // its running stats see exactly the serial update sequence (the replicas
  // never evaluate, so theirs are never read).
  const std::vector<BatchNorm2d*>& batchnorms = replicas_[0].batchnorms;
  for (int s = 0; s < num_shards_; ++s) {
    const float* stat_base = bn_stats_.data() +
                             static_cast<std::size_t>(s) * 2 *
                                 static_cast<std::size_t>(bn_channels_);
    for (std::size_t j = 0; j < batchnorms.size(); ++j) {
      batchnorms[j]->replay_batch_stats(
          stat_base + bn_offsets_[j],
          stat_base + bn_channels_ + bn_offsets_[j]);
    }
  }

  // Shard-ordered loss/accuracy combine (double accumulator, caller
  // thread): bit-identical at any worker count, and exact for one shard.
  double loss_sum = 0.0;
  int correct = 0;
  for (int s = 0; s < num_shards_; ++s) {
    const auto idx = static_cast<std::size_t>(s);
    loss_sum += static_cast<double>(shard_loss_[idx]) *
                static_cast<double>(shard_rows_[idx]);
    correct += shard_correct_[idx];
  }
  stats.loss = static_cast<float>(loss_sum / static_cast<double>(batch_rows_));
  stats.correct = correct;

  if (before_step) before_step();
  optimizer.step();
}

EpochStats train_one_epoch(DataParallelTrainer& trainer, Sgd& optimizer,
                           DataLoader& loader, const FitHooks& hooks) {
  Batch batch;
  double total_loss = 0.0;
  std::int64_t correct = 0;
  std::int64_t samples = 0;

  loader.start_epoch();
  while (loader.next(batch)) {
    const DataParallelTrainer::StepStats step =
        trainer.train_step(batch, optimizer, hooks.before_step);
    const auto batch_count = static_cast<std::int64_t>(batch.labels.size());
    total_loss += static_cast<double>(step.loss) * batch_count;
    correct += step.correct;
    samples += batch_count;
  }

  EpochStats stats;
  stats.loss = static_cast<float>(total_loss / static_cast<double>(samples));
  stats.accuracy =
      100.0f * static_cast<float>(correct) / static_cast<float>(samples);
  return stats;
}

FitResult fit(DataParallelTrainer& trainer, const InMemoryDataset& train,
              const InMemoryDataset& test, const TrainConfig& config,
              const FitHooks& hooks) {
  SgdConfig sgd_config;
  sgd_config.learning_rate = config.learning_rate;
  sgd_config.momentum = config.momentum;
  sgd_config.weight_decay = config.weight_decay;
  Sgd optimizer(trainer.primary().arena(), sgd_config);

  CosineSchedule schedule(config.learning_rate, config.epochs,
                          config.warmup_epochs, config.lr_min);
  DataLoader loader(train, config.batch_size, /*shuffle=*/true,
                    Rng(config.seed));

  FitResult result;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.set_learning_rate(schedule.at_epoch(epoch));
    if (hooks.on_epoch_begin) hooks.on_epoch_begin(epoch);

    const EpochStats stats = train_one_epoch(trainer, optimizer, loader, hooks);
    result.final_train_loss = stats.loss;
    result.final_train_accuracy = stats.accuracy;

    if (hooks.on_epoch_end) {
      hooks.on_epoch_end(epoch, stats.loss, stats.accuracy);
    }
    if (config.verbose) {
      log_info() << "epoch " << epoch + 1 << "/" << config.epochs
                 << " lr=" << optimizer.learning_rate()
                 << " loss=" << stats.loss << " acc=" << stats.accuracy
                 << "% (dp x" << trainer.workers() << ")";
    }
  }
  result.test_accuracy =
      evaluate_accuracy(trainer.primary(), test, config.batch_size);
  return result;
}

}  // namespace csq
