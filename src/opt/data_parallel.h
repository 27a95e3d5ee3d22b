// Deterministic data-parallel training over model replicas.
//
// One optimizer step processes a batch as a FIXED grid of micro-batch
// shards. Before any shard runs, the primary model materializes every
// weight source once (weight(true), pooled over the fixed quant chunk
// grid). Each shard then runs a full forward/backward on one replica whose
// sources are bound (WeightSource::binding) to those shared weights: its
// Conv2d/Linear layers read them read-only and write dL/dW into the
// shard's gradient span, which holds one float per weight followed by the
// gradients of the parameters no source owns (batchnorm, biases). The
// spans are combined by a chunk-ordered pairwise tree reduction
// (tensor/quant_kernels.h tree_reduce_spans), the primary runs each
// source's backward once on its reduced dW slice, and the optimizer steps
// the primary.
//
// Replicas share the primary's parameters and keep their own gradients
// (the uchen ParameterGradients shape, SNIPPETS.md). Every replica
// Parameter::value is a view (Tensor::borrow) of the primary's arena, so
// each optimizer step reaches the replicas with no copy. A replica owns
// gradient storage only for the parameters no source owns (batchnorm,
// biases), which its backward writes per shard; its sources are never
// called, so their parameters have none.
//
// A source's backward is J(theta)^T g with J fixed within a step, so
// backward of the summed dW equals the sum of per-shard backwards up to
// float rounding. Families whose backward adds dW into zeroed gradients
// (dense, STE-Uniform, LQ-Nets) give the same bits as summing per-shard
// backwards with the same tree.
//
// Determinism contract: the numerical result of a step depends only on the
// batch and the shard grid, NOT on the worker count.
//   1. The shard grid is fixed by the micro-batch size alone (worker count
//      never enters the partition), so every worker count sees the same
//      per-shard forward/backward problems against the same materialized
//      weights.
//   2. Each shard's kernels run serially on its worker thread
//      (util/thread_pool.h SerialExecutionGuard), and the materialization,
//      reduction and source backward walk fixed chunk grids, so every value
//      is bit-identical regardless of which thread computed it.
//   3. Gradient spans combine by a pairwise tree whose shape depends only
//      on the shard count, BatchNorm running statistics are captured per
//      shard and replayed in shard order on the primary (nn/batchnorm.h),
//      and the per-shard losses combine in shard order on the calling
//      thread.
// Only the primary holds quantizer state (temperature, frozen masks, the
// LQ-Nets basis), and it advances exactly as in a serial step: one
// training materialization and one backward per step. Hence workers=1 and
// workers=8 produce byte-identical models, and the degenerate single-shard
// grid (micro_batch >= batch size) is bit-identical to the classic serial
// train_one_epoch step. The replica factory only has to rebuild the same
// architecture (same builder); its quantizer state is never read.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "nn/batchnorm.h"
#include "nn/model.h"
#include "nn/softmax_ce.h"
#include "opt/sgd.h"
#include "opt/trainer.h"

namespace csq {

struct DataParallelConfig {
  // Worker threads (including the calling thread). workers - 1 replicas are
  // built from the factory; worker w drives replica w, shard s runs on
  // replica s % workers.
  int workers = 1;
  // Micro-batch rows per shard. 0 selects ceil(B / kDefaultTrainShards) per
  // batch, giving at most kDefaultTrainShards shards. The resulting shard
  // count must not exceed kMaxReduceSpans (tensor/quant_kernels.h).
  std::int64_t micro_batch = 0;
};

// Default shard-grid size when micro_batch is left at 0: enough shards to
// feed 8 workers, few enough that tiny CIFAR batches keep useful shard
// sizes.
inline constexpr int kDefaultTrainShards = 8;

class DataParallelTrainer {
 public:
  using ModelFactory = std::function<Model()>;

  // `primary` is replica 0 and the model the optimizer steps; it must
  // outlive the trainer. `replica_factory` is invoked workers - 1 times and
  // must rebuild the primary's architecture (same builder): the same
  // parameter count and shapes in registration order, and the same
  // quant-layer weight shapes, all checked. It must return models whose
  // arena was never bound. Binds the primary's arena, then rebinds every
  // replica parameter value to it and frees the factory-built storage this
  // displaces.
  DataParallelTrainer(Model& primary, const ModelFactory& replica_factory,
                      const DataParallelConfig& config);
  ~DataParallelTrainer();

  DataParallelTrainer(const DataParallelTrainer&) = delete;
  DataParallelTrainer& operator=(const DataParallelTrainer&) = delete;

  struct StepStats {
    float loss = 0.0f;  // batch mean loss (shard-weighted)
    int correct = 0;    // top-1 matches in the batch
  };

  // One optimizer step over `batch`: materialize the primary's weights,
  // forward/backward per shard, tree-reduce the gradient spans, run each
  // source's backward once into the primary arena, run `before_step`
  // (budget regularizers), step the optimizer. The replicas see the new
  // values through their borrowed views.
  // `optimizer` must be the arena-backed Sgd over primary().arena().
  StepStats train_step(const Batch& batch, Sgd& optimizer,
                       const std::function<void()>& before_step = {});

  Model& primary() { return *primary_; }
  int workers() const { return workers_; }

  // Visits the worker replicas (NOT the primary). The step reads no replica
  // quantizer state, so nothing needs mirroring to them; this remains only
  // because perfbench's train workload calls it. A replica's parameter
  // values are views of the primary's arena: `fn` must not write them, and
  // must not bind the replica's arena.
  void for_each_replica(const std::function<void(Model&)>& fn);

 private:
  struct Replica {
    Model* model = nullptr;  // replicas_[0] aliases the primary
    SoftmaxCrossEntropy loss;
    std::vector<int> labels;                  // shard label scratch
    std::vector<std::int64_t> shard_shape;    // {b, C, H, W} scratch
    std::vector<BatchNorm2d*> batchnorms;     // depth-first module order
    // Gradients of the parameters no source owns, extra_views_ order: the
    // primary's arena views, a replica's own storage.
    std::vector<Tensor*> extra_grads;
  };

  void worker_loop(int w);
  // Runs every shard assigned to worker w under a SerialExecutionGuard.
  void run_worker(int w);
  void run_shard(Replica& replica, int shard);
  // Grow-once sizing of the per-shard buffers for the current step.
  void prepare_step(const Batch& batch);
  void combine_and_step(Sgd& optimizer,
                        const std::function<void()>& before_step,
                        StepStats& stats);
  float* shard_span(int shard) {
    return shard_spans_.data() + static_cast<std::size_t>(shard) *
                                     static_cast<std::size_t>(span_floats_);
  }

  Model* primary_ = nullptr;
  int workers_ = 1;
  std::int64_t micro_batch_config_ = 0;

  // workers_ - 1 factory-built models whose parameter values borrow the
  // primary's arena.
  std::vector<Model> owned_replicas_;
  std::vector<Replica> replicas_;      // size workers_; [0] is the primary

  // BatchNorm bookkeeping shared by all replicas (layouts are identical):
  // channel offset of each batchnorm in a per-shard stat span.
  std::vector<std::int64_t> bn_offsets_;
  std::int64_t bn_channels_ = 0;

  // Gradient span layout shared by all replicas: quant layer i's dW at
  // weight_offsets_[i], then the arena views no source owns (extra_views_,
  // arena order) packed from weight_floats_ on.
  std::vector<std::int64_t> weight_offsets_;
  std::int64_t weight_floats_ = 0;
  std::vector<std::size_t> extra_views_;
  std::int64_t span_floats_ = 0;
  // The primary's materialized weights for the current step, quant-layer
  // order.
  std::vector<const float*> step_weights_;
  // Tree-reduced span and its per-layer dW views (fixed size; built once).
  std::vector<float> reduced_;
  std::vector<Tensor> reduced_weight_grads_;

  // Per-step shard state (grow-once; steady state allocates nothing).
  const Batch* step_batch_ = nullptr;
  std::int64_t batch_rows_ = 0;
  std::int64_t sample_numel_ = 0;  // C*H*W of the current batch
  std::int64_t micro_batch_ = 0;
  int num_shards_ = 0;
  std::vector<float> shard_spans_;  // [shard][span_floats_]
  std::vector<float> bn_stats_;  // [shard][mean span | var span]
  std::vector<float> shard_loss_;
  std::vector<int> shard_correct_;
  std::vector<std::int64_t> shard_rows_;

  // Worker rendezvous: generation counter + countdown, one exception slot
  // per worker (first error wins at the barrier).
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
  std::vector<std::exception_ptr> errors_;
};

// Data-parallel counterparts of the serial loops in opt/trainer.h. The
// optimizer must be arena-backed over trainer.primary().arena(); evaluation
// runs on the primary.
EpochStats train_one_epoch(DataParallelTrainer& trainer, Sgd& optimizer,
                           DataLoader& loader, const FitHooks& hooks);

FitResult fit(DataParallelTrainer& trainer, const InMemoryDataset& train,
              const InMemoryDataset& test, const TrainConfig& config,
              const FitHooks& hooks = {});

}  // namespace csq
