// Workload `train`: the paper's joint phase (Algorithm 1) on ResNet-20,
// width 16, over synthetic cifar_like 16x16 data generated from the seed,
// batch 64. Each step is DataLoader::next, then
// DataParallelTrainer::train_step on 2 workers with
// apply_budget_regularizer (target 3 bits) as before_step; set_beta follows
// the exponential temperature schedule once per epoch. A run takes a fixed
// number of steps.
//
// Why this workload: nearly all of its time goes to CSQ bit-plane
// materialization, float GEMM/im2col, nn backward and the opt tree reduction
// and SGD. runtime and serve do nothing here, so it is the bypass case for
// every serving change and the only workload that exercises training.
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>

#include "common.h"
#include "core/budget.h"
#include "core/csq_weight.h"
#include "core/gate.h"
#include "data/dataloader.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "nn/softmax_ce.h"
#include "opt/data_parallel.h"
#include "tensor/gemm.h"
#include "tensor/init.h"
#include "tensor/quant_kernels.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace csq;

constexpr std::int64_t kSide = 16;
constexpr std::int64_t kWidth = 16;
constexpr std::int64_t kBatch = 64;
constexpr std::int64_t kBatchesPerEpoch = 12;
constexpr int kWorkers = 2;
constexpr double kLambda = 0.01;
constexpr double kTargetBits = 3.0;
constexpr float kBeta0 = 1.0f;
constexpr float kBetaMax = 200.0f;
constexpr int kSetupRepeats = 9;
constexpr int kReplayRepeats = 5;
// Timed steps per --seconds, sized so the 2-worker loop runs about that
// long on a 4-vCPU x86-64 host. The count depends only on --seconds, so
// every run of one configuration does the same work.
constexpr double kStepsPerSecond = 2.8;

Model build_model(std::uint64_t seed, std::vector<CsqWeightSource*>* sources) {
  Rng rng(seed);
  ModelConfig config;
  config.base_width = kWidth;
  return make_resnet20(config, csq_weight_factory(sources), nullptr, rng);
}

// One training job: primary model, its data-parallel replicas, the
// optimizer and a loader. Two jobs built from the same seeds take the same
// steps, whatever their worker counts.
class Job {
 public:
  Job(const InMemoryDataset& data, std::uint64_t model_seed,
      std::uint64_t loader_seed, int workers, int epochs)
      : model_(std::make_unique<Model>(
            build_model(model_seed, &primary_sources_))),
        loader_(data, kBatch, /*shuffle=*/true, Rng(loader_seed)),
        schedule_(kBeta0, kBetaMax, epochs) {
    DataParallelConfig config;
    config.workers = workers;
    trainer_ = std::make_unique<DataParallelTrainer>(
        *model_,
        [model_seed] {
          std::vector<CsqWeightSource*> unused;
          return build_model(model_seed, &unused);
        },
        config);
    all_sources_ = primary_sources_;
    trainer_->for_each_replica([this](Model& replica) {
      for (const QuantLayer& layer : replica.quant_layers()) {
        all_sources_.push_back(dynamic_cast<CsqWeightSource*>(layer.source));
      }
    });
    SgdConfig sgd;
    sgd.learning_rate = 0.05f;
    sgd.momentum = 0.9f;
    sgd.weight_decay = 5e-4f;
    optimizer_ = std::make_unique<Sgd>(model_->arena(), sgd);
    before_step_ = [this] {
      ScopedSpan span("core.budget");
      apply_budget_regularizer(primary_sources_, kLambda, kTargetBits);
    };
    loader_.start_epoch();
    set_beta(schedule_.at_epoch(0));
  }

  // One optimizer step; returns the batch loss.
  float step() {
    bool have_batch = false;
    {
      ScopedSpan span("data.next");
      have_batch = loader_.next(batch_);
    }
    if (!have_batch) {
      ++epoch_;
      {
        ScopedSpan span("core.set_beta");
        set_beta(schedule_.at_epoch(epoch_));
      }
      loader_.start_epoch();
      ScopedSpan span("data.next");
      loader_.next(batch_);
    }
    ScopedSpan span("opt.train_step");
    return trainer_->train_step(batch_, *optimizer_, before_step_).loss;
  }

  Model& model() { return *model_; }
  Sgd& optimizer() { return *optimizer_; }
  const Batch& last_batch() const { return batch_; }
  const std::vector<CsqWeightSource*>& sources() const {
    return primary_sources_;
  }

 private:
  void set_beta(float beta) {
    for (CsqWeightSource* source : all_sources_) source->set_beta(beta);
  }

  std::vector<CsqWeightSource*> primary_sources_;
  std::vector<CsqWeightSource*> all_sources_;  // primary + replicas
  std::unique_ptr<Model> model_;
  std::unique_ptr<DataParallelTrainer> trainer_;
  std::unique_ptr<Sgd> optimizer_;
  DataLoader loader_;
  TemperatureSchedule schedule_;
  std::function<void()> before_step_;
  Batch batch_;
  int epoch_ = 0;
};

// Runs `steps` steps, recording each step's wall time (ms).
void run_steps(Job& job, int steps, Report& report,
               std::vector<double>& step_ms) {
  for (int i = 0; i < steps; ++i) {
    const auto start = Clock::now();
    const float loss = job.step();
    step_ms.push_back(seconds_since(start) * 1e3);
    report.attempt();
    if (!std::isfinite(loss)) report.fail("train step loss is not finite");
  }
}

struct ShardReplay {
  double forward_ms = 0.0;
  double backward_ms = 0.0;
};

// nn forward and backward per micro-batch in a serial replay of one step:
// the last batch cut into the trainer's default shard grid, each shard run
// as a worker runs it: serial kernels, and a forward that materializes the
// weights because the previous shard's backward consumed the gate cache.
ShardReplay replay_shards(Model& model, const Batch& batch) {
  const std::int64_t micro = kBatch / kDefaultTrainShards;
  const std::int64_t sample = batch.images.numel() / kBatch;
  SoftmaxCrossEntropy loss;
  std::vector<double> forward, backward;
  model.zero_grad();
  for (int r = 0; r <= kReplayRepeats; ++r) {
    for (int s = 0; s < kDefaultTrainShards; ++s) {
      Tensor images({micro, 3, kSide, kSide});
      std::memcpy(images.data(), batch.images.data() + s * micro * sample,
                  static_cast<std::size_t>(micro * sample) * sizeof(float));
      const std::vector<int> labels(batch.labels.begin() + s * micro,
                                    batch.labels.begin() + (s + 1) * micro);
      const auto start = Clock::now();
      Tensor logits = model.forward(images, /*training=*/true);
      const double forward_ms = seconds_since(start) * 1e3;
      loss.forward(logits, labels);
      Tensor grad = loss.backward();
      const auto back_start = Clock::now();
      model.backward(grad);
      const double backward_ms = seconds_since(back_start) * 1e3;
      // Round 0 warms the workspaces.
      if (r > 0) {
        forward.push_back(forward_ms);
        backward.push_back(backward_ms);
      }
    }
  }
  return {median(forward), median(backward)};
}

struct GemmReplay {
  double ms = 0.0;
  double gflops = 0.0;
  double im2col_ms = 0.0;
};

// The model's float GEMM shapes for one micro-batch, replayed through the
// serial `gemm` a shard worker runs: per conv and sample the forward NN,
// input-gradient TN and weight-gradient NT products, and the Linear head's
// three. Op counts are 2*m*n*k per product. im2col is replayed on the same
// geometries.
GemmReplay replay_float_gemms(const std::vector<LayerShape>& shapes,
                              Rng& rng) {
  const std::int64_t micro = kBatch / kDefaultTrainShards;
  struct Operands {
    std::vector<float> a, b, c, g, gi, gw;
  };
  std::vector<Operands> operands(shapes.size());
  std::vector<std::vector<float>> images(shapes.size());
  double ops = 0.0;
  const auto fill = [&rng](std::vector<float>& v, std::int64_t n) {
    v.resize(static_cast<std::size_t>(n));
    for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const LayerShape& s = shapes[i];
    Operands& o = operands[i];
    if (s.conv) {
      const std::int64_t m = s.out_features, k = s.geometry.col_rows(),
                         n = s.geometry.col_cols();
      fill(o.a, m * k);
      fill(o.b, k * n);
      fill(o.g, m * n);
      o.c.resize(static_cast<std::size_t>(m * n));
      o.gi.resize(static_cast<std::size_t>(k * n));
      o.gw.assign(static_cast<std::size_t>(m * k), 0.0f);
      fill(images[i], s.geometry.channels * s.geometry.height *
                          s.geometry.width);
      ops += 3.0 * 2.0 * static_cast<double>(m * n * k * micro);
    } else {
      const std::int64_t out = s.out_features, in = s.in_features;
      fill(o.a, out * in);
      fill(o.b, micro * in);
      fill(o.g, micro * out);
      o.c.resize(static_cast<std::size_t>(micro * out));
      o.gi.resize(static_cast<std::size_t>(micro * in));
      o.gw.assign(static_cast<std::size_t>(out * in), 0.0f);
      ops += 3.0 * 2.0 * static_cast<double>(micro * out * in);
    }
  }

  GemmReplay result;
  const double gemm_ms = median_ms(kReplayRepeats, [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const LayerShape& s = shapes[i];
      Operands& o = operands[i];
      if (s.conv) {
        const std::int64_t m = s.out_features, k = s.geometry.col_rows(),
                           n = s.geometry.col_cols();
        for (std::int64_t b = 0; b < micro; ++b) {
          gemm(Trans::no, Trans::no, m, n, k, 1.0f, o.a.data(), k,
               o.b.data(), n, 0.0f, o.c.data(), n);
          gemm(Trans::yes, Trans::no, k, n, m, 1.0f, o.a.data(), k,
               o.g.data(), n, 0.0f, o.gi.data(), n);
          gemm(Trans::no, Trans::yes, m, k, n, 1.0f, o.g.data(), n,
               o.b.data(), n, 1.0f, o.gw.data(), k);
        }
      } else {
        const std::int64_t out = s.out_features, in = s.in_features;
        gemm(Trans::no, Trans::yes, micro, out, in, 1.0f, o.b.data(), in,
             o.a.data(), in, 0.0f, o.c.data(), out);
        gemm(Trans::no, Trans::no, micro, in, out, 1.0f, o.g.data(), out,
             o.a.data(), in, 0.0f, o.gi.data(), in);
        gemm(Trans::yes, Trans::no, out, in, micro, 1.0f, o.g.data(), out,
             o.b.data(), in, 1.0f, o.gw.data(), in);
      }
    }
  });
  result.ms = gemm_ms;
  result.gflops = ops / (gemm_ms * 1e6);
  result.im2col_ms = median_ms(kReplayRepeats, [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (!shapes[i].conv) continue;
      for (std::int64_t b = 0; b < micro; ++b) {
        im2col(shapes[i].geometry, images[i].data(), operands[i].b.data());
      }
    }
  });
  return result;
}

}  // namespace

void run_train(const Options& options, Report& report) {
  const int steps = std::max(
      4, static_cast<int>(std::lround(options.seconds * kStepsPerSecond)));
  // Every input derives from the seed: the dataset, the model's initial
  // weights and the loader's shuffle order.
  SyntheticConfig data_config = SyntheticConfig::cifar_like();
  data_config.seed = options.seed * 7919 + 1;
  data_config.train_samples = kBatch * kBatchesPerEpoch;
  data_config.test_samples = kBatch;
  const SyntheticDataset data = make_synthetic(data_config);
  const std::uint64_t model_seed = options.seed * 7919 + 2;
  const std::uint64_t loader_seed = options.seed * 7919 + 3;
  // The schedule spans the longest run (setup step + two phases when
  // traced), so traced and untraced runs anneal alike.
  const int epochs = static_cast<int>((1 + 2 * steps) / kBatchesPerEpoch) + 2;

  // Set-up: model and replica construction plus the first step, which
  // grows every workspace. Repeated; the median is reported.
  std::vector<double> setup_s;
  std::unique_ptr<Job> job;
  std::vector<double> scratch_ms;
  const int setup_repeats = options.layers_only ? 1 : kSetupRepeats;
  for (int r = 0; r < setup_repeats; ++r) {
    job.reset();
    const auto start = Clock::now();
    job = std::make_unique<Job>(data.train, model_seed, loader_seed, kWorkers,
                                epochs);
    run_steps(*job, 1, report, scratch_ms);
    setup_s.push_back(seconds_since(start));
  }

  std::vector<double> step_ms;
  report.begin_timed();
  const auto timed_start = Clock::now();
  run_steps(*job, steps, report, step_ms);
  const double timed_s = seconds_since(timed_start);
  report.end_timed();
  const double rss_mib = peak_rss_mib();
  const double samples_per_s = kBatch / (median(step_ms) * 1e-3);
  {
    std::ostringstream line;
    line << "train_samples_per_s " << samples_per_s << "\ntrain steps "
         << steps << " wall_s " << timed_s
         << " mean_samples_per_s " << kBatch * steps / timed_s
         << " step_ms p10 " << percentile(step_ms, 10) << " p25 "
         << percentile(step_ms, 25) << " p50 "
         << percentile(step_ms, 50) << " p90 " << percentile(step_ms, 90);
    report.note(line.str());
  }

  // Determinism contract: the 2-worker result must be bit-identical to a
  // 1-worker run of the same steps. The reference runs outside the timed
  // region.
  const ParameterArena& arena = job->model().arena();
  const std::vector<float> trained(arena.values(),
                                   arena.values() + arena.size());

  double step_traced_ms = 0.0, budget_ms = 0.0;
  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mib", rss_mib, "MiB");
    // The gated operation time is the lower quartile of the step times,
    // as on the other workloads.
    report.add("op_p25_us", percentile(step_ms, 25) * 1e3, "us");
  } else {
    Tracer& tracer = Tracer::instance();
    tracer.set_enabled(true);
    std::vector<double> traced_ms;
    run_steps(*job, steps, report, traced_ms);
    tracer.set_enabled(false);
    step_traced_ms = median(tracer.durations_ms("opt.train_step"));
    budget_ms = median(tracer.durations_ms("core.budget"));
    if (!options.layers_only) {
      report.add("trace.overhead_pct",
                 100.0 * (median(traced_ms) / median(step_ms) - 1.0), "%");
    }
    report.add("opt.step_ms", step_traced_ms, "ms");
    report.add("data.batch_ms", median(tracer.durations_ms("data.next")),
               "ms");
    report.add("core.budget_ms", budget_ms, "ms");
  }

  Job reference(data.train, model_seed, loader_seed, /*workers=*/1, epochs);
  std::vector<double> reference_ms;
  run_steps(reference, 1 + steps, report, reference_ms);
  const ParameterArena& reference_arena = reference.model().arena();
  report.attempt();
  if (reference_arena.size() != arena.size() ||
      std::memcmp(reference_arena.values(), trained.data(),
                  trained.size() * sizeof(float)) != 0) {
    report.fail("2-worker parameters differ from the 1-worker run");
  }
  if (!options.trace) return;

  // ---- per-layer replays on the trained primary -------------------------
  Model& model = job->model();
  Rng rng(options.seed * 7919 + 4);
  const double dp_efficiency =
      median(reference_ms) / (kWorkers * median(step_ms));
  report.add("opt.dp_efficiency", dp_efficiency, "ratio");

  double materialize_ms = 0.0, weight_backward_ms = 0.0;
  ShardReplay shards;
  GemmReplay gemms;
  {
    // Shard work runs on trainer workers under this guard.
    SerialExecutionGuard guard;
    const std::vector<CsqWeightSource*>& sources = job->sources();
    std::vector<Tensor> weight_grads;
    for (CsqWeightSource* source : sources) {
      weight_grads.emplace_back(source->weight_shape());
      fill_uniform(weight_grads.back(), -1e-3f, 1e-3f, rng);
    }
    std::vector<double> materialize, backward;
    for (int r = 0; r <= kReplayRepeats; ++r) {
      double m_ms = 0.0, b_ms = 0.0;
      for (std::size_t i = 0; i < sources.size(); ++i) {
        // backward() consumes the gate cache, so every weight(true) here
        // materializes, as each shard's forward does in a real step.
        auto start = Clock::now();
        sources[i]->weight(true);
        m_ms += seconds_since(start) * 1e3;
        start = Clock::now();
        sources[i]->backward(weight_grads[i]);
        b_ms += seconds_since(start) * 1e3;
      }
      if (r > 0) {
        materialize.push_back(m_ms);
        backward.push_back(b_ms);
      }
    }
    materialize_ms = median(materialize);
    weight_backward_ms = median(backward);
    shards = replay_shards(model, job->last_batch());
    gemms = replay_float_gemms(resnet_layer_shapes(model, kSide, kWidth), rng);
  }
  report.add("core.materialize_ms", materialize_ms, "ms");
  report.add("core.weight_backward_ms", weight_backward_ms, "ms");
  report.add("nn.forward_ms", shards.forward_ms, "ms");
  report.add("nn.backward_ms", shards.backward_ms, "ms");
  report.add("tensor.gemm_f32_ms", gemms.ms, "ms");
  report.add("tensor.gemm_f32_gflops", gemms.gflops, "GFLOP/s");
  report.add("tensor.im2col_ms", gemms.im2col_ms, "ms");

  const double sgd_ms =
      median_ms(kReplayRepeats, [&] { job->optimizer().step(); });
  report.add("opt.sgd_ms", sgd_ms, "ms");

  const std::int64_t count = arena.size();
  std::vector<std::vector<float>> shard_grads(kDefaultTrainShards);
  std::vector<const float*> spans;
  for (std::vector<float>& grad : shard_grads) {
    grad.resize(static_cast<std::size_t>(count));
    for (float& x : grad) x = rng.uniform(-1.0f, 1.0f);
    spans.push_back(grad.data());
  }
  std::vector<float> combined(static_cast<std::size_t>(count));
  const double reduce_ms = median_ms(kReplayRepeats, [&] {
    tree_reduce_spans(spans.data(), kDefaultTrainShards, combined.data(),
                      count, default_kernel_exec());
  });
  report.add("opt.reduce_ms", reduce_ms, "ms");

  // Reconciliation: the step as the replayed phases predict it. Shard work
  // (forward + backward per micro-batch; each shard's forward materializes
  // its weights) spreads over the workers at the measured efficiency; the
  // reduction, budget regularizer and SGD run on the calling thread.
  const double modeled_ms =
      kDefaultTrainShards * (shards.forward_ms + shards.backward_ms) /
          (kWorkers * dp_efficiency) +
      reduce_ms + budget_ms + sgd_ms;
  report.add("opt.step_residual_share",
             (step_traced_ms - modeled_ms) / step_traced_ms, "ratio");
}

}  // namespace perfbench
