// Integer inference runtime: lowering a finalized float Model into an
// int8 compiled graph with a serving-grade batched forward.
//
// `lower(model, options)` walks the module tree through the nn lowering seam
// (nn/lowering.h) and emits a flat list of integer ops over typed edges:
//
//   * Conv2d           -> int8 weight-code convolutions (gemm_conv_nhwc,
//                         runtime/packed_weights.h) with int32
//                         accumulation into an i32 edge;
//   * BatchNorm2d      -> folded into the consuming requantization's
//                         per-channel scale/bias (running statistics — the
//                         eval-mode semantics);
//   * ReLU             -> fused into the requantization clamp;
//   * activation       -> uint8 codes with a per-edge scale; act-quant
//     flow                modules pin their edge's scale (clip / levels),
//                         remaining edges take calibrated ranges;
//   * residual joins   -> integer re-scaled adds inside the requantization;
//   * max pooling      -> order-preserving max over the uint8 codes
//     (independent stride/padding; padded taps are skipped, the implicit
//     -inf);
//   * GlobalAvgPool    -> integer rounded mean over each channel's codes;
//   * Linear head      -> required: the convolution whose kernel covers its
//                         whole input edge, then the graph's float logits;
//                         a model without one is rejected when the graph
//                         is built.
//
// Execution: `forward` runs the integer path — quantize input once, then
// uint8 activation codes, int32 accumulators and one fused scale/clamp pass
// per layer. Activations are channels-last (NHWC) with a border of the
// edge's zero point as wide as the widest pad of the convolutions reading
// them, so every convolution reads its input in place (gemm_conv_nhwc) and
// every requantization writes its codes straight into the interior of the
// next one's padded input. Every activation buffer and scratch buffer is
// drawn from a grow-once Workspace, so a steady-state batched forward
// performs ZERO heap allocations (asserted by the operator-new counter
// tests). Serial and pooled execution are bit-identical (integer
// arithmetic).
//
// Calibration: `calibrate` runs the float reference walk of the same
// lowered ops (dequantized weights, folded BN) recording per-edge activation
// ranges; edges without an act-quant-pinned scale take range / levels. The
// input edge is affine (scale + zero point) since images are signed;
// interior edges are post-ReLU and unsigned.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/model.h"
#include "runtime/graph_program.h"
#include "tensor/tensor.h"

namespace csq {
namespace runtime {

class PackedIntWeights;  // runtime/packed_weights.h

struct LowerOptions {
  // Per-sample input extents (the module tree is shape-polymorphic; the
  // compiled graph is not).
  std::int64_t in_channels = 3;
  std::int64_t in_height = 32;
  std::int64_t in_width = 32;
  // Activation code width; codes are stored in uint8, so at most 8.
  int act_bits = 8;
  // Thread-pool execution (flippable later via set_pooled).
  bool pooled = true;
  // Liveness-colored buffer planning: edges share workspace slots once
  // their last consumer has run (interval coloring over the topological op
  // order), shrinking the steady-state footprint to the peak live set.
  // Planned and unplanned graphs are bit-identical; OFF keeps the
  // one-dedicated-slot-per-edge policy (the memory-regression baseline).
  bool plan_buffers = true;
};

// Per-edge activation-quantization state, snapshotted by edge_scales() and
// re-installed by restore_edge_scales() — the calibration half of a
// persisted graph artifact (the topology half is the GraphProgram).
struct EdgeScaleRecord {
  bool is_acc = false;  // integrity marker; i32 edges carry no scale
  float scale = 0.0f;
  float levels = 0.0f;
  std::int32_t zero_point = 0;
};

class CompiledGraph {
 public:
  CompiledGraph(CompiledGraph&&) noexcept;
  CompiledGraph& operator=(CompiledGraph&&) noexcept;
  ~CompiledGraph();

  // Integer forward: float images (B, C, H, W) -> float logits. Requires
  // every edge scale to be resolved (calibrate() or act-quant everywhere
  // plus a calibrated input edge — in practice: call calibrate first).
  Tensor forward(const Tensor& input);

  // Float walk of the SAME lowered ops (dequantized weights, folded BN,
  // fused ReLU) with no activation quantization: the reference the parity
  // tests compare against.
  Tensor forward_reference(const Tensor& input);

  // Records activation ranges from a float reference walk and resolves the
  // scale of every non-pinned edge. Multiple calls accumulate ranges.
  void calibrate(const Tensor& batch);

  // Grows every activation buffer for batches up to `batch`. STEADY-STATE
  // forwards at or below that size perform zero heap allocations; the first
  // forward may still allocate the logits tensor's pooled storage, so
  // latency-critical deployments should warm with one real forward (the
  // allocation-regression test measures after exactly that warmup).
  // forward() prepares on demand, so this is an optional hook.
  void prepare(std::int64_t batch);

  // Switches the execution mode; options() keeps the construction-time
  // value. Pooled and serial forwards are bit-identical.
  void set_pooled(bool pooled);

  // Growth events of the activation/scratch workspace (flat in steady
  // state; the allocation regression tests assert on it).
  std::uint64_t buffer_growth_count() const;

  // Bytes of activation/scratch workspace currently retained — the
  // per-replica serving footprint (weights excluded). Grows with
  // prepare(batch); call prepare first to measure a deployment's
  // steady-state footprint. With plan_buffers (the default) this is the
  // liveness-colored peak live set, strictly below the one-slot-per-edge
  // baseline on any multi-layer graph.
  std::int64_t workspace_bytes() const;

  // ---- introspection ----------------------------------------------------
  struct LayerInfo {
    std::string name;
    int bits = 0;              // scheme bits from the search assignment
    bool split = false;        // full-span layer stored as two int8 planes
    std::int64_t weight_count = 0;
    std::int64_t storage_bits = 0;
    std::string kernel;        // selected kernel kind (weight_kernel_name)
  };
  const std::vector<LayerInfo>& layers() const;
  std::int64_t weight_storage_bits() const;

  // Bit-exact reconstruction of a lowered layer's weights from its packed
  // int8 codes (flat tensor, row-major (out, in) / (oc, ic*kh*kw)).
  Tensor dequantized_weights(const std::string& layer_name) const;

  // The packed weights of every lowered conv/linear layer, in lowering
  // order (parallel to layers()).
  const std::vector<const PackedIntWeights*>& layer_weight_views() const;

  // ---- artifact / replication seam ---------------------------------------

  // Compiled per-sample input extents and logit width — what a server needs
  // to size request buffers without consulting the float model.
  struct IoShape {
    std::int64_t channels = 0;
    std::int64_t height = 0;
    std::int64_t width = 0;
    std::int64_t out_features = 0;
  };
  IoShape io_shape() const;

  const LowerOptions& options() const;

  // The recorded lowering program this graph was built from (weight codes +
  // topology). save_graph persists it; build_graph replays it.
  const GraphProgram& program() const;

  // The same program as a shared handle — replicate() hands every replica
  // this one immutable object, and the serving layer's quarantine-restore
  // path rebuilds a dead replica from it (rebuild_replica below) without
  // deep-copying the codes.
  std::shared_ptr<const GraphProgram> shared_program() const;

  // Snapshot of every edge's resolved quantization state (the Linear
  // head's accumulators, the last edge, have none). Finalizes scales
  // first, so the graph must be calibrated (or act-quant-pinned everywhere
  // with a calibrated input edge); throws otherwise.
  std::vector<EdgeScaleRecord> edge_scales();

  // Installs a snapshot taken from an identically-programmed graph and
  // resolves the requantization constants — after this the graph serves
  // without any calibration pass. Throws on edge-count/type mismatch.
  void restore_edge_scales(const std::vector<EdgeScaleRecord>& records);

  struct Impl;

 private:
  friend CompiledGraph build_graph(GraphProgram program,
                                   const LowerOptions& options);
  friend CompiledGraph replicate(CompiledGraph& graph);
  friend CompiledGraph rebuild_replica(
      std::shared_ptr<const GraphProgram> program, const LowerOptions& options,
      const std::vector<EdgeScaleRecord>& records);
  CompiledGraph();
  std::unique_ptr<Impl> impl_;
};

// Lowers a finalized model: record_program + build_graph. Every quantizable
// layer must answer WeightSource::has_finalized_codes() (finalized CSQ,
// BSQ, STE-Uniform...); throws with the offending layer's name otherwise.
CompiledGraph lower(Model& model, const LowerOptions& options = {});

// Replays a recorded lowering program into a graph — the data-only path:
// no Model is required, so a persisted artifact (runtime/graph_artifact.h)
// lowers with the float model absent from memory. Replay is deterministic;
// two graphs built from the same program run bit-identical forwards once
// they carry the same edge scales.
CompiledGraph build_graph(GraphProgram program,
                          const LowerOptions& options = {});

// Deep copy of a calibrated graph (program replay + edge-scale snapshot):
// the per-worker replicas of the serving layer. Forwards are bit-identical
// to the source graph's.
CompiledGraph replicate(CompiledGraph& graph);

// Rebuilds a replica from a shared immutable program + edge-scale snapshot
// — replicate() without a live source graph. The serving layer's
// quarantine-recovery path uses this to restore a dead replica from the
// shard's shared program; the rebuilt graph shares `program` (no deep copy
// of the codes) and its forwards are bit-identical to every sibling built
// from the same program and records. The program's conv/linear kernel
// selections must already be resolved (true for any program taken from a
// built graph).
CompiledGraph rebuild_replica(std::shared_ptr<const GraphProgram> program,
                              const LowerOptions& options,
                              const std::vector<EdgeScaleRecord>& records);

// TEST ONLY: while alive, every integer convolution first checks, for each
// sample, that the border of the activation edge it reads holds the edge's
// zero point. The planner shares byte slots between edges, so a producer
// that skipped a border write would leave another edge's codes there.
// Nothing else reaches it; when none is alive a forward pays one relaxed
// atomic load per convolution and sample.
class ScopedBorderAuditForTest {
 public:
  ScopedBorderAuditForTest();
  ~ScopedBorderAuditForTest();
  ScopedBorderAuditForTest(const ScopedBorderAuditForTest&) = delete;
  ScopedBorderAuditForTest& operator=(const ScopedBorderAuditForTest&) =
      delete;

  // Samples checked, and those with a border byte off the zero point.
  std::atomic<std::int64_t> checked{0};
  std::atomic<std::int64_t> faulted{0};
};

// Top-1 accuracy (percent) of the integer graph on a dataset — the
// integer-path counterpart of evaluate_accuracy (opt/trainer.h).
float evaluate_graph_accuracy(CompiledGraph& graph,
                              const InMemoryDataset& dataset,
                              std::int64_t batch_size = 100);

}  // namespace runtime
}  // namespace csq
