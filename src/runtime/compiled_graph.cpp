#include "runtime/compiled_graph.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>

#include "data/dataloader.h"
#include "nn/pooling.h"
#include "runtime/packed_weights.h"
#include "runtime/requant.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csq {
namespace runtime {

namespace {

// Activation edge between two ops. u8 edges carry unsigned codes with an
// affine mapping real = scale * (code - zero_point); interior edges are
// post-ReLU so their zero point is 0, the input edge is signed. i32 edges
// carry raw GEMM accumulators whose semantics live in the consuming
// requantization.
struct EdgeData {
  std::int64_t channels = 0;
  std::int64_t height = 1;
  std::int64_t width = 1;
  bool is_acc = false;
  float scale = 0.0f;
  std::int32_t zero_point = 0;
  // Code grid of the edge (largest representable code). Act-quant-pinned
  // edges keep the module's trained 2^bits - 1 grid so the served
  // quantization matches the QAT forward; calibrated edges use the graph's
  // act_bits grid.
  float levels = 0.0f;
  bool scale_fixed = false;  // pinned by an act-quant clip at lowering
  int derived_from = -1;  // pools: same scale as their input edge
  float observed_max = 0.0f;
  float observed_min = 0.0f;
  bool observed = false;
  int slot = -1;  // byte-slot space (u8) or int-slot space (i32)
  // The integer layout, planned once the graph's consumers are known
  // (GraphBuilder::plan_layouts). A u8 edge is a channels-last image inside
  // a `border` of zero-point pixels, in rows of `pitch` pixels; an i32
  // edge holds a convolution's accumulators over a grid `pitch` positions
  // wide with `ldc` int32 per position (gemm_conv_nhwc). Samples are
  // `sample` elements apart: at least the image, and what a convolution's
  // tiles read past it, and the same for every edge of a workspace slot,
  // so no sample's region of one edge overlaps another sample's of another.
  std::int64_t border = 0;
  std::int64_t pitch = 0;
  std::int64_t ldc = 0;
  std::int64_t sample = 0;

  // Values per sample: the float walk's dense (C, H, W) span.
  std::int64_t per_sample() const { return channels * height * width; }
  // Elements of the integer buffer of `batch` samples.
  std::int64_t buffer(std::int64_t batch) const { return batch * sample; }
  // Offset of interior pixel (y, x) of a u8 edge, or of output (y, x) of
  // an i32 edge, within one sample.
  std::int64_t at(std::int64_t y, std::int64_t x) const {
    return is_acc ? (y * pitch + x) * ldc
                  : ((border + y) * pitch + border + x) * channels;
  }
};

class Op;

}  // namespace

// Everything the ops execute against. Declared as the public Impl so the
// pimpl'd CompiledGraph methods and the (file-local) op classes share it.
struct CompiledGraph::Impl {
  LowerOptions options;
  // The program this graph was replayed from, kept for save_graph /
  // replicate (codes are int32 per weight — comparable to the packed
  // planes). Shared, not owned: replicate() hands every replica the same
  // immutable program, so a shard of N replicas pays for ONE copy.
  std::shared_ptr<const GraphProgram> program;
  std::int64_t levels = 255;  // 2^act_bits - 1

  std::vector<EdgeData> edges;
  std::vector<std::unique_ptr<Op>> ops;
  std::unique_ptr<Workspace> ws;
  int byte_slots_used = 0;
  int int_slots_used = 0;

  std::vector<CompiledGraph::LayerInfo> layer_infos;
  std::vector<const PackedIntWeights*> layer_weights;

  int input_edge = 0;
  std::int64_t out_features = 0;
  bool pooled = true;
  bool scales_final = false;
  std::int64_t prepared_batch = 0;

  // Per-run state.
  std::int64_t batch = 0;
  const Tensor* run_input = nullptr;
  Tensor run_output;

  // Float reference walk (calibration / parity): transient per-edge real
  // values. Only the integer path is allocation-free.
  std::vector<std::vector<float>> float_edges;
  bool calibrating = false;

  // Edges with a quantization record (edge_scales): all but the last, the
  // Linear head's accumulators, which the v6 artifact has no record for.
  std::size_t recorded_edges() const { return edges.size() - 1; }

  std::uint8_t* u8(int edge) {
    const EdgeData& e = edges[static_cast<std::size_t>(edge)];
    return ws->bytes(e.slot, e.buffer(batch));
  }
  std::int32_t* i32(int edge) {
    const EdgeData& e = edges[static_cast<std::size_t>(edge)];
    return ws->ints(e.slot, e.buffer(batch));
  }
  float* f32(int edge) {
    const EdgeData& e = edges[static_cast<std::size_t>(edge)];
    std::vector<float>& buffer = float_edges[static_cast<std::size_t>(edge)];
    const auto needed = static_cast<std::size_t>(batch * e.per_sample());
    if (buffer.size() < needed) buffer.resize(needed);
    return buffer.data();
  }

  void record_range(int edge, float lo, float hi) {
    EdgeData& e = edges[static_cast<std::size_t>(edge)];
    if (!e.observed) {
      e.observed_min = lo;
      e.observed_max = hi;
      e.observed = true;
    } else {
      e.observed_min = std::min(e.observed_min, lo);
      e.observed_max = std::max(e.observed_max, hi);
    }
  }

  void check_input(const Tensor& input) const;
  void prepare(std::int64_t new_batch);
  void finalize_scales();
  void run_int_all();
  void run_float_all();
};

namespace {

// Batch loop that is pooled or serial on demand. Integer op bodies are
// order-independent (exact arithmetic, disjoint per-sample outputs), so the
// two modes are bit-identical. parallel_for hands the pool a reference to
// `fn`, so a capturing lambda dispatches without a heap allocation.
template <typename Fn>
void for_each_sample(bool pooled, std::int64_t batch, const Fn& fn) {
  if (!pooled) {
    for (std::int64_t b = 0; b < batch; ++b) fn(b);
    return;
  }
  parallel_for(0, batch, fn);
}

// Writes the zero-point border of one sample of a u8 edge, whose producer
// writes the interior. The planner shares byte slots between edges, so a
// border written once could be overwritten by the slot's next owner: every
// producer rewrites it on every forward. A row's right border and the next
// row's left border are adjacent (pitch = width + 2 border), one store.
void write_border(const EdgeData& e, std::uint8_t* image) {
  if (e.border == 0) return;
  const auto zp = static_cast<std::uint8_t>(e.zero_point);
  const std::int64_t row = e.pitch * e.channels;
  const std::int64_t side = e.border * e.channels;
  const std::int64_t interior = e.width * e.channels;
  std::memset(image, zp, static_cast<std::size_t>(e.border * row + side));
  for (std::int64_t y = 0; y + 1 < e.height; ++y) {
    std::memset(image + (e.border + y) * row + side + interior, zp,
                static_cast<std::size_t>(2 * side));
  }
  std::memset(image + (e.border + e.height - 1) * row + side + interior, zp,
              static_cast<std::size_t>(side + e.border * row));
}

// The alive ScopedBorderAuditForTest, if any.
std::atomic<ScopedBorderAuditForTest*> border_audit{nullptr};

// Counts, for the alive audit, one sample of a u8 edge, faulted when its
// border holds a byte other than the edge's zero point.
void audit_border(const EdgeData& e, const std::uint8_t* image) {
  ScopedBorderAuditForTest* audit =
      border_audit.load(std::memory_order_relaxed);
  if (audit == nullptr) return;
  const auto zp = static_cast<std::uint8_t>(e.zero_point);
  const std::int64_t row = e.pitch * e.channels;
  bool faulted = false;
  for (std::int64_t y = 0; y < e.height + 2 * e.border; ++y) {
    const bool interior_row = y >= e.border && y < e.border + e.height;
    for (std::int64_t i = 0; i < row; ++i) {
      const std::int64_t x = i / e.channels;
      const bool interior =
          interior_row && x >= e.border && x < e.border + e.width;
      faulted |= !interior && image[y * row + i] != zp;
    }
  }
  audit->checked.fetch_add(1);
  if (faulted) audit->faulted.fetch_add(1);
}

class Op {
 public:
  virtual ~Op() = default;
  // Sample b of the integer forward.
  virtual void run_sample(CompiledGraph::Impl& g, std::int64_t b) = 0;
  // The whole batch: each sample in turn, unless the op has a batched form.
  virtual void run_batch(CompiledGraph::Impl& g);
  virtual void run_float(CompiledGraph::Impl& g) = 0;
  // Resolves requantization constants once every edge scale is known.
  virtual void finalize(CompiledGraph::Impl& g) { (void)g; }
  // Frees buffers only the float reference walk needs (re-materialized on
  // demand if another walk runs).
  virtual void release_float_cache() {}
};

void Op::run_batch(CompiledGraph::Impl& g) {
  for (std::int64_t b = 0; b < g.batch; ++b) run_sample(g, b);
}

// Dequantized weight matrix for the float reference walk, materialized on
// first use — serving-only graphs (calibrate once, then integer forwards)
// never pay the 4-bytes/weight float copy.
const std::vector<float>& float_weights(const PackedIntWeights& weights,
                                        std::vector<float>& cache) {
  if (cache.empty()) {
    const std::int64_t count = weights.rows() * weights.cols();
    cache.resize(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      cache[static_cast<std::size_t>(i)] = weights.weight(i);
    }
  }
  return cache;
}

// ------------------------------------------------------- quantize input --

class QuantizeInputOp final : public Op {
 public:
  explicit QuantizeInputOp(int out_edge) : out_edge_(out_edge) {}

  // (C, H, W) floats in, channels-last codes out.
  void run_sample(CompiledGraph::Impl& g, std::int64_t b) override {
    const EdgeData& e = g.edges[static_cast<std::size_t>(out_edge_)];
    const float* src = g.run_input->data() + b * e.per_sample();
    std::uint8_t* dst = g.u8(out_edge_) + b * e.sample;
    const std::int64_t plane = e.height * e.width;
    const float inv_scale = 1.0f / e.scale;
    const auto zp = static_cast<float>(e.zero_point);
    write_border(e, dst);
    for (std::int64_t y = 0; y < e.height; ++y) {
      std::uint8_t* pixel = dst + e.at(y, 0);
      for (std::int64_t x = 0; x < e.width; ++x, pixel += e.channels) {
        const float* value = src + y * e.width + x;
        for (std::int64_t c = 0; c < e.channels; ++c) {
          pixel[c] =
              round_clamp_code(value[c * plane] * inv_scale + zp, e.levels);
        }
      }
    }
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& e = g.edges[static_cast<std::size_t>(out_edge_)];
    const std::int64_t count = g.batch * e.per_sample();
    const float* src = g.run_input->data();
    float* dst = g.f32(out_edge_);
    std::copy(src, src + count, dst);
    if (g.calibrating) {
      float lo = 0.0f, hi = 0.0f;
      for (std::int64_t i = 0; i < count; ++i) {
        lo = std::min(lo, src[i]);
        hi = std::max(hi, src[i]);
      }
      g.record_range(out_edge_, lo, hi);
    }
  }

 private:
  int out_edge_;
};

// ------------------------------------------------------------------ conv --

class ConvOp final : public Op {
 public:
  ConvOp(int in_edge, int acc_edge, ConvGeometry geom, PackedIntWeights weights)
      : in_edge_(in_edge),
        acc_edge_(acc_edge),
        geom_(geom),
        weights_(std::move(weights)) {}

  int in_edge() const { return in_edge_; }
  int acc_edge() const { return acc_edge_; }
  const ConvGeometry& geometry() const { return geom_; }
  const PackedIntWeights& weights() const { return weights_; }
  void release_float_cache() override {
    float_weights_.clear();
    float_weights_.shrink_to_fit();
  }

  // Reads its channels-last input edge in place: the edge's border is at
  // least this convolution's pad, and its samples are spaced for the
  // tiles' reach.
  void run_sample(CompiledGraph::Impl& g, std::int64_t b) override {
    run(g, b, 1, false);
  }
  // One call for the batch: the pool takes the samples' blocks of C, so a
  // batch of one or two samples fans out too.
  void run_batch(CompiledGraph::Impl& g) override {
    run(g, 0, g.batch, g.pooled);
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::int64_t k = geom_.col_rows();
    const std::int64_t p = geom_.col_cols();
    const float* src = g.f32(in_edge_);
    float* acc = g.f32(acc_edge_);
    const std::vector<float>& w = float_weights(weights_, float_weights_);
    // The float walk is transient (see Impl::float_edges): one zero-padded
    // sample, when the convolution pads at all.
    std::vector<float> padded(static_cast<std::size_t>(
        geom_.pad > 0 ? geom_.channels * geom_.padded_h() * geom_.padded_w()
                      : 0));
    for (std::int64_t b = 0; b < g.batch; ++b) {
      const float* sample = src + b * in.per_sample();
      if (!padded.empty()) {
        pad_image(geom_, sample, padded.data());
        sample = padded.data();
      }
      gemm_conv(Trans::no, weights_.rows(), 1.0f, w.data(), k, geom_, sample,
                0.0f, acc + b * weights_.rows() * p, p);
    }
  }

 private:
  void run(CompiledGraph::Impl& g, std::int64_t first, std::int64_t count,
           bool pooled) {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& acc = g.edges[static_cast<std::size_t>(acc_edge_)];
    const std::uint8_t* src = g.u8(in_edge_) + first * in.sample;
    for (std::int64_t b = 0; b < count; ++b) {
      audit_border(in, src + b * in.sample);
    }
    weights_.conv(in.pitch, count, src + in.at(-geom_.pad, -geom_.pad),
                  in.sample, g.i32(acc_edge_) + first * acc.sample,
                  acc.sample, pooled);
  }

  int in_edge_;
  int acc_edge_;
  ConvGeometry geom_;
  PackedIntWeights weights_;
  std::vector<float> float_weights_;
};

// ------------------------------------------------------- requantization --

// One accumulator-to-real recipe: the folded BatchNorm affine, the optional
// convolution bias, and the weight/activation scales of the producing GEMM.
struct AccRequant {
  int acc_edge = -1;
  int in_edge = -1;
  const PackedIntWeights* weights = nullptr;
  std::vector<float> bn_scale, bn_bias;  // empty = identity
  std::vector<float> bias;               // empty = none
  std::int64_t channels = 0;
  std::int64_t plane = 0;  // out_h * out_w
  // Resolved integer-path constants: code = clamp(round(mul*acc + add)).
  std::vector<float> mul, add;

  float bn_a(std::int64_t c) const {
    return bn_scale.empty() ? 1.0f : bn_scale[static_cast<std::size_t>(c)];
  }
  float bn_b(std::int64_t c) const {
    return bn_bias.empty() ? 0.0f : bn_bias[static_cast<std::size_t>(c)];
  }
  float bias_at(std::int64_t c) const {
    return bias.empty() ? 0.0f : bias[static_cast<std::size_t>(c)];
  }

  // Real pre-activation value from the float reference conv output.
  float real_from_float(float conv_value, std::int64_t c) const {
    return bn_a(c) * (conv_value + bias_at(c)) + bn_b(c);
  }

  void resolve(const std::vector<EdgeData>& edges, float out_scale) {
    const EdgeData& in = edges[static_cast<std::size_t>(in_edge)];
    const float step = weights->effective_step();
    const float s_in = in.scale;
    mul.resize(static_cast<std::size_t>(channels));
    add.resize(static_cast<std::size_t>(channels));
    for (std::int64_t c = 0; c < channels; ++c) {
      const float a = bn_a(c);
      const double zp_term =
          static_cast<double>(step) * s_in * in.zero_point *
          static_cast<double>(
              weights->row_code_sums()[static_cast<std::size_t>(c)]);
      mul[static_cast<std::size_t>(c)] = a * step * s_in / out_scale;
      add[static_cast<std::size_t>(c)] = static_cast<float>(
          (a * (bias_at(c) - zp_term) + bn_b(c)) / out_scale);
    }
  }
};

// The optional second addend of a requantization: a residual join's skip
// branch, either a downsample accumulator (conv+bn, kAcc) or the re-scaled
// identity-skip codes (kCodes).
struct SkipTerm {
  enum class Kind { kNone, kAcc, kCodes };
  Kind kind = Kind::kNone;
  AccRequant acc;  // kAcc only
  int edge = -1;   // the edge read: acc.acc_edge (kAcc) or the u8 codes
};

// Accumulator -> uint8 codes through the shared ReLU clamp: the main
// accumulator's folded conv(+bias)+bn, plus the skip term at residual joins.
class RequantOp final : public Op {
 public:
  RequantOp(AccRequant main, SkipTerm skip, int out_edge)
      : main_(std::move(main)), skip_(std::move(skip)), out_edge_(out_edge) {}

  void finalize(CompiledGraph::Impl& g) override {
    const float out_scale =
        g.edges[static_cast<std::size_t>(out_edge_)].scale;
    main_.resolve(g.edges, out_scale);
    add_ = main_.add;
    mul2_.assign(add_.size(), 0.0f);
    if (skip_.kind == SkipTerm::Kind::kAcc) {
      skip_.acc.resolve(g.edges, out_scale);
      mul2_ = skip_.acc.mul;
      for (std::size_t ch = 0; ch < add_.size(); ++ch) {
        add_[ch] += skip_.acc.add[ch];
      }
    } else if (skip_.kind == SkipTerm::Kind::kCodes) {
      const EdgeData& skip = g.edges[static_cast<std::size_t>(skip_.edge)];
      const float ratio = skip.scale / out_scale;
      const float offset = -ratio * static_cast<float>(skip.zero_point);
      mul2_.assign(add_.size(), ratio);
      for (float& add : add_) add += offset;
    }
    // Channels-last outputs cycle through the channels, so the constants
    // repeat to lcm(C, 32) values: a run of positions is one sweep.
    const auto channels = static_cast<std::int64_t>(add_.size());
    period_ = std::lcm(channels, std::int64_t{32});
    const auto tile = [this, channels](std::vector<float> values) {
      values.resize(static_cast<std::size_t>(period_));
      for (std::int64_t i = channels; i < period_; ++i) {
        values[static_cast<std::size_t>(i)] =
            values[static_cast<std::size_t>(i % channels)];
      }
      return values;
    };
    mul1_ = tile(main_.mul);
    mul2_ = tile(std::move(mul2_));
    add_ = tile(std::move(add_));
  }

  void run_sample(CompiledGraph::Impl& g, std::int64_t b) override {
    switch (skip_.kind) {
      case SkipTerm::Kind::kNone:
        return sweep<NoSkip>(g, b, nullptr);
      case SkipTerm::Kind::kAcc:
        return sweep(g, b, g.i32(skip_.edge));
      case SkipTerm::Kind::kCodes:
        return sweep(g, b, g.u8(skip_.edge));
    }
  }

  // Two loops rather than one with a per-element skip branch: each keeps
  // the float rounding, and so the calibrated scales, of the code it
  // replaced. Where the target has FMA the compiler fuses the plain loop's
  // multiply-add but not the join loop's, and a merged loop fuses neither,
  // moving calibrated scales by an ulp.
  void run_float(CompiledGraph::Impl& g) override {
    const float* acc = g.f32(main_.acc_edge);
    float* out = g.f32(out_edge_);
    const std::int64_t stride = main_.channels * main_.plane;
    float edge_max = 0.0f;
    if (skip_.kind == SkipTerm::Kind::kNone) {
      for (std::int64_t b = 0; b < g.batch; ++b) {
        for (std::int64_t ch = 0; ch < main_.channels; ++ch) {
          const std::int64_t base = b * stride + ch * main_.plane;
          for (std::int64_t p = 0; p < main_.plane; ++p) {
            const float y =
                std::max(0.0f, main_.real_from_float(acc[base + p], ch));
            out[base + p] = y;
            edge_max = std::max(edge_max, y);
          }
        }
      }
    } else {
      const float* skip = g.f32(skip_.edge);
      for (std::int64_t b = 0; b < g.batch; ++b) {
        for (std::int64_t ch = 0; ch < main_.channels; ++ch) {
          const std::int64_t base = b * stride + ch * main_.plane;
          for (std::int64_t p = 0; p < main_.plane; ++p) {
            const float skip_real =
                skip_.kind == SkipTerm::Kind::kAcc
                    ? skip_.acc.real_from_float(skip[base + p], ch)
                    : skip[base + p];
            const float y = std::max(
                0.0f, main_.real_from_float(acc[base + p], ch) + skip_real);
            out[base + p] = y;
            edge_max = std::max(edge_max, y);
          }
        }
      }
    }
    if (g.calibrating) g.record_range(out_edge_, 0.0f, edge_max);
  }

 private:
  // Vectorized along the channels of each output row, or of each position
  // where the accumulator rows have padding columns; the codes go straight
  // into the interior of the output edge (for a convolution: its padded
  // input).
  template <typename Skip>
  void sweep(CompiledGraph::Impl& g, std::int64_t b, const Skip* skip) {
    const EdgeData& acc_e = g.edges[static_cast<std::size_t>(main_.acc_edge)];
    const EdgeData& out_e = g.edges[static_cast<std::size_t>(out_edge_)];
    const EdgeData& skip_e = g.edges[static_cast<std::size_t>(
        kHasSkip<Skip> ? skip_.edge : main_.acc_edge)];
    const std::int64_t channels = out_e.channels;
    const std::int64_t skip_step = skip_e.is_acc ? skip_e.ldc : channels;
    const bool rows = acc_e.ldc == channels && skip_step == channels;
    const std::int64_t run = rows ? out_e.width * channels : channels;
    const std::int64_t runs = rows ? 1 : out_e.width;
    const std::int32_t* acc = g.i32(main_.acc_edge) + b * acc_e.sample;
    std::uint8_t* image = g.u8(out_edge_) + b * out_e.sample;
    write_border(out_e, image);
    for (std::int64_t y = 0; y < out_e.height; ++y) {
      const std::int32_t* acc_at = acc + acc_e.at(y, 0);
      const Skip* skip_at = nullptr;
      if constexpr (kHasSkip<Skip>) {
        skip_at = skip + b * skip_e.sample + skip_e.at(y, 0);
      }
      std::uint8_t* out_at = image + out_e.at(y, 0);
      for (std::int64_t r = 0; r < runs; ++r) {
        // The clamp at zero IS the fused ReLU (negative pre-activations
        // fall below code 0 because the output zero point is 0).
        requant_channels(acc_at, skip_at, out_at, run, mul1_.data(),
                         mul2_.data(), add_.data(), period_, out_e.levels);
        acc_at += acc_e.ldc;
        if constexpr (kHasSkip<Skip>) skip_at += skip_step;
        out_at += channels;
      }
    }
  }

  AccRequant main_;
  SkipTerm skip_;
  int out_edge_;
  // Per channel, resolved in finalize() and repeated to period_ values.
  std::vector<float> mul1_, mul2_, add_;
  std::int64_t period_ = 0;
};

// ------------------------------------------------------------- pooling --

class MaxPoolOp final : public Op {
 public:
  MaxPoolOp(int in_edge, int out_edge, const Pool2dConfig& config)
      : in_edge_(in_edge), out_edge_(out_edge), config_(config) {}

  // Max over the in-bounds window only — padded taps are the implicit -inf
  // of the float module, and the max is order-preserving on codes, so the
  // integer and float walks pick the same taps. Channels-last: each tap is
  // a run of C codes.
  void run_sample(CompiledGraph::Impl& g, std::int64_t b) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& out_e = g.edges[static_cast<std::size_t>(out_edge_)];
    const std::uint8_t* src = g.u8(in_edge_) + b * in_e.sample;
    std::uint8_t* image = g.u8(out_edge_) + b * out_e.sample;
    const std::int64_t channels = in_e.channels;
    write_border(out_e, image);
    for (std::int64_t oy = 0; oy < out_e.height; ++oy) {
      for (std::int64_t ox = 0; ox < out_e.width; ++ox) {
        std::int64_t y0, y1, x0, x1;
        config_.window(oy, config_.kernel_h, in_e.height, y0, y1);
        config_.window(ox, config_.kernel_w, in_e.width, x0, x1);
        std::uint8_t* dst = image + out_e.at(oy, ox);
        std::memcpy(dst, src + in_e.at(y0, x0),
                    static_cast<std::size_t>(channels));
        for (std::int64_t iy = y0; iy < y1; ++iy) {
          for (std::int64_t ix = x0; ix < x1; ++ix) {
            const std::uint8_t* tap = src + in_e.at(iy, ix);
            for (std::int64_t c = 0; c < channels; ++c) {
              dst[c] = std::max(dst[c], tap[c]);
            }
          }
        }
      }
    }
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& out_e = g.edges[static_cast<std::size_t>(out_edge_)];
    const float* in = g.f32(in_edge_);
    float* out = g.f32(out_edge_);
    for (std::int64_t b = 0; b < g.batch; ++b) {
      for (std::int64_t c = 0; c < in_e.channels; ++c) {
        const float* plane = in + (b * in_e.channels + c) * in_e.height *
                                      in_e.width;
        float* dst = out + (b * in_e.channels + c) * out_e.height *
                               out_e.width;
        for (std::int64_t oy = 0; oy < out_e.height; ++oy) {
          for (std::int64_t ox = 0; ox < out_e.width; ++ox) {
            std::int64_t y0, y1, x0, x1;
            config_.window(oy, config_.kernel_h, in_e.height, y0, y1);
            config_.window(ox, config_.kernel_w, in_e.width, x0, x1);
            float best = plane[y0 * in_e.width + x0];
            for (std::int64_t iy = y0; iy < y1; ++iy) {
              for (std::int64_t ix = x0; ix < x1; ++ix) {
                best = std::max(best, plane[iy * in_e.width + ix]);
              }
            }
            dst[oy * out_e.width + ox] = best;
          }
        }
      }
    }
  }

 private:
  int in_edge_;
  int out_edge_;
  Pool2dConfig config_;
};

class GlobalAvgPoolOp final : public Op {
 public:
  GlobalAvgPoolOp(int in_edge, int out_edge)
      : in_edge_(in_edge), out_edge_(out_edge) {}

  void run_sample(CompiledGraph::Impl& g, std::int64_t b) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& out_e = g.edges[static_cast<std::size_t>(out_edge_)];
    const std::uint8_t* src = g.u8(in_edge_) + b * in_e.sample;
    std::uint8_t* image = g.u8(out_edge_) + b * out_e.sample;
    const std::int64_t plane = in_e.height * in_e.width;
    write_border(out_e, image);
    std::uint8_t* dst = image + out_e.at(0, 0);
    // Channels in blocks of a fixed-size sum array: no allocation.
    constexpr std::int64_t kBlock = 256;
    for (std::int64_t c0 = 0; c0 < in_e.channels; c0 += kBlock) {
      const std::int64_t count = std::min(kBlock, in_e.channels - c0);
      std::int64_t sums[kBlock] = {};
      for (std::int64_t y = 0; y < in_e.height; ++y) {
        for (std::int64_t x = 0; x < in_e.width; ++x) {
          const std::uint8_t* pixel = src + in_e.at(y, x) + c0;
          for (std::int64_t c = 0; c < count; ++c) sums[c] += pixel[c];
        }
      }
      // Integer round-half-up mean; codes are unsigned so this matches
      // round-to-nearest. Same scale as the input edge (derived).
      for (std::int64_t c = 0; c < count; ++c) {
        dst[c0 + c] =
            static_cast<std::uint8_t>((2 * sums[c] + plane) / (2 * plane));
      }
    }
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::int64_t plane = in_e.height * in_e.width;
    const float* in = g.f32(in_edge_);
    float* out = g.f32(out_edge_);
    for (std::int64_t b = 0; b < g.batch; ++b) {
      for (std::int64_t ch = 0; ch < in_e.channels; ++ch) {
        const float* src = in + (b * in_e.channels + ch) * plane;
        double sum = 0.0;
        for (std::int64_t p = 0; p < plane; ++p) sum += src[p];
        out[b * in_e.channels + ch] =
            static_cast<float>(sum / static_cast<double>(plane));
      }
    }
  }

 private:
  int in_edge_;
  int out_edge_;
};

// ---------------------------------------------------------------- linear --

// The Linear head: the convolution whose kernel covers its whole H x W input
// edge (stride 1, no padding; the weights' (c, h, w) column order is
// im2col's), then each sample's logits from its accumulators.
class LinearOp final : public Op {
 public:
  LinearOp(int in_edge, int acc_edge, ConvGeometry geom,
           PackedIntWeights weights, std::vector<float> bias)
      : conv_(in_edge, acc_edge, geom, std::move(weights)),
        bias_(std::move(bias)) {}

  const ConvOp& conv() const { return conv_; }
  const PackedIntWeights& weights() const { return conv_.weights(); }
  void release_float_cache() override {
    float_weights_.clear();
    float_weights_.shrink_to_fit();
  }

  void run_sample(CompiledGraph::Impl& g, std::int64_t b) override {
    conv_.run_sample(g, b);
    logits(g, b);
  }
  void run_batch(CompiledGraph::Impl& g) override {
    conv_.run_batch(g);
    for (std::int64_t b = 0; b < g.batch; ++b) logits(g, b);
  }

  // The float walk of the flat (C, H, W) input, independent of the
  // convolution's geometry.
  void run_float(CompiledGraph::Impl& g) override {
    const PackedIntWeights& weights = conv_.weights();
    const std::int64_t out_f = weights.rows();
    const std::int64_t in_f = weights.cols();
    g.run_output = Tensor::uninitialized({g.batch, out_f});
    const std::vector<float>& w = float_weights(weights, float_weights_);
    gemm(Trans::no, Trans::yes, g.batch, out_f, in_f, 1.0f,
         g.f32(conv_.in_edge()), in_f, w.data(), in_f, 0.0f,
         g.run_output.data(), out_f);
    if (!bias_.empty()) {
      float* logits = g.run_output.data();
      for (std::int64_t b = 0; b < g.batch; ++b) {
        for (std::int64_t o = 0; o < out_f; ++o) {
          logits[b * out_f + o] += bias_[static_cast<std::size_t>(o)];
        }
      }
    }
  }

 private:
  // Row b of the graph's logits: the single output position's accumulators
  // in real units (the zero-point correction of the input edge folded
  // out), plus the bias.
  void logits(CompiledGraph::Impl& g, std::int64_t b) const {
    const PackedIntWeights& weights = conv_.weights();
    const EdgeData& in = g.edges[static_cast<std::size_t>(conv_.in_edge())];
    const EdgeData& acc_e =
        g.edges[static_cast<std::size_t>(conv_.acc_edge())];
    const std::int32_t* acc = g.i32(conv_.acc_edge()) + b * acc_e.sample;
    const std::int64_t out_f = weights.rows();
    float* row = g.run_output.data() + b * out_f;
    const float combined = weights.effective_step() * in.scale;
    for (std::int64_t o = 0; o < out_f; ++o) {
      const float offset =
          bias_.empty() ? 0.0f : bias_[static_cast<std::size_t>(o)];
      const std::int64_t zp_correction =
          in.zero_point * weights.row_code_sums()[static_cast<std::size_t>(o)];
      row[o] = combined * static_cast<float>(
                              static_cast<std::int64_t>(acc[o]) -
                              zp_correction) +
               offset;
    }
  }

  ConvOp conv_;
  std::vector<float> float_weights_;
  std::vector<float> bias_;
};

}  // namespace

// ------------------------------------------------------------ Impl body --

void CompiledGraph::Impl::check_input(const Tensor& input) const {
  const EdgeData& in_e = edges[static_cast<std::size_t>(input_edge)];
  CSQ_CHECK(input.ndim() == 4 && input.dim(1) == in_e.channels &&
            input.dim(2) == in_e.height && input.dim(3) == in_e.width)
      << "integer graph: input " << input.shape_string()
      << " does not match the compiled (C,H,W)";
}

void CompiledGraph::Impl::prepare(std::int64_t new_batch) {
  if (new_batch <= prepared_batch) return;
  const std::int64_t saved = batch;
  batch = new_batch;
  for (EdgeData& e : edges) {
    if (e.is_acc) {
      ws->ints(e.slot, e.buffer(new_batch));
    } else {
      ws->bytes(e.slot, e.buffer(new_batch));
    }
  }
  prepared_batch = new_batch;
  batch = saved;
}

void CompiledGraph::Impl::finalize_scales() {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EdgeData& e = edges[i];
    if (e.is_acc || e.scale_fixed || e.derived_from >= 0) continue;
    CSQ_CHECK(e.observed)
        << "integer graph: edge " << i
        << " has no scale — run calibrate() before forward()";
    const float lo = std::min(0.0f, e.observed_min);
    const float hi = std::max({e.observed_max, lo + 1e-6f, 1e-6f});
    e.levels = static_cast<float>(levels);
    e.scale = (hi - lo) / e.levels;
    e.zero_point = static_cast<std::int32_t>(std::clamp<long>(
        std::lround(-lo / e.scale), 0, levels));
  }
  // Pools inherit their input edge's scale and grid (codes pass through).
  for (EdgeData& e : edges) {
    if (e.derived_from >= 0) {
      const EdgeData& base = edges[static_cast<std::size_t>(e.derived_from)];
      e.scale = base.scale;
      e.levels = base.levels;
      e.zero_point = base.zero_point;
    }
  }
  for (auto& op : ops) op->finalize(*this);
  scales_final = true;
}

// Batches above the sample loop's pooling threshold run sample-major: each
// sample runs every op, the Linear head's logits included, on one thread,
// so its activations stay in that core's cache and the pool is entered
// once. Smaller batches run layer by layer, where each convolution spreads
// its blocks over the pool. Every op's integer arithmetic is exact and per
// sample, so both orders are bit-identical.
void CompiledGraph::Impl::run_int_all() {
  prepare(batch);
  run_output = Tensor::uninitialized({batch, out_features});
  if (batch > kParallelForSerialThreshold) {
    for_each_sample(pooled, batch, [this](std::int64_t b) {
      for (auto& op : ops) op->run_sample(*this, b);
    });
  } else {
    for (auto& op : ops) op->run_batch(*this);
  }
}

void CompiledGraph::Impl::run_float_all() {
  float_edges.resize(edges.size());
  for (auto& op : ops) op->run_float(*this);
}

// -------------------------------------------------------------- builder --

namespace {

// Replays a recorded GraphProgram into the op list. The conv/bn/relu/
// act-quant run of a plain stack (or a residual join) is accumulated as a
// "pending" accumulator and flushed into one RequantOp when the next
// instruction needs a realized uint8 edge. Consumes only program data
// — never a module — so artifact loading shares this path byte for byte
// with live lowering.
class GraphBuilder {
 public:
  explicit GraphBuilder(CompiledGraph::Impl& g) : g_(g) {
    EdgeData input;
    input.channels = g.options.in_channels;
    input.height = g.options.in_height;
    input.width = g.options.in_width;
    g_.edges.push_back(input);
    g_.input_edge = 0;
    current_edge_ = 0;
    add_op(std::make_unique<QuantizeInputOp>(0), {}, {0});
  }

  void conv(const QuantizedLayerExport& layer, const ProgramInstr& instr) {
    const int in = realize();
    const EdgeData in_e = g_.edges[static_cast<std::size_t>(in)];
    CSQ_CHECK(layer.shape.size() == 4)
        << "lowering " << layer.name << ": conv weights must be rank 4, got "
        << layer.shape.size();
    const std::int64_t out_channels = layer.shape[0];
    const std::int64_t in_channels = layer.shape[1];
    CSQ_CHECK(layer.shape[2] == instr.kernel && layer.shape[3] == instr.kernel)
        << "lowering " << layer.name << ": kernel " << instr.kernel
        << " does not match the weight shape";
    CSQ_CHECK(in_e.channels == in_channels)
        << "lowering " << layer.name << ": edge channels " << in_e.channels
        << " != " << in_channels;
    CSQ_CHECK(instr.bias.empty() ||
              static_cast<std::int64_t>(instr.bias.size()) == out_channels)
        << "lowering " << layer.name << ": bias length mismatch";

    ConvGeometry geom;
    geom.channels = in_channels;
    geom.height = in_e.height;
    geom.width = in_e.width;
    geom.kernel_h = geom.kernel_w = instr.kernel;
    geom.stride = instr.stride;
    geom.pad = instr.pad;
    geom.validate();

    PackedIntWeights packed(layer.codes, layer.step(), layer.bits,
                            out_channels, geom.col_rows(),
                            static_cast<WeightKernel>(instr.kernel_kind),
                            &geom);
    const int acc = new_acc_edge(out_channels, geom.out_h(), geom.out_w());

    auto op = std::make_unique<ConvOp>(in, acc, geom, std::move(packed));
    const ConvOp* raw = op.get();
    convs_.push_back(raw);
    record_layer(layer.name, raw->weights());
    add_op(std::move(op), {in}, {acc});

    pending_.active = true;
    pending_.main.acc_edge = acc;
    pending_.main.in_edge = in;
    pending_.main.weights = &raw->weights();
    pending_.main.channels = out_channels;
    pending_.main.plane = geom.out_h() * geom.out_w();
    pending_.main.bias = instr.bias;
  }

  void linear(const QuantizedLayerExport& layer, const ProgramInstr& instr) {
    const int in = realize();
    const EdgeData in_e = g_.edges[static_cast<std::size_t>(in)];
    CSQ_CHECK(layer.shape.size() == 2)
        << "lowering " << layer.name << ": linear weights must be rank 2, "
        << "got " << layer.shape.size();
    const std::int64_t out_features = layer.shape[0];
    const std::int64_t in_features = layer.shape[1];
    CSQ_CHECK(in_e.per_sample() == in_features)
        << "lowering " << layer.name << ": edge carries " << in_e.per_sample()
        << " values, layer expects " << in_features;
    CSQ_CHECK(g_.out_features == 0)
        << "integer graph: multiple Linear heads are not supported";
    CSQ_CHECK(instr.bias.empty() ||
              static_cast<std::int64_t>(instr.bias.size()) == out_features)
        << "lowering " << layer.name << ": bias length mismatch";

    // A kernel as large as the input: one output position, whose depth in
    // im2col's (c, ki, kj) order is the flattened (c, h, w) input.
    ConvGeometry geom;
    geom.channels = in_e.channels;
    geom.height = geom.kernel_h = in_e.height;
    geom.width = geom.kernel_w = in_e.width;
    geom.validate();
    PackedIntWeights packed(layer.codes, layer.step(), layer.bits,
                            out_features, in_features,
                            static_cast<WeightKernel>(instr.kernel_kind),
                            &geom);
    const int acc = new_acc_edge(out_features, 1, 1);
    auto op = std::make_unique<LinearOp>(in, acc, geom, std::move(packed),
                                         instr.bias);
    convs_.push_back(&op->conv());
    record_layer(layer.name, op->weights());
    g_.out_features = out_features;
    add_op(std::move(op), {in}, {acc});
    current_edge_ = -1;  // the graph output is the float logits tensor
  }

  void batchnorm(const ProgramInstr& instr) {
    CSQ_CHECK(pending_.active && pending_.main.bn_scale.empty())
        << "integer graph: batch norm must directly follow a convolution";
    AccRequant& main = pending_.main;
    CSQ_CHECK(static_cast<std::int64_t>(instr.scale.size()) ==
                  main.channels &&
              instr.shift.size() == instr.scale.size())
        << "integer graph: batch-norm channel mismatch";
    main.bn_scale = instr.scale;
    main.bn_bias = instr.shift;
  }

  void relu() {
    CSQ_CHECK(pending_.active)
        << "integer graph: standalone ReLU (without a producing conv/join) "
           "is not supported";
    pending_.relu = true;
  }

  void act_quant(int bits, float clip) {
    CSQ_CHECK(pending_.active)
        << "integer graph: activation quantizer without a producing layer";
    CSQ_CHECK(clip > 0.0f) << "integer graph: non-positive act-quant clip";
    // Serve the module's own grid so the deployed activations match the
    // QAT forward the accuracy was validated on. Grids finer than uint8
    // (bits > 8) degrade to the graph's act_bits grid over the same clip.
    const std::int64_t levels =
        std::min((std::int64_t{1} << bits) - 1, g_.levels);
    pending_.fixed_scale = clip / static_cast<float>(levels);
    pending_.fixed_levels = static_cast<float>(levels);
    pending_.has_fixed_scale = true;
  }

  void max_pool(const ProgramInstr& instr) {
    const int in = realize();
    const EdgeData in_e = g_.edges[static_cast<std::size_t>(in)];
    Pool2dConfig config;
    config.kernel_h = instr.kernel;
    config.kernel_w = instr.kernel_w > 0 ? instr.kernel_w : instr.kernel;
    config.stride = instr.stride;
    config.pad = instr.pad;
    config.validate("maxpool");
    const std::int64_t out_h = config.out_h(in_e.height);
    const std::int64_t out_w = config.out_w(in_e.width);
    CSQ_CHECK(out_h >= 1 && out_w >= 1)
        << "integer graph: pool window " << config.kernel_h << "x"
        << config.kernel_w << " larger than the " << in_e.height << "x"
        << in_e.width << " feature map";
    const int out = new_u8_edge(in_e.channels, out_h, out_w);
    g_.edges[static_cast<std::size_t>(out)].derived_from = in;
    add_op(std::make_unique<MaxPoolOp>(in, out, config), {in}, {out});
    current_edge_ = out;
  }

  void global_avg_pool() {
    const int in = realize();
    const EdgeData in_e = g_.edges[static_cast<std::size_t>(in)];
    const int out = new_u8_edge(in_e.channels, 1, 1);
    g_.edges[static_cast<std::size_t>(out)].derived_from = in;
    add_op(std::make_unique<GlobalAvgPoolOp>(in, out), {in}, {out});
    current_edge_ = out;
  }

  void flatten() {
    // Shape bookkeeping only: edges are flat per-sample spans already.
    realize();
  }

  void begin_residual() {
    residual_stack_.push_back(Frame{realize(), {}, false});
  }

  void begin_skip() {
    CSQ_CHECK(!residual_stack_.empty()) << "begin_skip outside a residual";
    Frame& frame = residual_stack_.back();
    CSQ_CHECK(pending_.active && !pending_.relu &&
              !pending_.has_fixed_scale && !frame.main_saved)
        << "integer graph: residual main branch must end in conv(+bn)";
    frame.main = std::move(pending_.main);
    frame.main_saved = true;
    pending_ = Pending{};
    current_edge_ = frame.fork_edge;
  }

  void end_residual() {
    CSQ_CHECK(!residual_stack_.empty()) << "end_residual outside a residual";
    Frame frame = std::move(residual_stack_.back());
    residual_stack_.pop_back();
    CSQ_CHECK(frame.main_saved) << "end_residual without begin_skip";

    Pending join;
    join.active = true;
    join.main = std::move(frame.main);
    // The float path CHECKs the join shapes at runtime (blocks.cpp); the
    // lowered graph must refuse mismatched branches at compile time — the
    // requantization indexes both buffers with the main branch's extents.
    if (pending_.active) {
      CSQ_CHECK(!pending_.relu)
          << "integer graph: residual skip branch must end in conv(+bn)";
      join.skip.kind = SkipTerm::Kind::kAcc;
      join.skip.edge = pending_.main.acc_edge;
      join.skip.acc = std::move(pending_.main);
    } else {
      join.skip.kind = SkipTerm::Kind::kCodes;
      join.skip.edge = current_edge_;
    }
    const auto dims = [this](int edge) {
      const EdgeData& e = g_.edges[static_cast<std::size_t>(edge)];
      return std::array<std::int64_t, 3>{e.channels, e.height, e.width};
    };
    CSQ_CHECK(dims(join.skip.edge) == dims(join.main.acc_edge))
        << "integer graph: residual branch shape mismatch";
    pending_ = std::move(join);
    current_edge_ = -1;
  }

  void finish() {
    CSQ_CHECK(residual_stack_.empty())
        << "integer graph: dangling residual frames after the walk";
    CSQ_CHECK(g_.out_features > 0)
        << "integer graph: the model needs a Linear head (no Linear layer "
           "was lowered)";
    CSQ_CHECK(!pending_.active)
        << "integer graph: dangling un-realized ops after the walk";
    plan_layouts();
    plan_slots();
    const int slots =
        std::max({g_.byte_slots_used, g_.int_slots_used, 1});
    g_.ws = std::make_unique<Workspace>(slots);
  }

 private:
  // Edge traffic of one op, in topological (execution) order — the liveness
  // intervals the buffer planner colors.
  struct OpMeta {
    std::vector<int> reads;
    std::vector<int> writes;
  };

  void add_op(std::unique_ptr<Op> op, std::vector<int> reads,
              std::vector<int> writes) {
    g_.ops.push_back(std::move(op));
    op_meta_.push_back(OpMeta{std::move(reads), std::move(writes)});
  }

  // Lays out every edge once its consumers are known. A u8 edge's border is
  // the widest pad of the convolutions that read it, so each reads its
  // input in place from its window origin; a convolution's accumulators
  // span its grid (gemm_conv_grid), which is as wide as its input's rows,
  // and its input's samples are far enough apart for what its tiles read.
  // The Linear head is one of these convolutions.
  void plan_layouts() {
    for (const ConvOp* conv : convs_) {
      EdgeData& in = g_.edges[static_cast<std::size_t>(conv->in_edge())];
      in.border = std::max(in.border, conv->geometry().pad);
    }
    for (EdgeData& e : g_.edges) {
      if (e.is_acc) continue;
      e.pitch = e.width + 2 * e.border;
      e.sample = (e.height + 2 * e.border) * e.pitch * e.channels;
    }
    for (const ConvOp* conv : convs_) {
      EdgeData& in = g_.edges[static_cast<std::size_t>(conv->in_edge())];
      EdgeData& acc = g_.edges[static_cast<std::size_t>(conv->acc_edge())];
      const std::int64_t pad = conv->geometry().pad;
      const ConvGrid grid =
          gemm_conv_grid(conv->geometry(), in.pitch, acc.channels);
      acc.pitch = in.pitch;
      acc.ldc = grid.ldc;
      acc.sample = grid.rows * grid.ldc;
      in.sample = std::max(in.sample, in.at(-pad, -pad) + grid.reach);
    }
  }

  // Assigns every edge its workspace slot. Planned mode colors the liveness
  // intervals over the op order: an edge's slot returns to its class free
  // list after the edge's last consumer. Outputs of op i never recycle a
  // slot freed AT op i (an op must not write into a buffer it is still
  // reading), which keeps planned and unplanned graphs bit-identical.
  void plan_slots() {
    const int n_ops = static_cast<int>(g_.ops.size());
    if (!g_.options.plan_buffers) {
      // Baseline policy: one dedicated slot per edge for the graph's
      // lifetime (the memory-regression comparison point).
      for (EdgeData& e : g_.edges) {
        e.slot = e.is_acc ? g_.int_slots_used++ : g_.byte_slots_used++;
      }
      return;
    }

    std::vector<int> last(g_.edges.size(), -1);
    for (int i = 0; i < n_ops; ++i) {
      const OpMeta& meta = op_meta_[static_cast<std::size_t>(i)];
      for (const int e : meta.writes) {
        last[static_cast<std::size_t>(e)] = i;
      }
      for (const int e : meta.reads) {
        last[static_cast<std::size_t>(e)] =
            std::max(last[static_cast<std::size_t>(e)], i);
      }
    }
    std::vector<int> free_bytes, free_ints;
    std::vector<char> released(g_.edges.size(), 0);
    const auto take = [](std::vector<int>& free_list, int& used) {
      if (free_list.empty()) return used++;
      const int slot = free_list.back();
      free_list.pop_back();
      return slot;
    };
    for (int i = 0; i < n_ops; ++i) {
      const OpMeta& meta = op_meta_[static_cast<std::size_t>(i)];
      for (const int e : meta.writes) {
        EdgeData& edge = g_.edges[static_cast<std::size_t>(e)];
        CSQ_CHECK(edge.slot < 0) << "buffer plan: edge " << e
                                 << " written by two ops";
        edge.slot = edge.is_acc ? take(free_ints, g_.int_slots_used)
                                : take(free_bytes, g_.byte_slots_used);
      }
      const auto release_dead = [&](int e) {
        if (last[static_cast<std::size_t>(e)] != i ||
            released[static_cast<std::size_t>(e)]) {
          return;
        }
        released[static_cast<std::size_t>(e)] = 1;
        const EdgeData& edge = g_.edges[static_cast<std::size_t>(e)];
        (edge.is_acc ? free_ints : free_bytes).push_back(edge.slot);
      };
      for (const int e : meta.reads) release_dead(e);
      for (const int e : meta.writes) release_dead(e);
    }
    for (std::size_t e = 0; e < g_.edges.size(); ++e) {
      CSQ_CHECK(g_.edges[e].slot >= 0)
          << "buffer plan: edge " << e << " was never written";
    }
    // One sample stride per slot: a sample-major forward writes one
    // sample's region of an edge while other threads use other samples'
    // regions of the slot's earlier and later edges.
    std::vector<std::int64_t> bytes(g_.byte_slots_used), ints(
                                                             g_.int_slots_used);
    for (const EdgeData& e : g_.edges) {
      std::int64_t& stride = (e.is_acc ? ints : bytes)[e.slot];
      stride = std::max(stride, e.sample);
    }
    for (EdgeData& e : g_.edges) e.sample = (e.is_acc ? ints : bytes)[e.slot];
  }

  struct Pending {
    bool active = false;
    AccRequant main;
    SkipTerm skip;  // residual joins only
    bool relu = false;
    bool has_fixed_scale = false;
    float fixed_scale = 0.0f;
    float fixed_levels = 0.0f;
  };
  struct Frame {
    int fork_edge = -1;
    AccRequant main;
    bool main_saved = false;
  };

  // Edges are created without a workspace slot; plan_slots() assigns them
  // all at finish(), once the full liveness picture exists.
  int new_u8_edge(std::int64_t c, std::int64_t h, std::int64_t w) {
    EdgeData e;
    e.channels = c;
    e.height = h;
    e.width = w;
    g_.edges.push_back(e);
    return static_cast<int>(g_.edges.size()) - 1;
  }

  int new_acc_edge(std::int64_t c, std::int64_t h, std::int64_t w) {
    EdgeData e;
    e.channels = c;
    e.height = h;
    e.width = w;
    e.is_acc = true;
    g_.edges.push_back(e);
    return static_cast<int>(g_.edges.size()) - 1;
  }

  void record_layer(const std::string& name, const PackedIntWeights& w) {
    CompiledGraph::LayerInfo info;
    info.name = name;
    info.bits = w.bits();
    info.split = w.split();
    info.weight_count = w.rows() * w.cols();
    info.storage_bits = w.storage_bits();
    info.kernel = w.kernel_name();
    g_.layer_infos.push_back(std::move(info));
    g_.layer_weights.push_back(&w);
  }

  // Flushes the pending accumulator into a RequantOp and returns the
  // realized uint8 edge the next op consumes.
  int realize() {
    if (!pending_.active) {
      CSQ_CHECK(current_edge_ >= 0)
          << "integer graph: no realized activation edge at this point "
             "(ops after the Linear head are not supported)";
      return current_edge_;
    }
    CSQ_CHECK(pending_.relu)
        << "integer graph: a quantized activation edge requires a fused "
           "ReLU (unsigned codes cannot carry negative pre-activations)";
    const AccRequant& main = pending_.main;
    const EdgeData acc_e =
        g_.edges[static_cast<std::size_t>(main.acc_edge)];
    const int out = new_u8_edge(acc_e.channels, acc_e.height, acc_e.width);
    if (pending_.has_fixed_scale) {
      EdgeData& e = g_.edges[static_cast<std::size_t>(out)];
      e.scale = pending_.fixed_scale;
      e.levels = pending_.fixed_levels;
      e.scale_fixed = true;
    }
    std::vector<int> reads{pending_.main.acc_edge};
    if (pending_.skip.kind != SkipTerm::Kind::kNone) {
      reads.push_back(pending_.skip.edge);
    }
    add_op(std::make_unique<RequantOp>(std::move(pending_.main),
                                       std::move(pending_.skip), out),
           std::move(reads), {out});
    pending_ = Pending{};
    current_edge_ = out;
    return out;
  }

  CompiledGraph::Impl& g_;
  Pending pending_;
  std::vector<Frame> residual_stack_;
  std::vector<OpMeta> op_meta_;  // parallel to g_.ops
  std::vector<const ConvOp*> convs_;
  int current_edge_ = -1;
};

}  // namespace

// ------------------------------------------------------- CompiledGraph --

CompiledGraph::CompiledGraph() : impl_(std::make_unique<Impl>()) {}
CompiledGraph::CompiledGraph(CompiledGraph&&) noexcept = default;
CompiledGraph& CompiledGraph::operator=(CompiledGraph&&) noexcept = default;
CompiledGraph::~CompiledGraph() = default;

Tensor CompiledGraph::forward(const Tensor& input) {
  Impl& g = *impl_;
  g.check_input(input);
  if (!g.scales_final) g.finalize_scales();
  g.batch = input.dim(0);
  g.run_input = &input;
  g.run_int_all();
  g.run_input = nullptr;
  return std::move(g.run_output);
}

Tensor CompiledGraph::forward_reference(const Tensor& input) {
  Impl& g = *impl_;
  g.check_input(input);
  g.batch = input.dim(0);
  g.run_input = &input;
  g.run_float_all();
  g.run_input = nullptr;
  return std::move(g.run_output);
}

void CompiledGraph::calibrate(const Tensor& batch) {
  Impl& g = *impl_;
  g.calibrating = true;
  forward_reference(batch);
  g.calibrating = false;
  g.scales_final = false;  // ranges moved; requant constants are stale
  // Serving keeps only the integer workspace; drop the per-edge float
  // buffers and dequantized-weight caches of the calibration walk
  // (forward_reference regrows them on demand).
  g.float_edges.clear();
  g.float_edges.shrink_to_fit();
  for (auto& op : g.ops) op->release_float_cache();
}

void CompiledGraph::prepare(std::int64_t batch) {
  if (!impl_->scales_final) impl_->finalize_scales();
  impl_->prepare(batch);
}

void CompiledGraph::set_pooled(bool pooled) { impl_->pooled = pooled; }

std::uint64_t CompiledGraph::buffer_growth_count() const {
  return impl_->ws->growth_count();
}

std::int64_t CompiledGraph::workspace_bytes() const {
  return impl_->ws->total_bytes();
}

const std::vector<CompiledGraph::LayerInfo>& CompiledGraph::layers() const {
  return impl_->layer_infos;
}

std::int64_t CompiledGraph::weight_storage_bits() const {
  std::int64_t total = 0;
  for (const LayerInfo& info : impl_->layer_infos) {
    total += info.storage_bits;
  }
  return total;
}

Tensor CompiledGraph::dequantized_weights(
    const std::string& layer_name) const {
  for (std::size_t i = 0; i < impl_->layer_infos.size(); ++i) {
    if (impl_->layer_infos[i].name != layer_name) continue;
    const PackedIntWeights& w = *impl_->layer_weights[i];
    Tensor result({w.rows(), w.cols()});
    float* data = result.data();
    for (std::int64_t j = 0; j < w.rows() * w.cols(); ++j) {
      data[j] = w.weight(j);
    }
    return result;
  }
  CSQ_CHECK(false) << "integer graph: no lowered layer named " << layer_name;
  return Tensor();
}

const std::vector<const PackedIntWeights*>&
CompiledGraph::layer_weight_views() const {
  return impl_->layer_weights;
}

CompiledGraph::IoShape CompiledGraph::io_shape() const {
  const EdgeData& in =
      impl_->edges[static_cast<std::size_t>(impl_->input_edge)];
  IoShape shape;
  shape.channels = in.channels;
  shape.height = in.height;
  shape.width = in.width;
  shape.out_features = impl_->out_features;
  return shape;
}

const LowerOptions& CompiledGraph::options() const { return impl_->options; }

const GraphProgram& CompiledGraph::program() const {
  return *impl_->program;
}

std::shared_ptr<const GraphProgram> CompiledGraph::shared_program() const {
  return impl_->program;
}

std::vector<EdgeScaleRecord> CompiledGraph::edge_scales() {
  if (!impl_->scales_final) impl_->finalize_scales();
  std::vector<EdgeScaleRecord> records;
  records.reserve(impl_->recorded_edges());
  for (std::size_t i = 0; i < impl_->recorded_edges(); ++i) {
    const EdgeData& e = impl_->edges[i];
    EdgeScaleRecord record;
    record.is_acc = e.is_acc;
    if (!e.is_acc) {
      record.scale = e.scale;
      record.levels = e.levels;
      record.zero_point = e.zero_point;
    }
    records.push_back(record);
  }
  return records;
}

void CompiledGraph::restore_edge_scales(
    const std::vector<EdgeScaleRecord>& records) {
  Impl& g = *impl_;
  CSQ_CHECK(records.size() == g.recorded_edges())
      << "graph artifact: edge count " << records.size()
      << " does not match the program's " << g.recorded_edges();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EdgeData& e = g.edges[i];
    const EdgeScaleRecord& record = records[i];
    CSQ_CHECK(record.is_acc == e.is_acc)
        << "graph artifact: edge " << i << " type mismatch";
    if (e.is_acc) continue;
    CSQ_CHECK(record.scale > 0.0f && record.levels >= 1.0f)
        << "graph artifact: edge " << i << " carries an unresolved scale";
    e.scale = record.scale;
    e.levels = record.levels;
    e.zero_point = record.zero_point;
    // Pools keep re-deriving from their input edge (same restored values);
    // every other edge serves the snapshot as a pinned scale.
    if (e.derived_from < 0) e.scale_fixed = true;
  }
  g.scales_final = false;
  g.finalize_scales();
}

CompiledGraph lower(Model& model, const LowerOptions& options) {
  CSQ_CHECK(model.has_root()) << "lower: model has no root module";
  return build_graph(record_program(model), options);
}

namespace {

// Replays `program` into a fresh Impl. Shared by build_graph (which then
// takes ownership of the program) and replicate (which shares the source
// graph's program instead of deep-copying it).
void replay_program(CompiledGraph::Impl& impl, const GraphProgram& program,
                    const LowerOptions& options) {
  CSQ_CHECK(options.act_bits >= 1 && options.act_bits <= 8)
      << "lower: act_bits must be in [1, 8] (codes are stored in uint8)";
  // Once per process, name the integer kernels every graph runs on (and
  // why an AMX CPU fell back), so a quoted latency can say which path it
  // measured.
  static const bool isa_logged = [] {
    log_info() << "integer GEMM kernels: " << gemm_int_isa_summary();
    return true;
  }();
  (void)isa_logged;
  impl.options = options;
  impl.levels = (std::int64_t{1} << options.act_bits) - 1;
  impl.pooled = options.pooled;
  GraphBuilder builder(impl);
  const auto layer_of = [&program](const ProgramInstr& instr) ->
      const QuantizedLayerExport& {
    CSQ_CHECK(instr.layer >= 0 &&
              instr.layer < static_cast<std::int32_t>(program.layers.size()))
        << "graph program: instruction references layer " << instr.layer
        << " of " << program.layers.size();
    return program.layers[static_cast<std::size_t>(instr.layer)];
  };
  for (const ProgramInstr& instr : program.instrs) {
    switch (instr.kind) {
      case ProgramInstr::Kind::kConv:
        builder.conv(layer_of(instr), instr);
        break;
      case ProgramInstr::Kind::kLinear:
        builder.linear(layer_of(instr), instr);
        break;
      case ProgramInstr::Kind::kBatchNorm:
        builder.batchnorm(instr);
        break;
      case ProgramInstr::Kind::kRelu:
        builder.relu();
        break;
      case ProgramInstr::Kind::kActQuant:
        builder.act_quant(instr.act_bits, instr.clip);
        break;
      case ProgramInstr::Kind::kMaxPool:
        builder.max_pool(instr);
        break;
      case ProgramInstr::Kind::kGlobalAvgPool:
        builder.global_avg_pool();
        break;
      case ProgramInstr::Kind::kFlatten:
        builder.flatten();
        break;
      case ProgramInstr::Kind::kBeginResidual:
        builder.begin_residual();
        break;
      case ProgramInstr::Kind::kBeginSkip:
        builder.begin_skip();
        break;
      case ProgramInstr::Kind::kEndResidual:
        builder.end_residual();
        break;
      default:
        CSQ_CHECK(false) << "graph program: unknown instruction kind "
                         << static_cast<int>(instr.kind);
    }
  }
  builder.finish();
}

// Per-layer kernel selection, recorded in the program BEFORE replay so the
// persisted artifact (and every replica sharing the program) replays the
// exact same GEMM paths. Instructions that already carry a recorded kind
// (every loaded artifact) keep it; live lowering (kAuto) derives it with
// select_kernel.
void resolve_kernel_selection(GraphProgram& program) {
  for (ProgramInstr& instr : program.instrs) {
    if (instr.kind != ProgramInstr::Kind::kConv &&
        instr.kind != ProgramInstr::Kind::kLinear) {
      continue;
    }
    if (instr.kernel_kind >= 0) continue;  // recorded choice wins
    CSQ_CHECK(instr.layer >= 0 &&
              instr.layer < static_cast<std::int32_t>(program.layers.size()))
        << "graph program: instruction references layer " << instr.layer
        << " of " << program.layers.size();
    const QuantizedLayerExport& layer =
        program.layers[static_cast<std::size_t>(instr.layer)];
    std::int64_t cols = 1;
    for (std::size_t d = 1; d < layer.shape.size(); ++d) {
      cols *= layer.shape[d];
    }
    instr.kernel_kind = static_cast<std::int32_t>(
        PackedIntWeights::select_kernel(layer.codes, layer.bits, cols));
  }
}

}  // namespace

CompiledGraph build_graph(GraphProgram program, const LowerOptions& options) {
  CompiledGraph graph;
  resolve_kernel_selection(program);
  replay_program(*graph.impl_, program, options);
  graph.impl_->program =
      std::make_shared<const GraphProgram>(std::move(program));
  return graph;
}

CompiledGraph replicate(CompiledGraph& graph) {
  CompiledGraph copy;
  replay_program(*copy.impl_, *graph.impl_->program, graph.options());
  copy.impl_->program = graph.impl_->program;  // shared: no deep copy
  copy.restore_edge_scales(graph.edge_scales());
  return copy;
}

CompiledGraph rebuild_replica(std::shared_ptr<const GraphProgram> program,
                              const LowerOptions& options,
                              const std::vector<EdgeScaleRecord>& records) {
  CSQ_CHECK(program != nullptr) << "rebuild_replica: null program";
  CompiledGraph copy;
  replay_program(*copy.impl_, *program, options);
  copy.impl_->program = std::move(program);  // shared: no deep copy
  copy.restore_edge_scales(records);
  return copy;
}

ScopedBorderAuditForTest::ScopedBorderAuditForTest() {
  ScopedBorderAuditForTest* none = nullptr;
  CSQ_CHECK(border_audit.compare_exchange_strong(none, this))
      << "ScopedBorderAuditForTest: an audit is already alive";
}

ScopedBorderAuditForTest::~ScopedBorderAuditForTest() {
  border_audit.store(nullptr);
}

float evaluate_graph_accuracy(CompiledGraph& graph,
                              const InMemoryDataset& dataset,
                              std::int64_t batch_size) {
  DataLoader loader(dataset, batch_size, /*shuffle=*/false, Rng(1));
  Batch batch;
  std::int64_t correct = 0;
  loader.start_epoch();
  while (loader.next(batch)) {
    const Tensor logits = graph.forward(batch.images);
    const std::int64_t classes = logits.dim(1);
    for (std::int64_t b = 0;
         b < static_cast<std::int64_t>(batch.labels.size()); ++b) {
      if (argmax(logits.data() + b * classes, classes) ==
          batch.labels[static_cast<std::size_t>(b)]) {
        ++correct;
      }
    }
  }
  return 100.0f * static_cast<float>(correct) /
         static_cast<float>(dataset.size());
}

}  // namespace runtime
}  // namespace csq
