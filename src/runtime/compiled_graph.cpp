#include "runtime/compiled_graph.h"

#include <algorithm>
#include <array>
#include <cmath>

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

  std::int64_t per_sample() const { return channels * height * width; }
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

  std::uint8_t* u8(int edge) {
    const EdgeData& e = edges[static_cast<std::size_t>(edge)];
    return ws->bytes(e.slot, batch * e.per_sample());
  }
  std::int32_t* i32(int edge) {
    const EdgeData& e = edges[static_cast<std::size_t>(edge)];
    return ws->ints(e.slot, batch * e.per_sample());
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

class Op {
 public:
  virtual ~Op() = default;
  virtual void run_int(CompiledGraph::Impl& g) = 0;
  virtual void run_float(CompiledGraph::Impl& g) = 0;
  // Resolves requantization constants once every edge scale is known.
  virtual void finalize(CompiledGraph::Impl& g) { (void)g; }
  // Frees buffers only the float reference walk needs (re-materialized on
  // demand if another walk runs).
  virtual void release_float_cache() {}
  // Grows op-private scratch for the given batch.
  virtual void prepare(CompiledGraph::Impl& g, std::int64_t batch) {
    (void)g;
    (void)batch;
  }
  // Installs the workspace slot of the op's private scratch buffer (a
  // padding conv's padded stripes, the linear accumulator). Called by the
  // buffer planner after the walk; ops without scratch ignore it.
  virtual void set_scratch_slot(int slot) { (void)slot; }
};

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

  void run_int(CompiledGraph::Impl& g) override {
    const EdgeData& e = g.edges[static_cast<std::size_t>(out_edge_)];
    const float* in = g.run_input->data();
    std::uint8_t* out = g.u8(out_edge_);
    const std::int64_t stride = e.per_sample();
    const float inv_scale = 1.0f / e.scale;
    const auto zp = static_cast<float>(e.zero_point);
    const float levels = e.levels;
    for_each_sample(g.pooled, g.batch, [&](std::int64_t b) {
      const float* src = in + b * stride;
      std::uint8_t* dst = out + b * stride;
      for (std::int64_t i = 0; i < stride; ++i) {
        dst[i] = round_clamp_code(src[i] * inv_scale + zp, levels);
      }
    });
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

  const PackedIntWeights& weights() const { return weights_; }
  void release_float_cache() override {
    float_weights_.clear();
    float_weights_.shrink_to_fit();
  }
  void set_scratch_slot(int slot) override { pad_slot_ = slot; }

  // Elements of one padded sample; 0 when the convolution does not pad and
  // reads its input edge in place.
  std::int64_t padded_size() const {
    return geom_.pad > 0
               ? geom_.channels * geom_.padded_h() * geom_.padded_w()
               : 0;
  }

  void prepare(CompiledGraph::Impl& g, std::int64_t batch) override {
    (void)batch;
    if (padded_size() > 0) {
      g.ws->bytes(pad_slot_, pool_slot_count() * padded_size());
    }
  }

  void run_int(CompiledGraph::Impl& g) override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::uint8_t* src = g.u8(in_edge_);
    // One padded stripe per pool slot, bordered with the edge's zero point.
    std::uint8_t* pad_base =
        padded_size() > 0
            ? g.ws->bytes(pad_slot_, pool_slot_count() * padded_size())
            : nullptr;
    std::int32_t* acc = g.i32(acc_edge_);
    const std::int64_t acc_stride =
        g.edges[static_cast<std::size_t>(acc_edge_)].per_sample();
    const auto pad_code = static_cast<std::uint8_t>(in.zero_point);
    // Parallelism picks the outermost productive level: larger batches
    // split across samples; batches at or below the sample-loop's pooling
    // threshold (kParallelForSerialThreshold) run pooled GEMMs instead so
    // latency-critical small requests still fan out. These GEMMs are the
    // canonical wide-N/small-M shape (m = out_channels, one MC tile; n =
    // spatial positions), so the kAuto split resolves to the column split —
    // a batch-1 conv forward now uses the whole pool instead of one core.
    const bool gemm_pooled =
        g.pooled && g.batch <= kParallelForSerialThreshold;
    for_each_sample(g.pooled, g.batch, [&](std::int64_t b) {
      const std::uint8_t* image = src + b * in.per_sample();
      if (pad_base != nullptr) {
        std::uint8_t* stripe = pad_base + pool_slot() * padded_size();
        pad_image(geom_, image, stripe, pad_code);
        image = stripe;
      }
      // acc_b(OC, P) = W_codes(OC, K) * im2col_u8(x_b)(K, P), never built.
      weights_.gemm_conv(geom_, image, acc + b * acc_stride,
                         geom_.col_cols(), gemm_pooled);
    });
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
    std::vector<float> padded(static_cast<std::size_t>(padded_size()));
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
  int in_edge_;
  int acc_edge_;
  ConvGeometry geom_;
  PackedIntWeights weights_;
  std::vector<float> float_weights_;
  int pad_slot_ = -1;
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
  }

  void run_int(CompiledGraph::Impl& g) override {
    switch (skip_.kind) {
      case SkipTerm::Kind::kNone:
        return sweep<NoSkip>(g, nullptr);
      case SkipTerm::Kind::kAcc:
        return sweep(g, g.i32(skip_.edge));
      case SkipTerm::Kind::kCodes:
        return sweep(g, g.u8(skip_.edge));
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
  template <typename Skip>
  void sweep(CompiledGraph::Impl& g, const Skip* skip) {
    const std::int32_t* acc = g.i32(main_.acc_edge);
    std::uint8_t* out = g.u8(out_edge_);
    const std::int64_t plane = main_.plane;
    const std::int64_t stride = main_.channels * plane;
    const float levels = g.edges[static_cast<std::size_t>(out_edge_)].levels;
    for_each_sample(g.pooled, g.batch, [&](std::int64_t b) {
      for (std::int64_t ch = 0; ch < main_.channels; ++ch) {
        const std::int64_t base = b * stride + ch * plane;
        const Skip* skip_at = nullptr;
        if constexpr (kHasSkip<Skip>) skip_at = skip + base;
        // The clamp at zero IS the fused ReLU (negative pre-activations
        // fall below code 0 because the output zero point is 0).
        const auto c = static_cast<std::size_t>(ch);
        requant_span(acc + base, skip_at, out + base, plane, main_.mul[c],
                     mul2_[c], add_[c], levels);
      }
    });
  }

  AccRequant main_;
  SkipTerm skip_;
  int out_edge_;
  std::vector<float> mul2_, add_;  // per channel, resolved in finalize()
};

// ------------------------------------------------------------- pooling --

class MaxPoolOp final : public Op {
 public:
  MaxPoolOp(int in_edge, int out_edge, const Pool2dConfig& config)
      : in_edge_(in_edge), out_edge_(out_edge), config_(config) {}

  void run_int(CompiledGraph::Impl& g) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& out_e = g.edges[static_cast<std::size_t>(out_edge_)];
    const std::uint8_t* in = g.u8(in_edge_);
    std::uint8_t* out = g.u8(out_edge_);
    for_each_sample(g.pooled, g.batch, [&](std::int64_t b) {
      pool_sample<std::uint8_t>(in_e, out_e, in + b * in_e.per_sample(),
                                out + b * out_e.per_sample());
    });
  }

  void run_float(CompiledGraph::Impl& g) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const EdgeData& out_e = g.edges[static_cast<std::size_t>(out_edge_)];
    const float* in = g.f32(in_edge_);
    float* out = g.f32(out_edge_);
    for (std::int64_t b = 0; b < g.batch; ++b) {
      pool_sample<float>(in_e, out_e, in + b * in_e.per_sample(),
                         out + b * out_e.per_sample());
    }
  }

 private:
  // Max over the in-bounds window only — padded taps are the implicit -inf
  // of the float module, and the max is order-preserving on codes, so the
  // integer and float walks pick the same taps.
  template <typename T>
  void pool_sample(const EdgeData& in_e, const EdgeData& out_e, const T* in,
                   T* out) const {
    for (std::int64_t c = 0; c < in_e.channels; ++c) {
      const T* plane = in + c * in_e.height * in_e.width;
      T* dst = out + c * out_e.height * out_e.width;
      for (std::int64_t oy = 0; oy < out_e.height; ++oy) {
        for (std::int64_t ox = 0; ox < out_e.width; ++ox) {
          std::int64_t y0, y1, x0, x1;
          config_.window(oy, config_.kernel_h, in_e.height, y0, y1);
          config_.window(ox, config_.kernel_w, in_e.width, x0, x1);
          T best = plane[y0 * in_e.width + x0];
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

  int in_edge_;
  int out_edge_;
  Pool2dConfig config_;
};

class GlobalAvgPoolOp final : public Op {
 public:
  GlobalAvgPoolOp(int in_edge, int out_edge)
      : in_edge_(in_edge), out_edge_(out_edge) {}

  void run_int(CompiledGraph::Impl& g) override {
    const EdgeData& in_e = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::uint8_t* in = g.u8(in_edge_);
    std::uint8_t* out = g.u8(out_edge_);
    const std::int64_t channels = in_e.channels;
    const std::int64_t plane = in_e.height * in_e.width;
    for_each_sample(g.pooled, g.batch, [&](std::int64_t b) {
      const std::uint8_t* src = in + b * channels * plane;
      std::uint8_t* dst = out + b * channels;
      for (std::int64_t ch = 0; ch < channels; ++ch) {
        std::int64_t sum = 0;
        const std::uint8_t* values = src + ch * plane;
        for (std::int64_t p = 0; p < plane; ++p) sum += values[p];
        // Integer round-half-up mean; codes are unsigned so this matches
        // round-to-nearest. Same scale as the input edge (derived).
        dst[ch] = static_cast<std::uint8_t>((2 * sum + plane) / (2 * plane));
      }
    });
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

class LinearOp final : public Op {
 public:
  LinearOp(int in_edge, PackedIntWeights weights, std::vector<float> bias)
      : in_edge_(in_edge),
        weights_(std::move(weights)),
        bias_(std::move(bias)) {}

  const PackedIntWeights& weights() const { return weights_; }
  std::int64_t out_features() const { return weights_.rows(); }
  void release_float_cache() override {
    float_weights_.clear();
    float_weights_.shrink_to_fit();
  }
  void set_scratch_slot(int slot) override { acc_slot_ = slot; }

  void prepare(CompiledGraph::Impl& g, std::int64_t batch) override {
    g.ws->ints(acc_slot_, weights_.rows() * batch);
  }

  void run_int(CompiledGraph::Impl& g) override {
    const EdgeData& in = g.edges[static_cast<std::size_t>(in_edge_)];
    const std::int64_t out_f = weights_.rows();
    const std::int64_t in_f = weights_.cols();
    std::int32_t* acc = g.ws->ints(acc_slot_, out_f * g.batch);
    // acc(OUT, B) = W_codes(OUT, IN) * X^T — the one top-level integer GEMM.
    // n here is the BATCH (kAuto keeps the row split: at batch 1 there is a
    // single output column, so there is nothing for a column split to carve;
    // the head matmul only fans out via its m = OUT row tiles).
    weights_.gemm(Trans::yes, g.batch, g.u8(in_edge_), in_f, acc, g.batch,
                  g.pooled);

    g.run_output = Tensor::uninitialized({g.batch, out_f});
    float* logits = g.run_output.data();
    const float step = weights_.effective_step();
    const float s_in = in.scale;
    const std::int32_t zp = in.zero_point;
    for (std::int64_t o = 0; o < out_f; ++o) {
      const float combined = step * s_in;
      const float offset =
          bias_.empty() ? 0.0f : bias_[static_cast<std::size_t>(o)];
      const std::int64_t zp_correction =
          zp * weights_.row_code_sums()[static_cast<std::size_t>(o)];
      const std::int32_t* row = acc + o * g.batch;
      for (std::int64_t b = 0; b < g.batch; ++b) {
        logits[b * out_f + o] =
            combined * static_cast<float>(static_cast<std::int64_t>(row[b]) -
                                          zp_correction) +
            offset;
      }
    }
  }

  void run_float(CompiledGraph::Impl& g) override {
    const std::int64_t out_f = weights_.rows();
    const std::int64_t in_f = weights_.cols();
    g.run_output = Tensor::uninitialized({g.batch, out_f});
    const std::vector<float>& w = float_weights(weights_, float_weights_);
    gemm(Trans::no, Trans::yes, g.batch, out_f, in_f, 1.0f, g.f32(in_edge_),
         in_f, w.data(), in_f, 0.0f, g.run_output.data(), out_f);
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
  int in_edge_;
  PackedIntWeights weights_;
  std::vector<float> float_weights_;
  std::vector<float> bias_;
  int acc_slot_ = -1;
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
      ws->ints(e.slot, new_batch * e.per_sample());
    } else {
      ws->bytes(e.slot, new_batch * e.per_sample());
    }
  }
  for (auto& op : ops) op->prepare(*this, new_batch);
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

void CompiledGraph::Impl::run_int_all() {
  prepare(batch);
  for (auto& op : ops) op->run_int(*this);
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
                            static_cast<WeightKernel>(instr.kernel_kind));
    const int acc = new_acc_edge(out_channels, geom.out_h(), geom.out_w());

    auto op = std::make_unique<ConvOp>(in, acc, geom, std::move(packed));
    const ConvOp* raw = op.get();
    record_layer(layer.name, raw->weights());
    add_op(std::move(op), {in}, {acc},
           geom.pad > 0 ? ScratchKind::kByte : ScratchKind::kNone);

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
    const EdgeData& in_e = g_.edges[static_cast<std::size_t>(in)];
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

    PackedIntWeights packed(layer.codes, layer.step(), layer.bits,
                            out_features, in_features,
                            static_cast<WeightKernel>(instr.kernel_kind));
    auto op = std::make_unique<LinearOp>(in, std::move(packed), instr.bias);
    record_layer(layer.name, op->weights());
    g_.out_features = out_features;
    add_op(std::move(op), {in}, {}, ScratchKind::kInt);
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
    plan_slots();
    const int slots =
        std::max({g_.byte_slots_used, g_.int_slots_used, 1});
    g_.ws = std::make_unique<Workspace>(slots);
  }

 private:
  enum class ScratchKind { kNone, kByte, kInt };

  // Edge traffic of one op, in topological (execution) order — the liveness
  // intervals the buffer planner colors.
  struct OpMeta {
    std::vector<int> reads;
    std::vector<int> writes;
    ScratchKind scratch = ScratchKind::kNone;
  };

  void add_op(std::unique_ptr<Op> op, std::vector<int> reads,
              std::vector<int> writes,
              ScratchKind scratch = ScratchKind::kNone) {
    g_.ops.push_back(std::move(op));
    op_meta_.push_back(OpMeta{std::move(reads), std::move(writes), scratch});
  }

  // Assigns every edge (and op scratch buffer) its workspace slot. Planned
  // mode colors the liveness intervals over the op order: an edge's slot
  // returns to its class free list after the edge's last consumer, and ops'
  // private scratch (padded conv inputs, linear accumulator) lives only for
  // its own op — so all padding convolutions share one set of padded-image
  // stripes, sized for the largest. Outputs and
  // scratch of op i never recycle a slot freed AT op i (an op must not
  // write into a buffer it is still reading), which keeps planned and
  // unplanned graphs bit-identical.
  void plan_slots() {
    const int n_ops = static_cast<int>(g_.ops.size());
    if (!g_.options.plan_buffers) {
      // Baseline policy: one dedicated slot per edge / scratch buffer for
      // the graph's lifetime (the memory-regression comparison point).
      for (EdgeData& e : g_.edges) {
        e.slot = e.is_acc ? g_.int_slots_used++ : g_.byte_slots_used++;
      }
      for (int i = 0; i < n_ops; ++i) {
        if (op_meta_[static_cast<std::size_t>(i)].scratch ==
            ScratchKind::kByte) {
          g_.ops[static_cast<std::size_t>(i)]->set_scratch_slot(
              g_.byte_slots_used++);
        } else if (op_meta_[static_cast<std::size_t>(i)].scratch ==
                   ScratchKind::kInt) {
          g_.ops[static_cast<std::size_t>(i)]->set_scratch_slot(
              g_.int_slots_used++);
        }
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
      int scratch = -1;
      if (meta.scratch == ScratchKind::kByte) {
        scratch = take(free_bytes, g_.byte_slots_used);
      } else if (meta.scratch == ScratchKind::kInt) {
        scratch = take(free_ints, g_.int_slots_used);
      }
      if (scratch >= 0) {
        g_.ops[static_cast<std::size_t>(i)]->set_scratch_slot(scratch);
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
      if (meta.scratch == ScratchKind::kByte) {
        free_bytes.push_back(scratch);
      } else if (meta.scratch == ScratchKind::kInt) {
        free_ints.push_back(scratch);
      }
    }
    for (std::size_t e = 0; e < g_.edges.size(); ++e) {
      CSQ_CHECK(g_.edges[e].slot >= 0)
          << "buffer plan: edge " << e << " was never written";
    }
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
  records.reserve(impl_->edges.size());
  for (const EdgeData& e : impl_->edges) {
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
  CSQ_CHECK(records.size() == g.edges.size())
      << "graph artifact: edge count " << records.size()
      << " does not match the program's " << g.edges.size();
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
