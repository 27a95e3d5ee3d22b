#include "nn/conv2d.h"

#include "nn/lowering.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace csq {

Conv2d::Conv2d(const std::string& name, const Conv2dConfig& config,
               const WeightSourceFactory& weight_factory, Rng& rng)
    : config_(config), has_bias_(config.bias) {
  CSQ_CHECK(config.in_channels > 0 && config.out_channels > 0)
      << "conv2d: bad channel counts";
  set_name(name);
  const std::int64_t fan_in =
      config.in_channels * config.kernel * config.kernel;
  weight_source_ = weight_factory(
      name,
      {config.out_channels, config.in_channels, config.kernel, config.kernel},
      fan_in, rng);
  if (has_bias_) {
    bias_ = Parameter(name + ".bias", Tensor({config.out_channels}),
                      /*apply_weight_decay=*/false);
  }
}

ConvGeometry Conv2d::geometry_for(const Tensor& input) const {
  CSQ_CHECK(input.ndim() == 4) << "conv2d expects (B,C,H,W), got "
                               << input.shape_string();
  CSQ_CHECK(input.dim(1) == config_.in_channels)
      << "conv2d " << name() << ": input channels " << input.dim(1)
      << " != " << config_.in_channels;
  ConvGeometry geom;
  geom.channels = config_.in_channels;
  geom.height = input.dim(2);
  geom.width = input.dim(3);
  geom.kernel_h = config_.kernel;
  geom.kernel_w = config_.kernel;
  geom.stride = config_.stride;
  geom.pad = config_.pad;
  geom.validate();
  return geom;
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  const ConvGeometry geom = geometry_for(input);
  const std::int64_t batch = input.dim(0);
  const std::int64_t col_rows = geom.col_rows();
  const std::int64_t col_cols = geom.col_cols();
  const std::int64_t out_c = config_.out_channels;
  const std::int64_t pad_stride =
      geom.channels * geom.padded_h() * geom.padded_w();

  const WeightBinding& binding = weight_source_->binding();
  const float* w_data = binding.weight != nullptr
                            ? binding.weight
                            : weight_source_->weight(training).data();

  // Fully overwritten below (pad + beta=0 GEMM + bias add).
  Tensor output =
      Tensor::uninitialized({batch, out_c, geom.out_h(), geom.out_w()});
  // Training keeps the whole padded batch for backward (memory: B * C *
  // (H + 2 pad) * (W + 2 pad) floats, recycled across steps). Eval never
  // reads it back, so it pads into small per-thread stripes instead of
  // pinning a batch-sized buffer in the grow-once arena (think batch-256
  // validation passes between batch-8 training steps).
  float* padded =
      training
          ? ws_.tensor(kPaddedSlot, {batch, geom.channels, geom.padded_h(),
                                     geom.padded_w()})
                .data()
          : ws_.floats(kPadStripeSlot, pool_slot_count() * pad_stride);

  struct ForwardContext {
    ConvGeometry geom;
    const float* in_data;
    float* out_data;
    float* padded;
    const float* w_data;
    const float* bias;  // null when the layer has no bias
    std::int64_t in_stride, out_stride, pad_stride;
    std::int64_t out_c, col_rows, col_cols;
    bool batch_padded;  // padded indexed by sample (true) or pool slot
  } ctx;
  ctx.geom = geom;
  ctx.in_data = input.data();
  ctx.out_data = output.data();
  ctx.padded = padded;
  ctx.w_data = w_data;
  ctx.bias = has_bias_ ? bias_.value.data() : nullptr;
  ctx.in_stride = geom.channels * geom.height * geom.width;
  ctx.out_stride = out_c * col_cols;
  ctx.pad_stride = pad_stride;
  ctx.out_c = out_c;
  ctx.col_rows = col_rows;
  ctx.col_cols = col_cols;
  ctx.batch_padded = training;

  // Single-reference capture keeps the closure inside std::function's
  // small-buffer optimization (no allocation per dispatch). The bias add is
  // folded into the batch-parallel region instead of a serial post-pass.
  parallel_for(0, batch, [&ctx](std::int64_t b) {
    float* padded =
        ctx.padded + (ctx.batch_padded ? b : pool_slot()) * ctx.pad_stride;
    pad_image(ctx.geom, ctx.in_data + b * ctx.in_stride, padded);
    float* out_b = ctx.out_data + b * ctx.out_stride;
    // out_b(OC, P) = W(OC, K) * im2col(x_b)(K, P)
    gemm_conv(Trans::no, ctx.out_c, 1.0f, ctx.w_data, ctx.col_rows, ctx.geom,
              padded, 0.0f, out_b, ctx.col_cols);
    if (ctx.bias != nullptr) {
      for (std::int64_t oc = 0; oc < ctx.out_c; ++oc) {
        float* plane = out_b + oc * ctx.col_cols;
        const float bias_oc = ctx.bias[oc];
        for (std::int64_t p = 0; p < ctx.col_cols; ++p) plane[p] += bias_oc;
      }
    }
  });

  if (training) {
    cached_geom_ = geom;
    cached_batch_ = batch;
  } else {
    cached_batch_ = 0;
  }
  return output;
}

// Stride 1: dX_b = conv(pad(dOut_b, kernel - 1 - pad), flip(W)), whose
// geometry maps dOut's OH x OW grid back onto H x W. Stride > 1 (and a pad
// beyond kernel - 1) scatter-adds col2im(Wᵀ * dOut_b) instead. Both are
// batch-parallel.
Tensor Conv2d::input_gradient(const Tensor& grad_output, const float* w_data) {
  const ConvGeometry geom = cached_geom_;
  const std::int64_t batch = cached_batch_;
  const std::int64_t col_rows = geom.col_rows();
  const std::int64_t col_cols = geom.col_cols();
  const std::int64_t out_c = config_.out_channels;
  ConvGeometry transposed = geom;
  transposed.channels = out_c;
  transposed.height = geom.out_h();
  transposed.width = geom.out_w();
  transposed.pad = config_.kernel - 1 - config_.pad;
  const bool as_conv = geom.stride == 1 && transposed.pad >= 0;

  Tensor grad_input =
      as_conv ? Tensor::uninitialized(
                    {batch, geom.channels, geom.height, geom.width})
              : Tensor({batch, geom.channels, geom.height, geom.width});

  struct InputGradContext {
    ConvGeometry geom;  // the transposed geometry when as_conv
    const float* w_data;
    const float* go_data;
    float* gi_data;
    float* stripes;  // pool_slot_count() stripes of stripe floats
    std::int64_t out_stride, in_stride, stripe;
    std::int64_t in_c, out_c, col_rows, col_cols;
  } ictx;
  ictx.go_data = grad_output.data();
  ictx.gi_data = grad_input.data();
  ictx.out_stride = out_c * col_cols;
  ictx.in_stride = geom.channels * geom.height * geom.width;
  ictx.in_c = geom.channels;
  ictx.out_c = out_c;

  if (as_conv) {
    // flipped(c, (oc, a, b)) = W(oc, c, kh-1-a, kw-1-b): the (C, OC*kh*kw)
    // weight matrix of the transposed convolution.
    const std::int64_t taps = geom.kernel_h * geom.kernel_w;
    float* flipped = ws_.floats(kFlippedSlot, out_c * col_rows);
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t c = 0; c < geom.channels; ++c) {
        const float* src = w_data + (oc * geom.channels + c) * taps;
        float* dst = flipped + (c * out_c + oc) * taps;
        for (std::int64_t t = 0; t < taps; ++t) dst[t] = src[taps - 1 - t];
      }
    }
    ictx.geom = transposed;
    ictx.w_data = flipped;
    ictx.stripe = out_c * transposed.padded_h() * transposed.padded_w();
    ictx.stripes =
        ws_.floats(kPadStripeSlot, pool_slot_count() * ictx.stripe);
    ictx.col_rows = transposed.col_rows();
    ictx.col_cols = transposed.col_cols();
    parallel_for(0, batch, [&ictx](std::int64_t b) {
      float* padded = ictx.stripes + pool_slot() * ictx.stripe;
      pad_image(ictx.geom, ictx.go_data + b * ictx.out_stride, padded);
      // dX_b(C, H*W) = flipped(C, OC*kh*kw) * im2col(padded dOut_b).
      gemm_conv(Trans::no, ictx.in_c, 1.0f, ictx.w_data, ictx.col_rows,
                ictx.geom, padded, 0.0f, ictx.gi_data + b * ictx.in_stride,
                ictx.col_cols);
    });
  } else {
    ictx.geom = geom;
    ictx.w_data = w_data;
    ictx.stripe = col_rows * col_cols;
    ictx.stripes = ws_.floats(kGradColSlot, pool_slot_count() * ictx.stripe);
    ictx.col_rows = col_rows;
    ictx.col_cols = col_cols;
    parallel_for(0, batch, [&ictx](std::int64_t b) {
      float* grad_col = ictx.stripes + pool_slot() * ictx.stripe;
      // grad_col(K, P) = W^T(K, OC) * dOut_b(OC, P); A = W stored (OC, K).
      gemm(Trans::yes, Trans::no, ictx.col_rows, ictx.col_cols, ictx.out_c,
           1.0f, ictx.w_data, ictx.col_rows,
           ictx.go_data + b * ictx.out_stride, ictx.col_cols, 0.0f, grad_col,
           ictx.col_cols);
      col2im(ictx.geom, grad_col, ictx.gi_data + b * ictx.in_stride);
    });
  }
  return grad_input;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  CSQ_CHECK(cached_batch_ > 0)
      << "conv2d " << name() << ": backward without training forward";
  const ConvGeometry geom = cached_geom_;
  const std::int64_t batch = cached_batch_;
  const std::int64_t col_rows = geom.col_rows();
  const std::int64_t col_cols = geom.col_cols();
  const std::int64_t out_c = config_.out_channels;

  CSQ_CHECK(grad_output.ndim() == 4 && grad_output.dim(0) == batch &&
            grad_output.dim(1) == out_c &&
            grad_output.dim(2) == geom.out_h() &&
            grad_output.dim(3) == geom.out_w())
      << "conv2d " << name() << ": grad_output shape "
      << grad_output.shape_string() << " mismatch";

  // A bound layer reads the shared weight and hands dL/dW to the binding;
  // otherwise it stages dW in its workspace for its own source.
  const WeightBinding& binding = weight_source_->binding();
  const bool bound = binding.weight != nullptr;
  const Tensor* weights =
      bound ? nullptr : &weight_source_->weight(/*training=*/true);
  const float* w_data = bound ? binding.weight : weights->data();

  Tensor grad_input;
  if (input_grad_) grad_input = input_gradient(grad_output, w_data);

  // ---- weight + bias gradients: OC-parallel over disjoint row blocks ----
  Tensor* grad_weight =
      bound ? nullptr : &ws_.tensor(kGradWeightSlot, weights->shape());

  struct WeightGradContext {
    ConvGeometry geom;
    const float* go_data;
    const float* padded;
    float* gw_data;
    float* gb_data;  // null when the layer has no bias
    std::int64_t batch, out_stride, pad_stride;
    std::int64_t col_rows, col_cols;
  } wctx;
  wctx.geom = geom;
  wctx.go_data = grad_output.data();
  wctx.padded = ws_.peek(kPaddedSlot).data();
  wctx.gw_data = bound ? binding.grad : grad_weight->data();
  wctx.gb_data = has_bias_ ? bias_.grad.data() : nullptr;
  wctx.batch = batch;
  wctx.out_stride = out_c * col_cols;
  wctx.pad_stride = geom.channels * geom.padded_h() * geom.padded_w();
  wctx.col_rows = col_rows;
  wctx.col_cols = col_cols;

  parallel_for_chunked(0, out_c, [&wctx](std::int64_t oc_begin,
                                         std::int64_t oc_end) {
    const std::int64_t rows = oc_end - oc_begin;
    for (std::int64_t b = 0; b < wctx.batch; ++b) {
      // gW[oc,:] += dOut_b[oc,:] * im2col(x_b)ᵀ — NT over the row block.
      gemm_conv(Trans::yes, rows, 1.0f,
                wctx.go_data + b * wctx.out_stride + oc_begin * wctx.col_cols,
                wctx.col_cols, wctx.geom, wctx.padded + b * wctx.pad_stride,
                b == 0 ? 0.0f : 1.0f, wctx.gw_data + oc_begin * wctx.col_rows,
                wctx.col_rows);
    }
    if (wctx.gb_data != nullptr) {
      // Bias gradient folded into the same disjoint OC ownership: each
      // channel sums its dOut plane over the batch in a fixed order, so
      // pooled and serial execution agree.
      for (std::int64_t oc = oc_begin; oc < oc_end; ++oc) {
        float acc = 0.0f;
        for (std::int64_t b = 0; b < wctx.batch; ++b) {
          const float* plane =
              wctx.go_data + b * wctx.out_stride + oc * wctx.col_cols;
          for (std::int64_t p = 0; p < wctx.col_cols; ++p) acc += plane[p];
        }
        wctx.gb_data[oc] += acc;
      }
    }
  });
  if (!bound) weight_source_->backward(*grad_weight);

  cached_batch_ = 0;
  return grad_input;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  weight_source_->collect_parameters(out);
  if (has_bias_) out.push_back(&bias_);
}

void Conv2d::lower(GraphLowering& lowering) { lowering.lower_conv2d(*this); }

}  // namespace csq
