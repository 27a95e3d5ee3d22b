#include "nn/pooling.h"

#include <algorithm>
#include <limits>

#include "nn/lowering.h"
#include "util/check.h"

namespace csq {

void Pool2dConfig::validate(const char* name) const {
  CSQ_CHECK(kernel_h >= 1 && kernel_w >= 1)
      << "pool " << name << ": bad kernel " << kernel_h << "x" << kernel_w;
  CSQ_CHECK(stride >= 1) << "pool " << name << ": bad stride " << stride;
  CSQ_CHECK(pad >= 0 && pad < kernel_h && pad < kernel_w)
      << "pool " << name << ": padding " << pad
      << " must be smaller than the kernel";
}

void MaxPool2d::lower(GraphLowering& lowering) {
  lowering.lower_maxpool(config_);
}

void GlobalAvgPool::lower(GraphLowering& lowering) {
  lowering.lower_global_avg_pool();
}

void Flatten::lower(GraphLowering& lowering) { lowering.lower_flatten(); }

MaxPool2d::MaxPool2d(const std::string& name, std::int64_t kernel)
    : MaxPool2d(name, Pool2dConfig::square(kernel)) {}

MaxPool2d::MaxPool2d(const std::string& name, const Pool2dConfig& config)
    : config_(config) {
  config_.validate(name.c_str());
  set_name(name);
}

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  CSQ_CHECK(input.ndim() == 4) << "maxpool expects (B,C,H,W)";
  CSQ_CHECK(config_.out_h(input.dim(2)) >= 1 &&
            config_.out_w(input.dim(3)) >= 1)
      << "maxpool " << name() << ": input " << input.shape_string()
      << " smaller than the " << config_.kernel_h << "x" << config_.kernel_w
      << " window";
  const std::int64_t batch = input.dim(0);
  const std::int64_t channels = input.dim(1);
  const std::int64_t height = input.dim(2);
  const std::int64_t width = input.dim(3);
  const std::int64_t out_h = config_.out_h(height);
  const std::int64_t out_w = config_.out_w(width);

  Tensor output({batch, channels, out_h, out_w});
  std::vector<std::int64_t> argmax(
      static_cast<std::size_t>(output.numel()));
  const float* in = input.data();
  float* out = output.data();

  std::int64_t out_index = 0;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = in + (b * channels + c) * height * width;
      const std::int64_t plane_base = (b * channels + c) * height * width;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox, ++out_index) {
          // Padded taps are implicit -inf: the max runs over the in-bounds
          // window only (validate() guarantees it is non-empty).
          std::int64_t y0, y1, x0, x1;
          config_.window(oy, config_.kernel_h, height, y0, y1);
          config_.window(ox, config_.kernel_w, width, x0, x1);
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_index = 0;
          for (std::int64_t iy = y0; iy < y1; ++iy) {
            for (std::int64_t ix = x0; ix < x1; ++ix) {
              const float value = plane[iy * width + ix];
              if (value > best) {
                best = value;
                best_index = plane_base + iy * width + ix;
              }
            }
          }
          out[out_index] = best;
          argmax[static_cast<std::size_t>(out_index)] = best_index;
        }
      }
    }
  }

  if (training) {
    cached_argmax_ = std::move(argmax);
    cached_input_shape_ = input.shape();
  } else {
    cached_argmax_.clear();
  }
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  CSQ_CHECK(!cached_argmax_.empty())
      << "maxpool " << name() << ": backward without training forward";
  CSQ_CHECK(grad_output.numel() ==
            static_cast<std::int64_t>(cached_argmax_.size()))
      << "maxpool " << name() << ": grad size mismatch";
  Tensor grad_input(cached_input_shape_);
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  // Scatter-add: with stride < kernel the windows overlap, so one input tap
  // can win several windows and accumulates their gradients.
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    gi[cached_argmax_[static_cast<std::size_t>(i)]] += go[i];
  }
  cached_argmax_.clear();
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  CSQ_CHECK(input.ndim() == 4) << "global_avg_pool expects (B,C,H,W)";
  const std::int64_t batch = input.dim(0);
  const std::int64_t channels = input.dim(1);
  const std::int64_t plane = input.dim(2) * input.dim(3);

  Tensor output({batch, channels});
  const float* in = input.data();
  float* out = output.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* src = in + (b * channels + c) * plane;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < plane; ++p) acc += src[p];
      out[b * channels + c] = acc / static_cast<float>(plane);
    }
  }
  if (training) cached_input_shape_ = input.shape();
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  CSQ_CHECK(!cached_input_shape_.empty())
      << "global_avg_pool " << name() << ": backward without forward";
  const std::int64_t batch = cached_input_shape_[0];
  const std::int64_t channels = cached_input_shape_[1];
  const std::int64_t plane = cached_input_shape_[2] * cached_input_shape_[3];
  CSQ_CHECK(grad_output.ndim() == 2 && grad_output.dim(0) == batch &&
            grad_output.dim(1) == channels)
      << "global_avg_pool " << name() << ": grad shape mismatch";

  Tensor grad_input(cached_input_shape_);
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  const float inv_plane = 1.0f / static_cast<float>(plane);
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float value = go[b * channels + c] * inv_plane;
      float* dst = gi + (b * channels + c) * plane;
      for (std::int64_t p = 0; p < plane; ++p) dst[p] = value;
    }
  }
  cached_input_shape_.clear();
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool training) {
  CSQ_CHECK(input.ndim() >= 2) << "flatten expects at least 2-d input";
  if (training) cached_input_shape_ = input.shape();
  const std::int64_t batch = input.dim(0);
  return input.reshaped({batch, input.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  CSQ_CHECK(!cached_input_shape_.empty())
      << "flatten " << name() << ": backward without forward";
  Tensor grad = grad_output.reshaped(cached_input_shape_);
  cached_input_shape_.clear();
  return grad;
}

}  // namespace csq
