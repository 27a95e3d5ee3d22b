// Pooling and shape modules: max pooling with independent kernel, stride
// and padding (non-square kernels, non-tiling maps), global average pooling
// (ResNet/VGG heads) and flatten.
#pragma once

#include <vector>

#include "nn/module.h"

namespace csq {

// Window geometry of max pooling. Output extents use floor division —
// windows may overlap (stride < kernel) or drop trailing rows/columns
// (non-tiling maps). Padding is implicit: padded taps are -inf, so they are
// never selected.
struct Pool2dConfig {
  std::int64_t kernel_h = 2;
  std::int64_t kernel_w = 2;
  std::int64_t stride = 2;
  std::int64_t pad = 0;

  std::int64_t out_h(std::int64_t height) const {
    return (height + 2 * pad - kernel_h) / stride + 1;
  }
  std::int64_t out_w(std::int64_t width) const {
    return (width + 2 * pad - kernel_w) / stride + 1;
  }

  // In-bounds taps [lo, hi) of the window at `out_pos` along one axis
  // (`kernel` is kernel_h or kernel_w, `extent` the matching input size);
  // positions outside [lo, hi) are the implicit padding. The ONE copy of
  // the boundary arithmetic both MaxPool2d and the integer runtime's pool
  // op use.
  void window(std::int64_t out_pos, std::int64_t kernel, std::int64_t extent,
              std::int64_t& lo, std::int64_t& hi) const {
    lo = out_pos * stride - pad;
    if (lo < 0) lo = 0;
    hi = out_pos * stride - pad + kernel;
    if (hi > extent) hi = extent;
  }

  // kernel/stride >= 1, 0 <= pad < min(kernel_h, kernel_w) — every window
  // covers at least one real tap. Throws check_error otherwise.
  void validate(const char* name) const;

  // Square non-overlapping pooling (the VGG shape): stride == kernel.
  static Pool2dConfig square(std::int64_t kernel) {
    return Pool2dConfig{kernel, kernel, kernel, 0};
  }
};

// Max pooling over Pool2dConfig windows.
class MaxPool2d final : public Module {
 public:
  MaxPool2d(const std::string& name, std::int64_t kernel);
  MaxPool2d(const std::string& name, const Pool2dConfig& config);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  const char* kind() const override { return "maxpool2d"; }
  void lower(GraphLowering& lowering) override;
  const Pool2dConfig& config() const { return config_; }

 private:
  Pool2dConfig config_;
  std::vector<std::int64_t> cached_argmax_;  // flat input index per output
  std::vector<std::int64_t> cached_input_shape_;
};

// (B, C, H, W) -> (B, C): mean over the spatial grid.
class GlobalAvgPool final : public Module {
 public:
  explicit GlobalAvgPool(const std::string& name) { set_name(name); }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  const char* kind() const override { return "global_avg_pool"; }
  void lower(GraphLowering& lowering) override;

 private:
  std::vector<std::int64_t> cached_input_shape_;
};

// (B, C, H, W) -> (B, C*H*W).
class Flatten final : public Module {
 public:
  explicit Flatten(const std::string& name) { set_name(name); }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  const char* kind() const override { return "flatten"; }
  void lower(GraphLowering& lowering) override;

 private:
  std::vector<std::int64_t> cached_input_shape_;
};

}  // namespace csq
