// im2col / col2im transforms for convolution lowering.
//
// A single image (C, H, W) is unfolded into a matrix
//   col[(c*kh + ki)*kw + kj, oy*out_w + ox] = x[c, oy*stride - pad + ki,
//                                               ox*stride - pad + kj]
// (zero where the source index falls in padding), so that a convolution with
// weight (OC, C, kh, kw) becomes one GEMM: out = W_mat(OC, C*kh*kw) * col.
//
// Training does not build this matrix: `gemm_conv` (tensor/gemm.h) packs
// its panels straight from the `pad_image` copy, for the forward, the weight
// gradient and the stride-1 input gradient. `im2col` is the reference
// those panels are checked against, and `im2col_u8` feeds the integer
// runtime's convolutions. `col2im`, the adjoint scatter-add, serves only
// the input gradient of stride > 1 layers. There a zero-dilated transposed
// convolution would multiply stride² times the terms, most of them zeros:
// on ResNet-20 w16's two 3x3 stride-2 layers it took 0.77-0.92 ms per
// 8-sample shard against 0.21-0.27 ms for Wᵀ·dOut plus col2im (serial,
// x86-64 AVX2, 4-vCPU host).
#pragma once

#include <cstdint>

namespace csq {

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const {
    return (height + 2 * pad - kernel_h) / stride + 1;
  }
  std::int64_t out_w() const {
    return (width + 2 * pad - kernel_w) / stride + 1;
  }
  // Rows of the unfolded matrix.
  std::int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  // Columns of the unfolded matrix.
  std::int64_t col_cols() const { return out_h() * out_w(); }
  // Extents of the zero-padded image pad_image writes.
  std::int64_t padded_h() const { return height + 2 * pad; }
  std::int64_t padded_w() const { return width + 2 * pad; }

  // Validates that the geometry yields a positive output grid.
  void validate() const;
};

// image: C*H*W floats; col: col_rows()*col_cols() floats (fully overwritten).
void im2col(const ConvGeometry& geom, const float* image, float* col);

// Integer-runtime variant over unsigned 8-bit activation codes. Padding
// positions take `pad_code` — the code representing the real value zero of
// the producing edge (its zero point), so a zero-padded float convolution
// and the integer one see the same border.
void im2col_u8(const ConvGeometry& geom, const std::uint8_t* image,
               std::uint8_t* col, std::uint8_t pad_code);

// padded: channels*padded_h()*padded_w() floats (fully overwritten), the
// image inside a border of `pad` zeros — the B source of gemm_conv.
void pad_image(const ConvGeometry& geom, const float* image, float* padded);

// Adjoint: accumulates col back into image. `image` must be zeroed by the
// caller when a fresh gradient is wanted.
void col2im(const ConvGeometry& geom, const float* col, float* image);

}  // namespace csq
