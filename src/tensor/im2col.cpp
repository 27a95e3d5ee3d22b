#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace csq {

void ConvGeometry::validate() const {
  CSQ_CHECK(channels > 0 && height > 0 && width > 0)
      << "conv geometry: bad input extents";
  CSQ_CHECK(kernel_h > 0 && kernel_w > 0) << "conv geometry: bad kernel";
  CSQ_CHECK(stride > 0) << "conv geometry: stride must be positive";
  CSQ_CHECK(pad >= 0) << "conv geometry: negative padding";
  CSQ_CHECK(height + 2 * pad >= kernel_h && width + 2 * pad >= kernel_w)
      << "conv geometry: kernel larger than padded input";
}

void im2col(const ConvGeometry& geom, const float* image, float* col) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  const std::int64_t col_cols = out_h * out_w;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    const float* channel = image + c * geom.height * geom.width;
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj, ++row) {
        float* col_row = col + row * col_cols;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * geom.stride - geom.pad + ki;
          float* dst = col_row + oy * out_w;
          if (iy < 0 || iy >= geom.height) {
            std::fill(dst, dst + out_w, 0.0f);
            continue;
          }
          const float* src_row = channel + iy * geom.width;
          // ix = ox*stride - pad + kj; copy the in-bounds middle segment in
          // one pass, zero the out-of-bounds edges.
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * geom.stride - geom.pad + kj;
            dst[ox] = (ix >= 0 && ix < geom.width) ? src_row[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void im2col_u8(const ConvGeometry& geom, const std::uint8_t* image,
               std::uint8_t* col, std::uint8_t pad_code) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  const std::int64_t col_cols = out_h * out_w;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    const std::uint8_t* channel = image + c * geom.height * geom.width;
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj, ++row) {
        std::uint8_t* col_row = col + row * col_cols;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * geom.stride - geom.pad + ki;
          std::uint8_t* dst = col_row + oy * out_w;
          if (iy < 0 || iy >= geom.height) {
            std::fill(dst, dst + out_w, pad_code);
            continue;
          }
          const std::uint8_t* src_row = channel + iy * geom.width;
          if (geom.stride == 1) {
            // Unit stride: ix = ox + kj - pad is contiguous — pad the two
            // border zones and memcpy the in-bounds middle (the inference
            // hot path; bytes make this a single wide copy). Both bounds
            // are clamped into [0, out_w]: a kernel wider than the output
            // grid can push the in-bounds window entirely off either edge.
            const std::int64_t ix0 = kj - geom.pad;
            const std::int64_t begin =
                std::clamp<std::int64_t>(-ix0, 0, out_w);
            const std::int64_t end =
                std::clamp<std::int64_t>(geom.width - ix0, begin, out_w);
            std::fill(dst, dst + begin, pad_code);
            if (end > begin) {
              std::memcpy(dst + begin, src_row + ix0 + begin,
                          static_cast<std::size_t>(end - begin));
            }
            std::fill(dst + end, dst + out_w, pad_code);
            continue;
          }
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * geom.stride - geom.pad + kj;
            dst[ox] =
                (ix >= 0 && ix < geom.width) ? src_row[ix] : pad_code;
          }
        }
      }
    }
  }
}

namespace {

// Copies one image row in fixed-size pieces that inline to plain loads and
// stores: 8-byte words, the last one overlapping its neighbour, or two
// overlapping 4-byte pieces, or bytes. CIFAR ResNet-20 rows are 4 to 128
// bytes, where a memcpy call per row costs more than the copy.
inline void copy_row(void* dst, const void* src, std::size_t bytes) {
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  if (bytes >= 8) {
    for (std::size_t i = 0; i + 8 < bytes; i += 8) std::memcpy(d + i, s + i, 8);
    std::memcpy(d + bytes - 8, s + bytes - 8, 8);
  } else if (bytes >= 4) {
    std::memcpy(d, s, 4);
    std::memcpy(d + bytes - 4, s + bytes - 4, 4);
  } else {
    for (std::size_t i = 0; i < bytes; ++i) d[i] = s[i];
  }
}

}  // namespace

void pad_image(const ConvGeometry& geom, const float* image, float* padded) {
  const std::int64_t pad = geom.pad;
  const std::int64_t row = geom.padded_w();
  const std::size_t width_bytes =
      static_cast<std::size_t>(geom.width) * sizeof(float);
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    const float* src = image + c * geom.height * geom.width;
    float* dst = padded + c * geom.padded_h() * row;
    std::fill(dst, dst + pad * row, 0.0f);
    dst += pad * row;
    for (std::int64_t y = 0; y < geom.height; ++y, dst += row) {
      // A 3x3 conv's one-element borders are two stores; a fill loop
      // compiles to two memset calls per row.
      if (pad == 1) {
        dst[0] = 0.0f;
        dst[row - 1] = 0.0f;
      } else {
        std::fill(dst, dst + pad, 0.0f);
        std::fill(dst + pad + geom.width, dst + row, 0.0f);
      }
      copy_row(dst + pad, src + y * geom.width, width_bytes);
    }
    std::fill(dst, dst + pad * row, 0.0f);
  }
}

void col2im(const ConvGeometry& geom, const float* col, float* image) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  const std::int64_t col_cols = out_h * out_w;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.channels; ++c) {
    float* channel = image + c * geom.height * geom.width;
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj, ++row) {
        const float* col_row = col + row * col_cols;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * geom.stride - geom.pad + ki;
          if (iy < 0 || iy >= geom.height) continue;
          float* dst_row = channel + iy * geom.width;
          const float* src = col_row + oy * out_w;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * geom.stride - geom.pad + kj;
            if (ix >= 0 && ix < geom.width) dst_row[ix] += src[ox];
          }
        }
      }
    }
  }
}

}  // namespace csq
