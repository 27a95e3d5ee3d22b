// Shared helpers for the csq test suite: numeric gradient checking against
// the layers' analytic backward passes, small tensor factories, server
// options that park a serving worker, golden-artifact mutation, the
// integer kernel tests that run on both integer ISAs, the integer
// headroom edges, and the channels-last images and naive convolution the
// integer conv tests check against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "serve/batching_server.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace csq::testing {

// The committed v6 graph artifact (tests/data/golden_v6.csqm).
inline std::string golden_v6_path() {
  return std::string(CSQ_TEST_DATA_DIR) + "/golden_v6.csqm";
}

inline std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream sink;
  sink << in.rdbuf();
  return sink.str();
}

inline void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Appends a fresh CRC-32 trailer to an artifact payload, so a mutant gets
// past the integrity check and reaches the field validators.
inline std::string reseal(std::string payload) {
  const std::uint32_t checksum = crc32(payload.data(), payload.size());
  payload.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return payload;
}

// golden_v6.csqm without its CRC trailer.
inline std::string golden_v6_payload() {
  const std::string bytes = read_bytes(golden_v6_path());
  EXPECT_EQ(bytes.size(), 5441u);
  return bytes.substr(0, bytes.size() - sizeof(std::uint32_t));
}

// Fills a tensor with reproducible uniform values in [lo, hi].
inline Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng,
                            float lo = -1.0f, float hi = 1.0f) {
  Tensor tensor(std::move(shape));
  float* data = tensor.data();
  for (std::int64_t i = 0; i < tensor.numel(); ++i) {
    data[i] = rng.uniform(lo, hi);
  }
  return tensor;
}

// Scalar probe loss L = sum_i out_i * probe_i. Its gradient w.r.t. the
// output is exactly `probe`, which seeds every gradcheck below.
inline float probe_loss(const Tensor& output, const Tensor& probe) {
  EXPECT_TRUE(output.same_shape(probe));
  double acc = 0.0;
  for (std::int64_t i = 0; i < output.numel(); ++i) {
    acc += static_cast<double>(output[i]) * probe[i];
  }
  return static_cast<float>(acc);
}

// Central-difference derivative of f at x.
inline double numeric_derivative(const std::function<double(float)>& f,
                                 float x, float eps = 1e-3f) {
  return (f(x + eps) - f(x - eps)) / (2.0 * static_cast<double>(eps));
}

// Checks |a - b| <= atol + rtol * max(|a|, |b|).
inline void expect_close(double a, double b, double rtol = 5e-2,
                         double atol = 1e-4) {
  const double tolerance = atol + rtol * std::max(std::fabs(a), std::fabs(b));
  EXPECT_NEAR(a, b, tolerance) << "values " << a << " vs " << b;
}

// Gradcheck for a module's input gradient: compares analytic backward
// against central differences on a probe loss, at `samples` random input
// coordinates.
inline void check_input_gradient(Module& module, Tensor input, Rng& rng,
                                 int samples = 6, double rtol = 5e-2) {
  Tensor base_out = module.forward(input, /*training=*/true);
  Tensor probe = random_tensor(base_out.shape(), rng);
  Tensor grad_in = module.backward(probe);
  ASSERT_TRUE(grad_in.same_shape(input));

  for (int check = 0; check < samples; ++check) {
    const std::int64_t index =
        static_cast<std::int64_t>(rng.uniform_int(
            static_cast<std::uint32_t>(input.numel())));
    const float original = input[index];
    // Training-mode forward in the probes: layers such as BatchNorm compute
    // different (batch-statistic) functions in training mode, and the
    // analytic gradient under test is the training-mode one.
    const double numeric = numeric_derivative(
        [&](float x) {
          input[index] = x;
          Tensor out = module.forward(input, /*training=*/true);
          return static_cast<double>(probe_loss(out, probe));
        },
        original);
    input[index] = original;
    expect_close(grad_in[index], numeric, rtol, 2e-3);
  }
}

// Gradcheck for a module's parameter gradients: for each parameter, probes
// up to `samples` random coordinates.
inline void check_parameter_gradients(Module& module, const Tensor& input,
                                      Rng& rng, int samples = 4,
                                      double rtol = 5e-2) {
  std::vector<Parameter*> params;
  module.collect_parameters(params);
  ASSERT_FALSE(params.empty());

  Tensor base_out = module.forward(input, /*training=*/true);
  Tensor probe = random_tensor(base_out.shape(), rng);
  for (Parameter* param : params) param->zero_grad();
  module.forward(input, /*training=*/true);  // rebuild caches post-zero
  module.backward(probe);

  for (Parameter* param : params) {
    for (int check = 0; check < samples; ++check) {
      const std::int64_t index = static_cast<std::int64_t>(rng.uniform_int(
          static_cast<std::uint32_t>(param->value.numel())));
      const float original = param->value[index];
      const double numeric = numeric_derivative(
          [&](float x) {
            param->value[index] = x;
            param->mark_updated();  // direct-mutation contract
            Tensor out = module.forward(input, /*training=*/true);
            return static_cast<double>(probe_loss(out, probe));
          },
          original);
      param->value[index] = original;
      param->mark_updated();
      SCOPED_TRACE(param->name + " index " + std::to_string(index));
      expect_close(param->grad[index], numeric, rtol, 2e-3);
    }
  }
}

// Options for parking a shard worker before it pops a request: arm the
// `serve.worker_batch` failpoint before start() and a worker reaching the
// top of its batch loop throws, quarantines its replica and sleeps out
// `restore_backoff_us` before it serves (stop() cuts the backoff short).
// Requests queue up meanwhile — a deterministic stand-in for a wedged or
// busy worker. The ring holds exactly max_batch requests.
inline serve::ServerOptions parked_worker_options(
    std::int64_t max_batch = 1, std::int64_t restore_backoff_us = 10'000'000) {
  serve::ServerOptions options;
  options.max_batch = max_batch;
  options.queue_capacity = max_batch;
  options.restore_backoff_us = restore_backoff_us;
  return options;
}

// Why the AVX2 twin of an integer kernel test cannot add coverage here, or
// "" when it runs: the build has no AVX2 kernels, or the host already runs
// them unforced.
inline std::string forced_avx2_skip_reason() {
  if (!gemm_int_isa_supported(GemmIntIsa::kAvx2)) {
    return "this build has no AVX2 integer kernels (portable build)";
  }
  if (std::string(gemm_int_kernel_isa()) == "avx2") {
    return "the host runs the AVX2 integer kernels unforced";
  }
  return "";
}

// One sample of a (C, H, W) uint8 image laid out as the compiled graph
// keeps its activations: channels-last, inside a border of `border` pixels
// of `fill`, in rows of `pitch` = W + 2 border pixels, then `tail` bytes of
// `tail_fill` that only the discarded grid positions of a convolution
// read.
struct NhwcImage {
  std::vector<std::uint8_t> bytes;
  std::int64_t pitch = 0;
  std::int64_t border = 0;
  std::int64_t channels = 0;
  // The window origin of a convolution with padding `pad` <= border.
  const std::uint8_t* origin(std::int64_t pad) const {
    return bytes.data() + ((border - pad) * pitch + border - pad) * channels;
  }
};

inline NhwcImage nhwc_image(std::int64_t channels, std::int64_t height,
                            std::int64_t width, const std::uint8_t* chw,
                            std::int64_t border, std::uint8_t fill,
                            std::int64_t tail, std::uint8_t tail_fill) {
  NhwcImage image;
  image.pitch = width + 2 * border;
  image.border = border;
  image.channels = channels;
  const std::int64_t size = (height + 2 * border) * image.pitch * channels;
  image.bytes.assign(static_cast<std::size_t>(size), fill);
  image.bytes.resize(static_cast<std::size_t>(size + std::max<std::int64_t>(
                                                         tail, 0)),
                     tail_fill);
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t y = 0; y < height; ++y) {
      for (std::int64_t x = 0; x < width; ++x) {
        image.bytes[static_cast<std::size_t>(
            ((border + y) * image.pitch + border + x) * channels + c)] =
            chw[(c * height + y) * width + x];
      }
    }
  }
  return image;
}

// An NhwcImage with the tail a convolution of `geom` (pad <= border) with
// `oc` output channels reads (gemm_conv_grid's reach past the image).
inline NhwcImage conv_input(const ConvGeometry& geom, std::int64_t oc,
                            const std::uint8_t* chw, std::int64_t border,
                            std::uint8_t fill, std::uint8_t tail_fill) {
  const std::int64_t pitch = geom.width + 2 * border;
  const std::int64_t size =
      (geom.height + 2 * border) * pitch * geom.channels;
  const std::int64_t origin =
      ((border - geom.pad) * pitch + border - geom.pad) * geom.channels;
  const std::int64_t reach = gemm_conv_grid(geom, pitch, oc).reach;
  return nhwc_image(geom.channels, geom.height, geom.width, chw, border, fill,
                    origin + reach - size, tail_fill);
}

// The naive convolution of one channels-last image at its window origin:
// out[(oy * out_w + ox) * oc + o] = sum over (c, ki, kj) of
// pixel (oy * stride + ki, ox * stride + kj) channel c times
// codes[o][c][ki][kj], summed in int64.
inline std::vector<std::int64_t> naive_conv_nhwc(
    const ConvGeometry& geom, std::int64_t pitch, std::int64_t oc,
    const std::uint8_t* origin, const std::int8_t* codes) {
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  const std::int64_t c_in = geom.channels;
  std::vector<std::int64_t> out(static_cast<std::size_t>(out_h * out_w * oc));
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    for (std::int64_t ox = 0; ox < out_w; ++ox) {
      for (std::int64_t o = 0; o < oc; ++o) {
        std::int64_t sum = 0;
        for (std::int64_t c = 0; c < c_in; ++c) {
          for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
            for (std::int64_t kj = 0; kj < geom.kernel_w; ++kj) {
              const std::int64_t pixel = (oy * geom.stride + ki) * pitch +
                                         ox * geom.stride + kj;
              sum += static_cast<std::int64_t>(origin[pixel * c_in + c]) *
                     codes[((o * c_in + c) * geom.kernel_h + ki) *
                               geom.kernel_w +
                           kj];
            }
          }
        }
        out[static_cast<std::size_t>((oy * out_w + ox) * oc + o)] = sum;
      }
    }
  }
  return out;
}

// The deepest reduction the int32 accumulators admit for every kind.
constexpr std::int64_t kMaxDepth = 32767;

// The deepest depth k* at which bitserial-w16 is eligible for codes up to
// |code| = c. The rule is monotone in depth, and the KC cap bounds every
// block, so |code| = 1 is eligible at every depth and yields kMaxDepth.
inline std::int64_t deepest_wide_depth(std::int32_t c) {
  std::int64_t k = 0;
  while (k < kMaxDepth && gemm_s8u8_wide_eligible(k + 1, c)) ++k;
  return k;
}

// A 1x1 convolution of `channels` channels over a `width` x 1 image: the
// plain reduction of depth `channels` at `width` positions.
inline ConvGeometry one_by_one(std::int64_t channels, std::int64_t width) {
  ConvGeometry geom;
  geom.channels = channels;
  geom.height = 1;
  geom.width = width;
  geom.kernel_h = geom.kernel_w = 1;
  geom.validate();
  return geom;
}

// Packed conv weights of `codes` for the running ISA.
inline std::vector<std::uint8_t> pack_conv_codes(
    PackedKernel kind, const ConvGeometry& geom, std::int64_t oc,
    const std::vector<std::int8_t>& codes) {
  std::vector<std::uint8_t> packed(
      static_cast<std::size_t>(gemm_conv_weights_bytes(kind, geom, oc)));
  gemm_pack_conv_weights(kind, geom, oc, codes.data(), packed.data());
  return packed;
}

// The exact product C = A · B, C[i * n + j] = sum over p of code(i, p) *
// b[j * k + p] in int64, for m x k codes `a` (with `low`, a split layer's
// lo plane: code = 2 a + low) and n columns of k activations.
inline std::vector<std::int64_t> exact_product(
    std::int64_t m, std::int64_t n, std::int64_t k,
    const std::vector<std::int8_t>& a, const std::vector<std::int8_t>* low,
    const std::vector<std::uint8_t>& b) {
  std::vector<std::int64_t> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t sum = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const auto at = static_cast<std::size_t>(i * k + p);
        const std::int64_t code =
            low == nullptr ? a[at] : 2 * std::int64_t{a[at]} + (*low)[at];
        sum += code * b[static_cast<std::size_t>(j * k + p)];
      }
      c[static_cast<std::size_t>(i * n + j)] = sum;
    }
  }
  return c;
}

// The same product through gemm_conv_nhwc, as a 1x1 convolution of k
// channels at n positions (column j of B is position j's channels), the
// image followed by 0xEE bytes up to what the tiles read: C in
// exact_product's order.
inline std::vector<std::int64_t> one_by_one_product(
    PackedKernel kind, std::int64_t m, std::int64_t n, std::int64_t k,
    const std::vector<std::int8_t>& a, const std::vector<std::int8_t>* low,
    const std::vector<std::uint8_t>& b, bool pooled) {
  const ConvGeometry geom = one_by_one(k, n);
  const ConvGrid grid = gemm_conv_grid(geom, n, m);
  std::vector<std::uint8_t> image = b;
  image.resize(std::max<std::size_t>(image.size(),
                                     static_cast<std::size_t>(grid.reach)),
               0xEE);
  const auto hi_packed = pack_conv_codes(kind, geom, m, a);
  const auto lo_packed =
      low == nullptr ? std::vector<std::uint8_t>()
                     : pack_conv_codes(kind, geom, m, *low);
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(grid.rows * grid.ldc), -1);
  gemm_conv_nhwc(kind, geom, n, m, hi_packed.data(),
                 low == nullptr ? nullptr : lo_packed.data(), /*batch=*/1,
                 image.data(), 0, acc.data(), 0, pooled);
  std::vector<std::int64_t> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      c[static_cast<std::size_t>(i * n + j)] =
          acc[static_cast<std::size_t>(j * grid.ldc + i)];
    }
  }
  return c;
}

}  // namespace csq::testing

// CSQ_INT_ISA_TEST(Suite, Name) { body } defines Suite.Name, which runs the
// body on the integer ISA the host picks (AMX where it has it), and
// SuiteAvx2.Name, which runs it again with the AVX2 kernels forced, so
// those stay tested on AMX hosts. The bodies' checks are exact equalities
// (with an int64 reference, or between schedules), and
// GemmIsa.AmxAndAvx2AccumulatorsAreBitIdentical compares the two paths'
// outputs with each other.
#define CSQ_INT_ISA_TEST(suite, name)                                  \
  void suite##_##name##_body();                                        \
  TEST(suite, name) { suite##_##name##_body(); }                       \
  TEST(suite##Avx2, name) {                                            \
    const std::string skip = ::csq::testing::forced_avx2_skip_reason(); \
    if (!skip.empty()) GTEST_SKIP() << skip;                           \
    const ::csq::ScopedGemmIntIsaForTest forced(::csq::GemmIntIsa::kAvx2); \
    suite##_##name##_body();                                           \
  }                                                                    \
  void suite##_##name##_body()
