// Shared helpers for the csq test suite: numeric gradient checking against
// the layers' analytic backward passes, small tensor factories, server
// options that park a serving worker, and golden-artifact mutation.
#pragma once

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "serve/batching_server.h"
#include "tensor/tensor.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace csq::testing {

// The committed v5 graph artifact (tests/data/golden_v5.csqm).
inline std::string golden_v5_path() {
  return std::string(CSQ_TEST_DATA_DIR) + "/golden_v5.csqm";
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

// golden_v5.csqm without its CRC trailer.
inline std::string golden_v5_payload() {
  const std::string bytes = read_bytes(golden_v5_path());
  EXPECT_EQ(bytes.size(), 13188u);
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

}  // namespace csq::testing
