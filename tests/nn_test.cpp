// Tests for src/nn: gradchecks for every layer and block, shape handling,
// model builders, parameter registration.
#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/softmax_ce.h"
#include "nn/weight_source.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/check.h"

namespace csq {
namespace {

using testing::check_input_gradient;
using testing::check_parameter_gradients;
using testing::expect_close;
using testing::numeric_derivative;
using testing::probe_loss;
using testing::random_tensor;

// ---------------------------------------------------------------- conv --

struct Conv2dCase {
  std::int64_t in_c, out_c, kernel, stride, pad, h, w;
  bool bias;
};

class Conv2dParamTest : public ::testing::TestWithParam<Conv2dCase> {};

TEST_P(Conv2dParamTest, InputAndParameterGradients) {
  const Conv2dCase& p = GetParam();
  Rng rng(31);
  Conv2dConfig config;
  config.in_channels = p.in_c;
  config.out_channels = p.out_c;
  config.kernel = p.kernel;
  config.stride = p.stride;
  config.pad = p.pad;
  config.bias = p.bias;
  Conv2d conv("conv", config, dense_weight_factory(), rng);

  Tensor input = random_tensor({2, p.in_c, p.h, p.w}, rng);
  check_input_gradient(conv, input, rng);
  check_parameter_gradients(conv, input, rng);
}

// Every input-gradient element against a double-precision adjoint of the
// direct convolution: the finite-difference probes above sample only a few
// elements, and the border ones are where the stride-1 transposed
// convolution and the stride > 1 col2im path differ.
TEST_P(Conv2dParamTest, InputGradientMatchesDirectAdjoint) {
  const Conv2dCase& p = GetParam();
  Rng rng(37);
  Conv2dConfig config;
  config.in_channels = p.in_c;
  config.out_channels = p.out_c;
  config.kernel = p.kernel;
  config.stride = p.stride;
  config.pad = p.pad;
  config.bias = p.bias;
  Conv2d conv("conv", config, dense_weight_factory(), rng);

  const std::int64_t batch = 2;
  Tensor input = random_tensor({batch, p.in_c, p.h, p.w}, rng);
  Tensor out = conv.forward(input, /*training=*/true);
  Tensor grad_out = random_tensor(out.shape(), rng);
  Tensor grad_in = conv.backward(grad_out);
  ASSERT_TRUE(grad_in.same_shape(input));

  const float* w = conv.source().weight(/*training=*/true).data();
  const std::int64_t oh = out.dim(2), ow = out.dim(3), k = p.kernel;
  std::vector<double> ref(static_cast<std::size_t>(input.numel()), 0.0);
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t oc = 0; oc < p.out_c; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const double g = grad_out[((b * p.out_c + oc) * oh + oy) * ow + ox];
          for (std::int64_t c = 0; c < p.in_c; ++c) {
            for (std::int64_t ki = 0; ki < k; ++ki) {
              for (std::int64_t kj = 0; kj < k; ++kj) {
                const std::int64_t iy = oy * p.stride - p.pad + ki;
                const std::int64_t ix = ox * p.stride - p.pad + kj;
                if (iy < 0 || iy >= p.h || ix < 0 || ix >= p.w) continue;
                ref[static_cast<std::size_t>(
                    ((b * p.in_c + c) * p.h + iy) * p.w + ix)] +=
                    g * w[((oc * p.in_c + c) * k + ki) * k + kj];
              }
            }
          }
        }
      }
    }
  }
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    EXPECT_NEAR(grad_in[i], ref[static_cast<std::size_t>(i)], 1e-4)
        << "grad_input element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dParamTest,
    ::testing::Values(Conv2dCase{2, 3, 3, 1, 1, 5, 5, false},
                      Conv2dCase{1, 2, 3, 2, 1, 6, 6, false},
                      Conv2dCase{3, 2, 1, 1, 0, 4, 4, false},
                      Conv2dCase{2, 4, 1, 2, 0, 6, 6, false},
                      Conv2dCase{2, 2, 3, 1, 1, 5, 5, true},
                      Conv2dCase{2, 3, 5, 1, 2, 7, 7, false},
                      // 3x3 stride 1 without padding (transposed pad 2).
                      Conv2dCase{2, 3, 3, 1, 0, 6, 6, false},
                      // Rectangular input.
                      Conv2dCase{2, 3, 3, 1, 1, 5, 7, true},
                      // 3x3 stride 2 on an odd input (col2im path).
                      Conv2dCase{2, 3, 3, 2, 1, 7, 7, false},
                      // out_w 3 < 8: every NR panel spans output rows.
                      Conv2dCase{2, 2, 3, 1, 1, 9, 3, false}));

// Training keeps the zero-padded input for backward, not the (B, K, OH*OW)
// unfolded matrix, and eval pads into per-thread stripes, so its retained
// bytes do not grow with the eval batch.
TEST(Conv2d, TrainingWorkspaceHoldsPaddedInputNotColumns) {
  Rng rng(41);
  Conv2dConfig config;
  config.in_channels = 8;
  config.out_channels = 8;
  Conv2d conv("conv", config, dense_weight_factory(), rng);

  const std::int64_t batch = 4, side = 8;
  Tensor input = random_tensor({batch, 8, side, side}, rng);
  Tensor out = conv.forward(input, /*training=*/true);
  conv.backward(random_tensor(out.shape(), rng));
  const std::int64_t column_cache_bytes =
      batch * (8 * 3 * 3) * (side * side) * std::int64_t{sizeof(float)};
  EXPECT_LT(conv.workspace().total_bytes(), column_cache_bytes);

  conv.forward(random_tensor({2, 8, side, side}, rng), /*training=*/false);
  const std::int64_t small_eval = conv.workspace().total_bytes();
  conv.forward(random_tensor({64, 8, side, side}, rng), /*training=*/false);
  EXPECT_EQ(conv.workspace().total_bytes(), small_eval);
}

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 8;
  config.kernel = 3;
  config.stride = 2;
  config.pad = 1;
  Conv2d conv("conv", config, dense_weight_factory(), rng);
  Tensor out = conv.forward(random_tensor({4, 3, 16, 16}, rng), false);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{4, 8, 8, 8}));
}

TEST(Conv2d, BackwardWithoutForwardThrows) {
  Rng rng(1);
  Conv2dConfig config;
  config.in_channels = 1;
  config.out_channels = 1;
  Conv2d conv("conv", config, dense_weight_factory(), rng);
  EXPECT_THROW(conv.backward(Tensor({1, 1, 4, 4})), check_error);
}

TEST(Conv2d, WrongChannelCountThrows) {
  Rng rng(1);
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 4;
  Conv2d conv("conv", config, dense_weight_factory(), rng);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8}), false), check_error);
}

// -------------------------------------------------------------- linear --

TEST(Linear, InputAndParameterGradients) {
  Rng rng(32);
  Linear linear("fc", 7, 4, dense_weight_factory(), rng, /*bias=*/true);
  Tensor input = random_tensor({3, 7}, rng);
  check_input_gradient(linear, input, rng);
  check_parameter_gradients(linear, input, rng);
}

TEST(Linear, MatchesManualComputation) {
  Rng rng(33);
  Linear linear("fc", 2, 2, dense_weight_factory(), rng, /*bias=*/false);
  std::vector<Parameter*> params;
  linear.collect_parameters(params);
  params[0]->value = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor out = linear.forward(Tensor::from_data({1, 2}, {5, 6}), false);
  EXPECT_FLOAT_EQ(out[0], 1 * 5 + 2 * 6);
  EXPECT_FLOAT_EQ(out[1], 3 * 5 + 4 * 6);
}

// ----------------------------------------------------------- batchnorm --

TEST(BatchNorm2d, InputAndParameterGradients) {
  Rng rng(34);
  BatchNorm2d bn("bn", 3);
  Tensor input = random_tensor({4, 3, 3, 3}, rng, -2.0f, 2.0f);
  check_input_gradient(bn, input, rng, /*samples=*/6, /*rtol=*/8e-2);
  check_parameter_gradients(bn, input, rng, /*samples=*/4, /*rtol=*/8e-2);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  Rng rng(35);
  BatchNorm2d bn("bn", 2);
  Tensor input = random_tensor({8, 2, 4, 4}, rng, -3.0f, 5.0f);
  Tensor out = bn.forward(input, /*training=*/true);
  // Per-channel mean ~0 and var ~1 after normalization (gamma=1, beta=0).
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t b = 0; b < 8; ++b) {
      for (std::int64_t p = 0; p < 16; ++p) {
        const float v = out[(b * 2 + c) * 16 + p];
        sum += v;
        sum_sq += static_cast<double>(v) * v;
        ++count;
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStatistics) {
  Rng rng(36);
  BatchNorm2d bn("bn", 1);
  // Train long enough for the EMA running stats to converge to the batch
  // statistics (mean 2, var 1/3 for uniform(1,3)).
  for (int i = 0; i < 100; ++i) {
    Tensor batch = random_tensor({8, 1, 2, 2}, rng, 1.0f, 3.0f);
    bn.forward(batch, /*training=*/true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 2.0f, 0.15f);
  EXPECT_NEAR(bn.running_var()[0], 1.0f / 3.0f, 0.15f);
  // Eval on a constant input equal to the running mean: output ~ 0.
  Tensor constant = Tensor::full({1, 1, 2, 2}, 2.0f);
  Tensor out = bn.forward(constant, /*training=*/false);
  EXPECT_NEAR(out[0], 0.0f, 0.3f);
}

// ------------------------------------------------- relu / pool / misc --

TEST(ReLU, ForwardAndGradient) {
  Rng rng(37);
  ReLU relu("relu");
  Tensor input = Tensor::from_data({1, 4}, {-1.0f, 0.5f, -0.2f, 2.0f});
  Tensor out = relu.forward(input, true);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
  EXPECT_FLOAT_EQ(out[3], 2.0f);
  Tensor grad = relu.backward(Tensor::full({1, 4}, 1.0f));
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[1], 1.0f);
}

TEST(MaxPool2d, ForwardPicksMaxAndRoutesGradient) {
  MaxPool2d pool("pool", 2);
  Tensor input = Tensor::from_data({1, 1, 2, 2}, {1, 5, 3, 2});
  Tensor out = pool.forward(input, true);
  EXPECT_EQ(out.numel(), 1);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  Tensor grad = pool.backward(Tensor::full({1, 1, 1, 1}, 2.0f));
  EXPECT_FLOAT_EQ(grad[1], 2.0f);  // gradient lands on the argmax
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
}

TEST(MaxPool2d, NonTilingInputDropsTrailingRows) {
  // Floor output grid: a 2x2/s2 window over (3, 4) yields (1, 2) — the
  // trailing row is dropped, matching the integer runtime's lowering.
  MaxPool2d pool("pool", 2);
  Tensor input = Tensor::from_data(
      {1, 1, 3, 4}, {1, 5, 2, 0, 3, 2, 9, 1, 7, 7, 7, 7});
  Tensor out = pool.forward(input, false);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 9.0f);
}

TEST(MaxPool2d, StridedPaddedWindowAndGradient) {
  // 3x3 window, stride 2, pad 1 over 4x4: out 2x2; padded taps are -inf.
  Pool2dConfig config{3, 3, 2, 1};
  MaxPool2d pool("pool", config);
  Rng rng(301);
  Tensor input = testing::random_tensor({2, 3, 4, 4}, rng);
  Tensor out = pool.forward(input, false);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{2, 3, 2, 2}));
  // Top-left window covers rows/cols [0, 2) of the input.
  float expected = input[0];
  for (std::int64_t y = 0; y < 2; ++y) {
    for (std::int64_t x = 0; x < 2; ++x) {
      expected = std::max(expected, input[y * 4 + x]);
    }
  }
  EXPECT_FLOAT_EQ(out[0], expected);
  testing::check_input_gradient(pool, input, rng);
}

TEST(MaxPool2d, NonSquareKernel) {
  Pool2dConfig config{3, 2, 2, 0};
  MaxPool2d pool("pool", config);
  Rng rng(302);
  Tensor input = testing::random_tensor({1, 2, 7, 6}, rng);
  Tensor out = pool.forward(input, true);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{1, 2, 3, 3}));
  testing::check_input_gradient(pool, input, rng);
}

TEST(MaxPool2d, PaddedTapsNeverWin) {
  // Padded taps are -inf, not zero: over an all-negative input each border
  // window still yields its largest real value.
  MaxPool2d pool("pool", Pool2dConfig{2, 2, 2, 1});
  Tensor input = Tensor::from_data({1, 1, 2, 2}, {-8.0f, -4.0f, -2.0f, -6.0f});
  Tensor out = pool.forward(input, true);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], -8.0f);  // only tap -8 is inside this window
  EXPECT_FLOAT_EQ(out[1], -4.0f);
  EXPECT_FLOAT_EQ(out[2], -2.0f);
  EXPECT_FLOAT_EQ(out[3], -6.0f);
  Tensor grad = pool.backward(Tensor::full({1, 1, 2, 2}, 1.0f));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(grad[i], 1.0f);
}

TEST(MaxPool2d, OverlappingStrideOneGradient) {
  // Stride-1 3x3 windows overlap, so one input can be the argmax of several
  // windows and its gradient must sum over them.
  MaxPool2d pool("pool", Pool2dConfig{3, 3, 1, 1});
  Rng rng(303);
  Tensor input = testing::random_tensor({2, 2, 5, 5}, rng);
  Tensor out = pool.forward(input, true);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{2, 2, 5, 5}));
  testing::check_input_gradient(pool, input, rng);
}

TEST(MaxPool2d, RejectsPaddingNotSmallerThanKernel) {
  EXPECT_THROW(MaxPool2d("pool", Pool2dConfig{2, 2, 2, 2}), check_error);
  EXPECT_THROW(MaxPool2d("pool", Pool2dConfig{2, 2, 0, 0}), check_error);
}

TEST(GlobalAvgPool, ForwardAndGradient) {
  GlobalAvgPool pool("gap");
  Tensor input = Tensor::from_data({1, 2, 1, 2}, {1, 3, 10, 20});
  Tensor out = pool.forward(input, true);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 15.0f);
  Tensor grad = pool.backward(Tensor::from_data({1, 2}, {4.0f, 6.0f}));
  EXPECT_FLOAT_EQ(grad[0], 2.0f);  // 4 / plane(2)
  EXPECT_FLOAT_EQ(grad[2], 3.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten flatten("flatten");
  Rng rng(38);
  Tensor input = random_tensor({2, 3, 2, 2}, rng);
  Tensor out = flatten.forward(input, true);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{2, 12}));
  Tensor grad = flatten.backward(out);
  EXPECT_EQ(grad.shape(), input.shape());
  EXPECT_LT(max_abs_diff(grad, input), 1e-6f);
}

// ---------------------------------------------------------- softmax ce --

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 4});
  const float value = loss.forward(logits, {0, 3});
  EXPECT_NEAR(value, std::log(4.0f), 1e-5f);
}

TEST(SoftmaxCrossEntropy, GradientMatchesNumeric) {
  Rng rng(39);
  SoftmaxCrossEntropy loss;
  Tensor logits = random_tensor({3, 5}, rng);
  const std::vector<int> labels = {1, 4, 2};
  loss.forward(logits, labels);
  Tensor grad = loss.backward();
  for (std::int64_t index : {0L, 6L, 9L, 14L}) {
    const float original = logits[index];
    const double numeric = numeric_derivative(
        [&](float x) {
          logits[index] = x;
          SoftmaxCrossEntropy probe;
          return static_cast<double>(probe.forward(logits, labels));
        },
        original);
    logits[index] = original;
    expect_close(grad[index], numeric, 5e-2, 1e-4);
  }
}

TEST(SoftmaxCrossEntropy, GradientRowsSumToZero) {
  Rng rng(40);
  SoftmaxCrossEntropy loss;
  Tensor logits = random_tensor({2, 6}, rng, -3.0f, 3.0f);
  loss.forward(logits, {0, 5});
  Tensor grad = loss.backward();
  for (std::int64_t b = 0; b < 2; ++b) {
    double row = 0.0;
    for (std::int64_t j = 0; j < 6; ++j) row += grad[b * 6 + j];
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, PredictionsAndCountCorrect) {
  SoftmaxCrossEntropy loss;
  Tensor logits = Tensor::from_data({2, 3}, {0, 5, 0, 9, 0, 0});
  loss.forward(logits, {1, 2});
  EXPECT_EQ(loss.predictions(), (std::vector<int>{1, 0}));
  EXPECT_EQ(count_correct(loss.predictions(), {1, 2}), 1);
}

TEST(SoftmaxCrossEntropy, BadLabelThrows) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  EXPECT_THROW(loss.forward(logits, {3}), check_error);
}

// -------------------------------------------------------------- blocks --

TEST(BasicBlock, IdentitySkipGradients) {
  Rng rng(41);
  BlockConfig config;
  config.in_channels = 3;
  config.out_channels = 3;
  config.stride = 1;
  BasicBlock block("block", config, dense_weight_factory(), nullptr, rng);
  Tensor input = random_tensor({2, 3, 4, 4}, rng);
  check_input_gradient(block, input, rng, /*samples=*/6, /*rtol=*/8e-2);
}

TEST(BasicBlock, DownsampleSkipGradientsAndShape) {
  Rng rng(42);
  BlockConfig config;
  config.in_channels = 2;
  config.out_channels = 4;
  config.stride = 2;
  BasicBlock block("block", config, dense_weight_factory(), nullptr, rng);
  Tensor input = random_tensor({2, 2, 6, 6}, rng);
  Tensor out = block.forward(input, false);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{2, 4, 3, 3}));
  check_input_gradient(block, input, rng, /*samples=*/5, /*rtol=*/8e-2);
}

TEST(Bottleneck, ShapeAndGradients) {
  Rng rng(43);
  BlockConfig config;
  config.in_channels = 4;
  config.out_channels = 2;  // expands to 8
  config.stride = 2;
  Bottleneck block("block", config, dense_weight_factory(), nullptr, rng);
  Tensor input = random_tensor({2, 4, 4, 4}, rng);
  Tensor out = block.forward(input, false);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{2, 8, 2, 2}));
  check_input_gradient(block, input, rng, /*samples=*/5, /*rtol=*/1e-1);
}

// ---------------------------------------------------------------- model --

TEST(Models, Resnet20LayerCountMatchesFigure4) {
  Rng rng(44);
  ModelConfig config;
  config.base_width = 4;
  Model model = make_resnet20(config, dense_weight_factory(), nullptr, rng);
  // Figure 4 lists conv1, 18 block convs, fc = 20 named layers; two
  // downsample convs are additional quantizable layers.
  EXPECT_EQ(model.quant_layers().size(), 22u);
  EXPECT_EQ(model.quant_layers().front().name, "conv1");
  EXPECT_EQ(model.quant_layers().back().name, "fc");
  Tensor out = model.forward(Tensor({2, 3, 16, 16}), false);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{2, 10}));
}

TEST(Models, Resnet18And50Shapes) {
  Rng rng(45);
  ModelConfig config;
  config.base_width = 4;
  config.num_classes = 7;
  Model r18 = make_resnet18(config, dense_weight_factory(), nullptr, rng);
  EXPECT_EQ(r18.forward(Tensor({1, 3, 16, 16}), false).shape(),
            (std::vector<std::int64_t>{1, 7}));
  // 1 stem + 16 block convs + 3 downsample + 1 fc = 21.
  EXPECT_EQ(r18.quant_layers().size(), 21u);

  Model r50 = make_resnet50(config, dense_weight_factory(), nullptr, rng);
  EXPECT_EQ(r50.forward(Tensor({1, 3, 16, 16}), false).shape(),
            (std::vector<std::int64_t>{1, 7}));
  // 1 stem + 48 bottleneck convs + 4 downsample + 1 fc = 54.
  EXPECT_EQ(r50.quant_layers().size(), 54u);
}

TEST(Models, Vgg19bnShapeAndLayerCount) {
  Rng rng(46);
  ModelConfig config;
  config.base_width = 4;
  Model vgg = make_vgg19bn(config, dense_weight_factory(), nullptr, rng);
  EXPECT_EQ(vgg.forward(Tensor({1, 3, 32, 32}), false).shape(),
            (std::vector<std::int64_t>{1, 10}));
  EXPECT_EQ(vgg.quant_layers().size(), 17u);  // 16 convs + fc
}

TEST(Models, InvalidResnetDepthThrows) {
  Rng rng(47);
  ModelConfig config;
  EXPECT_THROW(
      make_resnet_cifar(21, config, dense_weight_factory(), nullptr, rng),
      check_error);
}

TEST(Model, AverageBitsAndCompressionForDense) {
  Rng rng(48);
  ModelConfig config;
  config.base_width = 4;
  Model model = make_resnet20(config, dense_weight_factory(), nullptr, rng);
  EXPECT_DOUBLE_EQ(model.average_bits(), 32.0);
  EXPECT_DOUBLE_EQ(model.compression_ratio(), 1.0);
  EXPECT_GT(model.total_weight_count(), 0);
}

TEST(Model, TrainStepReducesLossOnTinyProblem) {
  Rng rng(49);
  ModelConfig config;
  config.base_width = 4;
  config.num_classes = 2;
  Model model = make_resnet20(config, dense_weight_factory(), nullptr, rng);

  Tensor images = random_tensor({8, 3, 8, 8}, rng);
  const std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  SoftmaxCrossEntropy loss;

  std::vector<Parameter*> params = model.parameters();
  const float initial = loss.forward(model.forward(images, true), labels);
  for (int step = 0; step < 15; ++step) {
    model.zero_grad();
    Tensor logits = model.forward(images, true);
    loss.forward(logits, labels);
    model.backward(loss.backward());
    for (Parameter* param : params) {
      for (std::int64_t i = 0; i < param->value.numel(); ++i) {
        param->value[i] -= 0.05f * param->grad[i];
      }
      param->mark_updated();
    }
  }
  const float final_loss = loss.forward(model.forward(images, true), labels);
  EXPECT_LT(final_loss, initial * 0.5f);
}

TEST(Sequential, ChainsForwardAndBackward) {
  Rng rng(50);
  auto seq = std::make_unique<Sequential>("seq");
  seq->add(std::make_unique<ReLU>("r1"));
  seq->add(std::make_unique<ReLU>("r2"));
  Tensor input = Tensor::from_data({1, 3}, {-1, 2, 3});
  Tensor out = seq->forward(input, true);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  Tensor grad = seq->backward(Tensor::full({1, 3}, 1.0f));
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[2], 1.0f);
}

}  // namespace
}  // namespace csq
