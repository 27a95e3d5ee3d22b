// Deployment path: train a CSQ model, finalize it to exact fixed-point
// form, lower the WHOLE network into the integer inference runtime
// (runtime/compiled_graph.h), calibrate it, ship it as a graph artifact
// (runtime/graph_artifact.h) and run it end to end — int8 weight codes,
// uint8 activation codes, int32 accumulation, BatchNorm folded into the
// requantization and ReLU fused into its clamp. Prints the bit-exactness of
// the exported codes, the lowered weights and the reloaded artifact, and the
// top-1 accuracy delta between the float eval path and the int8 graph.
//
//   $ ./examples/deploy_fixed_point
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/csq_trainer.h"
#include "core/export.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "opt/trainer.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "tensor/ops.h"
#include "util/logging.h"

int main() {
  using namespace csq;
  set_log_level(LogLevel::warn);

  // Small, fast training: the point of this example is the deployment flow.
  SyntheticConfig data_config = SyntheticConfig::cifar_like();
  data_config.train_samples = 600;
  data_config.test_samples = 300;
  const SyntheticDataset data = make_synthetic(data_config);

  std::vector<CsqWeightSource*> sources;
  Rng rng(7);
  ModelConfig model_config;
  model_config.num_classes = data.train.num_classes();
  model_config.base_width = 8;
  Model model = make_resnet20(model_config, csq_weight_factory(&sources),
                              nullptr, rng);

  CsqTrainConfig config;
  config.train.epochs = 18;
  config.train.batch_size = 50;
  config.target_bits = 3.0;
  const CsqTrainResult result =
      train_csq(model, sources, data.train, data.test, config);
  std::cout << "trained: " << result.test_accuracy << "% @ "
            << result.average_bits << " avg bits\n\n";

  // 1. Every finalized layer must be bit-exact against its integer codes —
  //    through the generic WeightSource accessor, no concrete casts.
  std::int64_t total_storage_bits = 0;
  float worst_roundtrip = 0.0f;
  for (const QuantLayer& layer : model.quant_layers()) {
    const QuantizedLayerExport exported =
        export_layer(layer.name, *layer.source);
    worst_roundtrip =
        std::max(worst_roundtrip, export_roundtrip_error(*layer.source));
    total_storage_bits += exported.storage_bits();
  }
  std::cout << "export roundtrip max error: " << worst_roundtrip
            << (worst_roundtrip == 0.0f ? " (bit-exact)" : " (NOT exact!)")
            << '\n';
  std::cout << "total quantized storage: " << total_storage_bits / 8 / 1024.0
            << " KiB vs FP32 "
            << model.total_weight_count() * 4 / 1024.0 << " KiB\n\n";

  // 2. Lower the WHOLE network into the integer compiled graph, calibrate
  //    the activation edges on training batches, and serve.
  runtime::LowerOptions options;
  options.in_channels = data.train.channels();
  options.in_height = data.train.height();
  options.in_width = data.train.width();
  runtime::CompiledGraph graph = runtime::lower(model, options);

  // Calibration: per-edge activation ranges from a float walk of the
  // lowered ops over a slice of the training set.
  {
    std::vector<int> indices;
    for (int i = 0; i < 200; ++i) indices.push_back(i);
    graph.calibrate(data.train.gather(indices).images);
  }

  // Lowered weights must reconstruct the finalized float weights bit for
  // bit from the packed int8 planes.
  float worst_lowered = 0.0f;
  for (const QuantLayer& layer : model.quant_layers()) {
    const Tensor lowered = graph.dequantized_weights(layer.name);
    const Tensor& reference = layer.source->weight(/*training=*/false);
    for (std::int64_t i = 0; i < reference.numel(); ++i) {
      worst_lowered =
          std::max(worst_lowered, std::fabs(lowered[i] - reference[i]));
    }
  }
  std::cout << "lowered weight reconstruction max error: " << worst_lowered
            << (worst_lowered == 0.0f ? " (bit-exact)" : " (NOT exact!)")
            << '\n';

  std::cout << "compiled graph: " << graph.layers().size()
            << " integer layers, "
            << graph.weight_storage_bits() / 8 / 1024.0 << " KiB codes\n";
  for (const auto& layer : graph.layers()) {
    std::cout << "  " << layer.name << ": " << layer.bits << "b x "
              << layer.weight_count << (layer.split ? " (split planes)" : "")
              << " -> " << layer.kernel << " kernel\n";
  }

  // 3. Ship the model: save the calibrated graph as an artifact (integer
  //    codes, program and edge scales) and load it back the way a serving
  //    process would. The reloaded graph must reproduce every test-set logit
  //    of the in-memory graph bit for bit.
  const std::string artifact_path = "csq_model.csqm";
  if (runtime::save_graph(artifact_path, graph)) {
    const std::streamoff artifact_bytes =
        std::ifstream(artifact_path, std::ios::binary | std::ios::ate)
            .tellg();
    runtime::CompiledGraph shipped = runtime::load_graph(artifact_path);
    std::remove(artifact_path.c_str());
    const Tensor expected = graph.forward(data.test.images());
    const Tensor reloaded = shipped.forward(data.test.images());
    bool identical = expected.same_shape(reloaded);
    for (std::int64_t i = 0; identical && i < expected.numel(); ++i) {
      identical = expected[i] == reloaded[i];
    }
    std::cout << "\nshipped " << artifact_path << ": " << artifact_bytes
              << " bytes (" << graph.weight_storage_bits() / 8 / 1024.0
              << " KiB weight payload)\n"
              << "reloaded artifact test-set logits: "
              << (identical ? "bit-exact" : "NOT exact!") << '\n';
  } else {
    std::cout << "\nsave_graph failed: cannot write " << artifact_path
              << '\n';
  }

  // 4. End-to-end accuracy: float eval path vs the int8 graph.
  const float float_accuracy = evaluate_accuracy(model, data.test);
  const float int8_accuracy =
      runtime::evaluate_graph_accuracy(graph, data.test);
  std::cout << "\nfloat eval path: " << float_accuracy << "%\n"
            << "int8 graph:      " << int8_accuracy << "%\n"
            << "accuracy delta:  " << float_accuracy - int8_accuracy
            << " points (int8 graph: 8-bit activation codes, int32 "
               "accumulation, BN folded, ReLU fused)\n";
  return 0;
}
