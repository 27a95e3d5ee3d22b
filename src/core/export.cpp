#include "core/export.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace csq {

std::int64_t QuantizedLayerExport::storage_bits() const {
  return static_cast<std::int64_t>(codes.size()) * bits + 64;
}

QuantizedLayerExport export_layer(const std::string& name,
                                  const WeightSource& source) {
  CSQ_CHECK(source.has_finalized_codes())
      << "export_layer: " << name << " (" << source.kind()
      << ") has no exact integer form — finalize it first";
  WeightCodes codes = source.finalized_codes();
  QuantizedLayerExport layer;
  layer.name = name;
  layer.shape = source.weight_shape();
  layer.codes = std::move(codes.codes);
  layer.scale = codes.scale;
  layer.denominator = codes.denominator;
  layer.bits = codes.bits;
  return layer;
}

float export_roundtrip_error(WeightSource& source) {
  const Tensor& materialized = source.weight(/*training=*/false);
  const WeightCodes codes = source.finalized_codes();
  const float factor = codes.step();
  float max_diff = 0.0f;
  const float* w = materialized.data();
  for (std::int64_t i = 0; i < materialized.numel(); ++i) {
    // volatile forces the product through a float rounding point; without
    // it, fp-contract fuses the multiply into the subtraction (FMA) and
    // reports a phantom 1-ulp "difference" against the stored weight.
    volatile float reconstructed =
        factor *
        static_cast<float>(codes.codes[static_cast<std::size_t>(i)]);
    max_diff = std::max(max_diff, std::fabs(w[i] - reconstructed));
  }
  return max_diff;
}

}  // namespace csq
