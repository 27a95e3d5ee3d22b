#include "search/assignment.h"

#include <limits>

#include "quant/quantizer.h"
#include "util/check.h"

namespace csq {

double assignment_average_bits(const std::vector<int>& bits,
                               const std::vector<std::int64_t>& sizes) {
  CSQ_CHECK(bits.size() == sizes.size()) << "assignment: size mismatch";
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t l = 0; l < bits.size(); ++l) {
    weighted += static_cast<double>(bits[l]) * static_cast<double>(sizes[l]);
    total += static_cast<double>(sizes[l]);
  }
  return weighted / total;
}

int profile_max_bits(const SensitivityProfile& profile, int min_bits) {
  CSQ_CHECK(!profile.sensitivity.empty()) << "search: empty profile";
  const std::size_t width = profile.sensitivity.front().size();
  for (const std::vector<double>& row : profile.sensitivity) {
    CSQ_CHECK(row.size() == width)
        << "search: ragged profile (" << row.size() << " vs " << width
        << " bit widths)";
  }
  CSQ_CHECK(min_bits >= 1 && static_cast<std::size_t>(min_bits) <= width &&
            width <= 8)
      << "search: bad bit range [" << min_bits << ", " << width << "]";
  return static_cast<int>(width);
}

BitAssignment assign_bits_greedy(const SensitivityProfile& profile,
                                 double target_bits, int min_bits) {
  const std::size_t layer_count = profile.sensitivity.size();
  const int max_bits = profile_max_bits(profile, min_bits);

  const auto sens = [&](std::size_t l, int bits) {
    return profile.sensitivity[l][static_cast<std::size_t>(bits - 1)];
  };

  BitAssignment result;
  result.bits.assign(layer_count, max_bits);

  // Greedy descent: cheapest marginal loss increase per storage bit saved.
  while (assignment_average_bits(result.bits, profile.layer_sizes) >
         target_bits) {
    std::size_t best_layer = layer_count;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < layer_count; ++l) {
      const int bits = result.bits[l];
      if (bits <= min_bits) continue;
      const double loss_increase = sens(l, bits - 1) - sens(l, bits);
      const auto saved =
          static_cast<double>(profile.layer_sizes[l]);  // one bit per element
      const double ratio = loss_increase / saved;
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_layer = l;
      }
    }
    if (best_layer == layer_count) break;  // every layer at the floor
    --result.bits[best_layer];
  }

  // Local improvement: re-grow a sensitive layer if a cheaper layer can
  // shrink instead without breaking the budget.
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t grow = 0; grow < layer_count && !improved; ++grow) {
      if (result.bits[grow] >= max_bits) continue;
      const double gain =
          sens(grow, result.bits[grow]) - sens(grow, result.bits[grow] + 1);
      for (std::size_t shrink = 0; shrink < layer_count; ++shrink) {
        if (shrink == grow || result.bits[shrink] <= min_bits) continue;
        const double cost = sens(shrink, result.bits[shrink] - 1) -
                            sens(shrink, result.bits[shrink]);
        if (cost >= gain) continue;
        std::vector<int> candidate = result.bits;
        ++candidate[grow];
        --candidate[shrink];
        if (assignment_average_bits(candidate, profile.layer_sizes) <=
            target_bits) {
          result.bits = std::move(candidate);
          improved = true;
          break;
        }
      }
    }
  }

  result.average_bits =
      assignment_average_bits(result.bits, profile.layer_sizes);
  for (std::size_t l = 0; l < layer_count; ++l) {
    result.predicted_loss_increase += sens(l, result.bits[l]);
  }
  return result;
}

void apply_assignment_ptq(Model& model, const std::vector<int>& bits) {
  const auto& layers = model.quant_layers();
  CSQ_CHECK(bits.size() == layers.size())
      << "apply_assignment: " << bits.size() << " bits for " << layers.size()
      << " layers";
  for (std::size_t l = 0; l < layers.size(); ++l) {
    auto* dense = dynamic_cast<DenseWeightSource*>(layers[l].source);
    CSQ_CHECK(dense != nullptr) << "apply_assignment: non-dense layer";
    Tensor& weights = dense->parameter().value;
    const float scale = max_abs_scale(weights);
    Tensor original = weights;
    quantize_symmetric_tensor(original, weights, scale, bits[l]);
  }
}

}  // namespace csq
