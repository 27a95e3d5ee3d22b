// Budgeted bit assignment from a sensitivity profile (HAWQ-lite).
//
// Minimize sum_l sensitivity[l][b_l] subject to the element-weighted average
// precision sum_l b_l * |W_l| / sum_l |W_l| <= target. Solved greedily:
// start at the profile's widest precision everywhere and repeatedly take the
// cheapest marginal reduction (smallest sensitivity increase per storage bit
// saved) until the budget holds, followed by a local-improvement pass that
// re-grows a layer whenever another can shrink more cheaply.
#pragma once

#include <vector>

#include "search/sensitivity.h"

namespace csq {

struct BitAssignment {
  std::vector<int> bits;        // per layer, aligned with profile order
  double average_bits = 0.0;    // element-weighted
  double predicted_loss_increase = 0.0;
};

// Bits range over [min_bits, profile_max_bits(profile, min_bits)].
BitAssignment assign_bits_greedy(const SensitivityProfile& profile,
                                 double target_bits, int min_bits = 1);

// The widest precision the profile covers: the common width of its
// sensitivity rows. Checks that every row has that width and that
// 1 <= min_bits <= width <= 8.
int profile_max_bits(const SensitivityProfile& profile, int min_bits);

// Element-weighted average precision of an assignment.
double assignment_average_bits(const std::vector<int>& bits,
                               const std::vector<std::int64_t>& sizes);

// Applies the assignment as mixed-precision PTQ on a dense model (layer
// order must match model.quant_layers()).
void apply_assignment_ptq(Model& model, const std::vector<int>& bits);

}  // namespace csq
