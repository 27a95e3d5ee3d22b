// Evolutionary mixed-precision search (HAQ-lite, see DESIGN.md).
//
// HAQ searches the per-layer bit assignment with reinforcement learning;
// this module covers the same black-box-search baseline family with a
// budget-constrained evolutionary loop: candidates are per-layer bit
// vectors, fitness is the validation accuracy of the pretrained model after
// mixed-precision PTQ at the candidate's scheme, infeasible candidates are
// repaired by shrinking the least-sensitive layers.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "nn/model.h"
#include "search/sensitivity.h"
#include "util/rng.h"

namespace csq {

struct EvoSearchConfig {
  int population = 12;
  int generations = 8;
  int tournament = 3;
  float mutation_rate = 0.3f;  // per-layer probability of a +/-1 step
  double target_bits = 3.0;
  int min_bits = 1;  // the maximum is the profile's width
  std::int64_t fitness_samples = 300;  // validation subset size
  std::uint64_t seed = 11;
};

struct EvoSearchResult {
  std::vector<int> best_bits;
  double best_fitness = 0.0;  // accuracy (%) under PTQ at the found scheme
  double average_bits = 0.0;
  // Best fitness after each generation (monotone non-decreasing).
  std::vector<double> history;
};

// Model must be a pretrained dense model; its weights are restored to the
// original values before returning.
EvoSearchResult evolutionary_search(Model& model,
                                    const InMemoryDataset& validation,
                                    const SensitivityProfile& profile,
                                    const EvoSearchConfig& config);

}  // namespace csq
