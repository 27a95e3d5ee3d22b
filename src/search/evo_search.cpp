#include "search/evo_search.h"

#include <algorithm>
#include <limits>

#include "opt/trainer.h"
#include "search/assignment.h"
#include "util/check.h"

namespace csq {

namespace {

InMemoryDataset fitness_subset(const InMemoryDataset& dataset,
                               std::int64_t samples) {
  const std::int64_t count = std::min(samples, dataset.size());
  std::vector<int> indices(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    indices[static_cast<std::size_t>(i)] = static_cast<int>(i);
  }
  Batch batch = dataset.gather(indices);
  return InMemoryDataset(std::move(batch.images), std::move(batch.labels));
}

// Shrinks the least-sensitive layers until the candidate meets the budget.
void repair_to_budget(std::vector<int>& bits,
                      const SensitivityProfile& profile, double target_bits,
                      int min_bits) {
  while (assignment_average_bits(bits, profile.layer_sizes) > target_bits) {
    std::size_t best_layer = bits.size();
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < bits.size(); ++l) {
      if (bits[l] <= min_bits) continue;
      const double cost =
          profile.sensitivity[l][static_cast<std::size_t>(bits[l] - 2)] -
          profile.sensitivity[l][static_cast<std::size_t>(bits[l] - 1)];
      if (cost < best_cost) {
        best_cost = cost;
        best_layer = l;
      }
    }
    if (best_layer == bits.size()) break;
    --bits[best_layer];
  }
}

}  // namespace

EvoSearchResult evolutionary_search(Model& model,
                                    const InMemoryDataset& validation,
                                    const SensitivityProfile& profile,
                                    const EvoSearchConfig& config) {
  const std::size_t layer_count = profile.sensitivity.size();
  const int max_bits = profile_max_bits(profile, config.min_bits);
  CSQ_CHECK(config.population >= 2) << "evo search: population too small";

  Rng rng(config.seed);
  const InMemoryDataset subset =
      fitness_subset(validation, config.fitness_samples);
  const std::vector<Tensor> backup = backup_dense_weights(model);

  const auto fitness = [&](const std::vector<int>& bits) {
    apply_assignment_ptq(model, bits);
    const float accuracy = evaluate_accuracy(model, subset);
    restore_dense_weights(model, backup);
    return static_cast<double>(accuracy);
  };

  // ---- initialize population around the budget ------------------------
  std::vector<std::vector<int>> population;
  std::vector<double> scores;
  population.reserve(static_cast<std::size_t>(config.population));
  for (int p = 0; p < config.population; ++p) {
    std::vector<int> bits(layer_count);
    for (std::size_t l = 0; l < layer_count; ++l) {
      const int span = max_bits - config.min_bits + 1;
      bits[l] = config.min_bits +
                static_cast<int>(rng.uniform_int(
                    static_cast<std::uint32_t>(span)));
    }
    repair_to_budget(bits, profile, config.target_bits, config.min_bits);
    population.push_back(std::move(bits));
  }
  scores.reserve(population.size());
  for (const auto& candidate : population) scores.push_back(fitness(candidate));

  EvoSearchResult result;
  const auto record_best = [&] {
    const auto best_it = std::max_element(scores.begin(), scores.end());
    const std::size_t best_index =
        static_cast<std::size_t>(best_it - scores.begin());
    if (*best_it > result.best_fitness || result.best_bits.empty()) {
      result.best_fitness = *best_it;
      result.best_bits = population[best_index];
    }
    result.history.push_back(result.best_fitness);
  };
  record_best();

  // ---- evolution loop ---------------------------------------------------
  for (int gen = 0; gen < config.generations; ++gen) {
    const auto tournament_pick = [&]() -> const std::vector<int>& {
      std::size_t best = rng.uniform_int(
          static_cast<std::uint32_t>(population.size()));
      for (int t = 1; t < config.tournament; ++t) {
        const std::size_t other = rng.uniform_int(
            static_cast<std::uint32_t>(population.size()));
        if (scores[other] > scores[best]) best = other;
      }
      return population[best];
    };

    std::vector<std::vector<int>> next_population;
    next_population.reserve(population.size());
    next_population.push_back(result.best_bits);  // elitism
    while (next_population.size() < population.size()) {
      // Uniform crossover of two tournament winners, then mutation.
      const std::vector<int>& parent_a = tournament_pick();
      const std::vector<int>& parent_b = tournament_pick();
      std::vector<int> child(layer_count);
      for (std::size_t l = 0; l < layer_count; ++l) {
        child[l] = rng.bernoulli(0.5f) ? parent_a[l] : parent_b[l];
        if (rng.bernoulli(config.mutation_rate)) {
          child[l] += rng.bernoulli(0.5f) ? 1 : -1;
          child[l] = std::clamp(child[l], config.min_bits, max_bits);
        }
      }
      repair_to_budget(child, profile, config.target_bits, config.min_bits);
      next_population.push_back(std::move(child));
    }
    population = std::move(next_population);
    scores.clear();
    for (const auto& candidate : population) {
      scores.push_back(fitness(candidate));
    }
    record_best();
  }

  result.average_bits =
      assignment_average_bits(result.best_bits, profile.layer_sizes);
  return result;
}

}  // namespace csq
