#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace pafeat {
namespace {

int DeriveRelevantCount(const SyntheticSpec& spec) {
  if (spec.relevant_per_task > 0) return spec.relevant_per_task;
  const int derived = static_cast<int>(0.15 * spec.num_features);
  return std::clamp(derived, 3, 20);
}

}  // namespace

std::vector<int> SyntheticDataset::SeenTaskIndices() const {
  std::vector<int> indices(spec.num_seen_tasks);
  for (int i = 0; i < spec.num_seen_tasks; ++i) indices[i] = i;
  return indices;
}

std::vector<int> SyntheticDataset::UnseenTaskIndices() const {
  std::vector<int> indices(spec.num_unseen_tasks);
  for (int i = 0; i < spec.num_unseen_tasks; ++i) {
    indices[i] = spec.num_seen_tasks + i;
  }
  return indices;
}

SyntheticDataset GenerateSynthetic(const SyntheticSpec& spec) {
  PF_CHECK_GT(spec.num_instances, 10);
  PF_CHECK_GT(spec.num_features, 3);
  PF_CHECK_GT(spec.num_seen_tasks, 0);
  PF_CHECK_GT(spec.num_unseen_tasks, 0);

  Rng rng(spec.seed);
  const int n = spec.num_instances;
  const int m = spec.num_features;
  const int num_tasks = spec.num_seen_tasks + spec.num_unseen_tasks;
  const int relevant = std::min(DeriveRelevantCount(spec), m);

  // Base features carry independent signal; redundant features are noisy
  // linear copies of base features.
  int num_redundant =
      static_cast<int>(std::lround(spec.redundant_fraction * m));
  num_redundant = std::clamp(num_redundant, 0, m - relevant);
  const int num_base = m - num_redundant;

  Matrix features(n, m);
  for (int r = 0; r < n; ++r) {
    float* row = features.Row(r);
    for (int c = 0; c < num_base; ++c) {
      row[c] = static_cast<float>(rng.Normal());
    }
  }

  // Shared relevant pool: the transfer signal between seen and unseen tasks.
  const int pool_size = std::min(num_base, std::max(relevant * 2, relevant + 2));
  std::vector<int> pool = rng.SampleWithoutReplacement(num_base, pool_size);

  // Redundant features are noisy copies, preferentially of *pool* features:
  // the copies inherit high label correlation, so univariate rankers
  // (K-Best) spend budget on duplicates — the redundancy blindness the
  // paper criticizes filter methods for.
  std::vector<int> redundant_source(num_redundant);
  for (int i = 0; i < num_redundant; ++i) {
    redundant_source[i] = rng.Bernoulli(0.7)
                              ? pool[rng.UniformInt(pool_size)]
                              : rng.UniformInt(num_base);
    const float mix = static_cast<float>(rng.Uniform(0.7, 1.3));
    for (int r = 0; r < n; ++r) {
      features.At(r, num_base + i) =
          mix * features.At(r, redundant_source[i]) +
          0.3f * static_cast<float>(rng.Normal());
    }
  }

  Matrix labels(n, num_tasks);
  std::vector<std::vector<int>> relevant_features(num_tasks);
  std::vector<std::string> label_names(num_tasks);

  for (int t = 0; t < num_tasks; ++t) {
    const int from_pool = std::clamp(
        static_cast<int>(std::lround(spec.cross_task_overlap * relevant)), 0,
        std::min(relevant, pool_size));
    std::vector<int> chosen;
    std::vector<int> pool_pick =
        rng.SampleWithoutReplacement(pool_size, from_pool);
    for (int idx : pool_pick) chosen.push_back(pool[idx]);
    while (static_cast<int>(chosen.size()) < relevant) {
      const int candidate = rng.UniformInt(num_base);
      if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end()) {
        chosen.push_back(candidate);
      }
    }
    std::sort(chosen.begin(), chosen.end());
    relevant_features[t] = chosen;

    // Per-feature weights with random signs. A fraction of the relevant
    // features are *interaction-only*: they carry no linear main effect and
    // contribute solely through pairwise products with a main-effect
    // feature — structure that univariate filters (K-Best) and linear
    // wrappers cannot see, but reward-driven search can.
    const int interaction_only =
        static_cast<int>(chosen.size()) >= 3
            ? std::max(1, static_cast<int>(chosen.size()) / 3)
            : 0;
    const int main_count = static_cast<int>(chosen.size()) - interaction_only;
    std::vector<float> weights(chosen.size(), 0.0f);
    for (int j = 0; j < main_count; ++j) {
      const float magnitude = static_cast<float>(rng.Uniform(0.6, 1.6));
      weights[j] = rng.Bernoulli(0.5) ? magnitude : -magnitude;
    }
    // Interaction pairs: (interaction-only feature, random main feature).
    std::vector<std::pair<int, int>> pairs;
    std::vector<float> pair_weights;
    for (int p = 0; p < interaction_only; ++p) {
      pairs.emplace_back(chosen[main_count + p],
                         chosen[rng.UniformInt(std::max(main_count, 1))]);
      const float magnitude = static_cast<float>(rng.Uniform(1.0, 1.6));
      pair_weights.push_back(rng.Bernoulli(0.5) ? magnitude : -magnitude);
    }

    // Vary the noise level across tasks so task difficulties differ.
    PF_CHECK_GE(spec.difficulty_spread, 1.0);
    const double noise_scale =
        std::pow(spec.difficulty_spread, rng.Uniform(-1.0, 1.0));
    const double task_noise = spec.label_noise * noise_scale;

    std::vector<float> logits(n, 0.0f);
    for (int r = 0; r < n; ++r) {
      float logit = 0.0f;
      for (int j = 0; j < main_count; ++j) {
        logit += weights[j] * features.At(r, chosen[j]);
      }
      for (size_t p = 0; p < pairs.size(); ++p) {
        logit += pair_weights[p] * features.At(r, pairs[p].first) *
                 features.At(r, pairs[p].second);
      }
      logit += static_cast<float>(rng.Normal(0.0, task_noise));
      logits[r] = logit;
    }

    // Threshold at a random quantile so the positive rate lands in
    // [0.25, 0.5] (matching the class-imbalance spread of the real sets).
    const double positive_rate = rng.Uniform(0.25, 0.5);
    std::vector<float> sorted = logits;
    const int cut = static_cast<int>((1.0 - positive_rate) * n);
    std::nth_element(sorted.begin(), sorted.begin() + cut, sorted.end());
    const float threshold = sorted[cut];
    for (int r = 0; r < n; ++r) {
      labels.At(r, t) = logits[r] > threshold ? 1.0f : 0.0f;
    }

    label_names[t] = spec.name + (t < spec.num_seen_tasks ? "_seen_" : "_unseen_") +
                     std::to_string(t < spec.num_seen_tasks
                                        ? t
                                        : t - spec.num_seen_tasks);
  }

  std::vector<std::string> feature_names(m);
  for (int c = 0; c < m; ++c) {
    feature_names[c] = (c < num_base ? "f" : "red") + std::to_string(c);
  }

  SyntheticDataset dataset;
  dataset.spec = spec;
  dataset.spec.relevant_per_task = relevant;
  dataset.table = Table(std::move(features), std::move(labels),
                        std::move(feature_names), std::move(label_names));
  dataset.relevant_features = std::move(relevant_features);
  return dataset;
}

std::vector<SyntheticSpec> PaperDatasetSpecs() {
  // Table I of the paper: name, #instances, #features, #seen, #unseen.
  struct Shape {
    const char* name;
    int n;
    int m;
    int seen;
    int unseen;
  };
  static constexpr Shape kShapes[] = {
      {"Emotions", 593, 72, 4, 2},
      {"Water-quality", 1060, 16, 7, 7},
      {"Yeast", 2417, 103, 7, 7},
      {"Physionet2012", 12000, 41, 12, 17},
      {"Computers", 12440, 159, 7, 11},
      {"Mediamill", 43910, 120, 7, 9},
      {"Business", 5192, 520, 7, 5},
      {"Entertainment", 4208, 1020, 7, 5},
  };
  std::vector<SyntheticSpec> specs;
  uint64_t seed = 1000;
  for (const Shape& shape : kShapes) {
    SyntheticSpec spec;
    spec.name = shape.name;
    spec.num_instances = shape.n;
    spec.num_features = shape.m;
    spec.num_seen_tasks = shape.seen;
    spec.num_unseen_tasks = shape.unseen;
    spec.seed = seed++;
    specs.push_back(spec);
  }
  return specs;
}

std::optional<SyntheticSpec> PaperSpecByName(const std::string& name) {
  for (const SyntheticSpec& spec : PaperDatasetSpecs()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

}  // namespace pafeat
