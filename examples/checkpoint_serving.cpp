// Offline training / online serving split: train PA-FEAT once, persist the
// agent to disk, then serve unseen tasks from the checkpoint without any
// training state (no classifiers, buffers or E-Trees) — the deployment mode
// a production analytics system would use. Finally, a training checkpoint
// (format v3: agent plus replay, reward caches, E-Trees and RNG stream)
// lets a fresh process continue the training run where it stopped, and a
// long-lived SelectionServer hot-swaps to the continued agent.
//
//   ./build/examples/example_checkpoint_serving

#include <cstdio>

#include "common/timer.h"
#include "core/checkpoint.h"
#include "core/defaults.h"
#include "core/experiment.h"
#include "core/pafeat.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "serve/selection_server.h"

using namespace pafeat;

int main() {
  SyntheticSpec spec;
  spec.name = "serving";
  spec.num_instances = 700;
  spec.num_features = 20;
  spec.num_seen_tasks = 4;
  spec.num_unseen_tasks = 2;
  spec.seed = 4242;
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  FsProblem problem(dataset.table, DefaultProblemConfig(), 4243);

  // --- offline: train and checkpoint -------------------------------------
  PaFeatConfig config;
  config.feat = DefaultFeatOptions(400, 4244).feat;
  config.feat.max_feature_ratio = 0.5;
  PaFeat pafeat(&problem, dataset.SeenTaskIndices(), config);
  pafeat.Train(400);

  const std::string path = "/tmp/pafeat_serving.ckpt";
  const AgentCheckpoint checkpoint = MakeCheckpoint(pafeat.feat());
  if (!SaveCheckpoint(checkpoint, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("trained and saved agent: %zu parameters -> %s\n",
              checkpoint.parameters.size(), path.c_str());

  // --- online: an independent serving path -------------------------------
  // (in production this would be another process; here we just reload)
  const auto server = CheckpointedSelector::FromFile(path);
  if (!server.has_value()) {
    std::fprintf(stderr, "cannot load %s\n", path.c_str());
    return 1;
  }
  std::printf("serving selector restored: %d features, mfr %.2f\n\n",
              server->num_features(), server->max_feature_ratio());

  for (int unseen : dataset.UnseenTaskIndices()) {
    // The serving side only needs the new task's representation, which it
    // can compute from the (label, features) stream with one Pearson pass.
    const std::vector<float> repr = problem.ComputeTaskRepresentation(unseen);
    WallTimer timer;
    const FeatureMask mask = server->SelectForRepresentation(repr);
    const double select_ms = timer.ElapsedMillis();

    const DownstreamScore score =
        EvaluateSubsetDownstream(&problem, unseen, mask, 4245);
    const FeatureMask live = pafeat.SelectFeatures(unseen);
    std::printf(
        "unseen task %d: %d features in %.3f ms | F1 %.4f AUC %.4f | "
        "matches live agent: %s\n",
        unseen, MaskCount(mask), select_ms, score.f1, score.auc,
        mask == live ? "yes" : "NO");
  }

  // --- warm resume: continue training in a fresh instance -----------------
  const std::string training_path = "/tmp/pafeat_training.ckpt";
  if (!SaveTrainingCheckpoint(MakeTrainingCheckpoint(pafeat), training_path)) {
    std::fprintf(stderr, "cannot write %s\n", training_path.c_str());
    return 1;
  }
  std::string error;
  const auto training = LoadTrainingCheckpoint(training_path, &error);
  FsProblem resumed_problem(dataset.table, DefaultProblemConfig(), 4243);
  PaFeat resumed(&resumed_problem, dataset.SeenTaskIndices(), config);
  if (!training.has_value() ||
      !RestoreTrainingCheckpoint(*training, &resumed, &error)) {
    std::fprintf(stderr, "cannot resume from %s: %s\n",
                 training_path.c_str(), error.c_str());
    return 1;
  }
  pafeat.Train(50);
  resumed.Train(50);
  const bool same = resumed.feat().agent().online_net().SerializeParams() ==
                    pafeat.feat().agent().online_net().SerializeParams();
  std::printf("\nresumed from %s for 50 more iterations: parameters %s\n",
              training_path.c_str(),
              same ? "match the uninterrupted run" : "DIFFER");
  if (!same) return 1;

  // --- hot swap: the serving process picks up the continued agent ---------
  SelectionServer serving(checkpoint);
  if (!serving.PublishCheckpoint(MakeCheckpoint(resumed.feat()), &error)) {
    std::fprintf(stderr, "hot swap rejected: %s\n", error.c_str());
    return 1;
  }
  const int unseen = dataset.UnseenTaskIndices()[0];
  const SelectionResponse response =
      serving.Select(problem.ComputeTaskRepresentation(unseen));
  if (response.status != AdmissionStatus::kOk) return 1;
  std::printf("hot-swapped server (net version %llu): %d features for "
              "unseen task %d, matches the continued agent: %s\n",
              static_cast<unsigned long long>(response.stats.net_version),
              MaskCount(response.mask), unseen,
              response.mask == resumed.SelectFeatures(unseen) ? "yes" : "NO");
  return 0;
}
