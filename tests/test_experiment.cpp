// Sanity tests over the experiment drivers: small-scale versions of the
// paper's sweeps, pinning the qualitative results (SCOUT recall beats
// SCORE-1; γ small; scalability point structure sane).
#include "src/scout/experiment.h"

#include <gtest/gtest.h>

namespace scout {
namespace {

AccuracyOptions small_options(RiskModelKind model) {
  AccuracyOptions opts;
  opts.profile = GeneratorProfile::testbed();
  opts.model = model;
  opts.runs = 5;
  opts.max_faults = 4;
  opts.benign_changes = 5;
  opts.seed = 7;
  return opts;
}

const std::vector<AlgorithmSpec> kAlgorithms{
    {"SCOUT", AlgorithmKind::kScout, 1.0, true},
    {"SCORE-1", AlgorithmKind::kScore, 1.0, true},
    {"SCORE-0.6", AlgorithmKind::kScore, 0.6, true},
};

TEST(Experiment, AccuracySweepShapesAndBounds) {
  const auto series =
      run_accuracy_sweep(small_options(RiskModelKind::kController),
                         kAlgorithms);
  ASSERT_EQ(series.size(), 3u);
  for (const AccuracySeries& s : series) {
    ASSERT_EQ(s.by_faults.size(), 4u);
    for (const AccuracyCell& cell : s.by_faults) {
      EXPECT_GE(cell.precision, 0.0);
      EXPECT_LE(cell.precision, 1.0);
      EXPECT_GE(cell.recall, 0.0);
      EXPECT_LE(cell.recall, 1.0);
    }
  }
}

TEST(Experiment, ScoutRecallAtLeastScore1) {
  // SCOUT = SCORE-1 stage 1 + change-log stage: its recall can only be
  // higher or equal, at every fault count (the paper's headline claim).
  const auto series =
      run_accuracy_sweep(small_options(RiskModelKind::kController),
                         kAlgorithms);
  const AccuracySeries& scout_series = series[0];
  const AccuracySeries& score1 = series[1];
  for (std::size_t f = 0; f < scout_series.by_faults.size(); ++f) {
    EXPECT_GE(scout_series.by_faults[f].recall + 1e-9,
              score1.by_faults[f].recall)
        << "faults=" << f + 1;
  }
  // And strictly better somewhere (partial faults exist with prob ~0.5).
  double scout_total = 0, score_total = 0;
  for (std::size_t f = 0; f < scout_series.by_faults.size(); ++f) {
    scout_total += scout_series.by_faults[f].recall;
    score_total += score1.by_faults[f].recall;
  }
  EXPECT_GT(scout_total, score_total);
}

TEST(Experiment, SwitchModelSweepRuns) {
  const auto series = run_accuracy_sweep(
      small_options(RiskModelKind::kSwitch), kAlgorithms);
  ASSERT_EQ(series.size(), 3u);
  // SCOUT's recall should be solid on the switch model too.
  double mean_recall = 0;
  for (const AccuracyCell& cell : series[0].by_faults) {
    mean_recall += cell.recall;
  }
  mean_recall /= static_cast<double>(series[0].by_faults.size());
  EXPECT_GT(mean_recall, 0.5);
}

TEST(Experiment, GammaExperimentProducesSmallRatios) {
  GammaOptions opts;
  opts.profile = GeneratorProfile::testbed();
  opts.faults = 60;
  opts.seed = 3;
  opts.bucket_bounds = {10, 20, 40, 60};
  const auto buckets = run_gamma_experiment(opts);
  ASSERT_EQ(buckets.size(), 4u);

  std::size_t total_samples = 0;
  for (const GammaBucket& b : buckets) {
    total_samples += b.samples;
    if (b.samples > 0) {
      EXPECT_GT(b.mean_gamma, 0.0);
      EXPECT_LE(b.mean_gamma, 1.0);
    }
  }
  EXPECT_GT(total_samples, 0u);
}

TEST(Experiment, ScalabilityPointIsComplete) {
  const ScalePoint point = run_scalability_point(
      /*switches=*/10, /*seed=*/5, /*n_faults=*/3, /*pairs_per_switch=*/30);
  EXPECT_EQ(point.switches, 10u);
  EXPECT_GT(point.epg_pairs, 0u);
  EXPECT_GT(point.elements, 0u);
  EXPECT_GT(point.risks, 0u);
  EXPECT_GT(point.edges, point.elements);
  EXPECT_GE(point.model_build_seconds, 0.0);
  EXPECT_GE(point.localize_seconds, 0.0);
  EXPECT_GT(point.correlate_seconds, 0.0);
}

TEST(Experiment, ScalabilityElementsGrowWithSwitches) {
  const ScalePoint small = run_scalability_point(5, 5, 2, 30);
  const ScalePoint large = run_scalability_point(20, 5, 2, 30);
  EXPECT_GT(large.elements, small.elements);
  EXPECT_GT(large.edges, small.edges);
}

}  // namespace
}  // namespace scout
