// Cross-module property tests: parameterized sweeps over generator
// configurations and method hyperparameters checking invariants that must
// hold for ANY setting (not just the tuned defaults).
#include <gtest/gtest.h>

#include <cmath>

#include "core/nurd.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "ml/gbt.h"
#include "trace/generator.h"

namespace nurd {
namespace {

// ---------------------------------------------------------------------------
// Generator invariants over a config grid.

struct GenCase {
  double signal;
  double noise;
  double straggler_rate;
  bool far;
  std::uint64_t seed;
};

class GeneratorPropertyTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorPropertyTest, JobInvariantsHold) {
  const auto& c = GetParam();
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 100;
  config.max_tasks = 140;
  config.feature_signal = c.signal;
  config.feature_noise = c.noise;
  config.straggler_rate = c.straggler_rate;
  config.regime = c.far ? trace::TailRegime::kFar : trace::TailRegime::kNear;
  config.seed = c.seed;
  trace::GoogleLikeGenerator gen(config);
  const auto job = gen.generate(1)[0];

  // Latencies positive, checkpoints strictly ascending, partitions exact.
  for (double y : job.latencies()) EXPECT_GT(y, 0.0);
  double prev = 0.0;
  for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
    const auto view = job.checkpoint(t);
    EXPECT_GT(view.tau_run(), prev);
    prev = view.tau_run();
    EXPECT_EQ(view.finished().size() + view.running().size(),
              job.task_count());
    for (std::size_t i = 0; i < job.task_count(); ++i) {
      for (double v : view.row(i)) EXPECT_TRUE(std::isfinite(v));
    }
  }
  // The p90 threshold is inside the latency range.
  const double tau = job.straggler_threshold();
  EXPECT_GT(tau, 0.0);
  EXPECT_LT(tau, job.completion_time());
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, GeneratorPropertyTest,
    ::testing::Values(GenCase{1.0, 0.3, 0.10, true, 1},
                      GenCase{1.0, 0.3, 0.10, false, 2},
                      GenCase{0.3, 1.5, 0.10, true, 3},
                      GenCase{0.3, 1.5, 0.10, false, 4},
                      GenCase{0.6, 1.0, 0.05, true, 5},
                      GenCase{0.6, 1.0, 0.20, true, 6},
                      GenCase{0.6, 1.0, 0.20, false, 7},
                      GenCase{1.5, 0.5, 0.12, true, 8}));

// ---------------------------------------------------------------------------
// Harness protocol invariants for NURD across α/ε settings.

struct NurdCase {
  double alpha;
  double epsilon;
};

class NurdProtocolTest : public ::testing::TestWithParam<NurdCase> {};

TEST_P(NurdProtocolTest, FlagsAreStickyAndCountsConsistent) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 100;
  config.max_tasks = 120;
  trace::GoogleLikeGenerator gen(config);
  const auto job = gen.generate(1)[0];

  core::NurdParams params;
  params.alpha = GetParam().alpha;
  params.epsilon = GetParam().epsilon;
  core::NurdPredictor predictor(params);
  const auto run = eval::run_job(job, predictor);

  // Confusion partitions the job.
  EXPECT_EQ(run.final.tp + run.final.fp + run.final.fn + run.final.tn,
            job.task_count());
  // Cumulative flagged counts never decrease across checkpoints.
  for (std::size_t t = 1; t < run.per_checkpoint.size(); ++t) {
    EXPECT_GE(run.per_checkpoint[t].tp + run.per_checkpoint[t].fp,
              run.per_checkpoint[t - 1].tp + run.per_checkpoint[t - 1].fp);
  }
  // A flag time points at a checkpoint where the task was still running.
  for (std::size_t i = 0; i < job.task_count(); ++i) {
    if (run.flagged_at[i] == eval::kNeverFlagged) continue;
    EXPECT_GT(job.latency(i), job.trace.tau_run(run.flagged_at[i]));
  }
}

TEST_P(NurdProtocolTest, WeightAlwaysInEpsilonOneRange) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 100;
  config.max_tasks = 100;
  trace::GoogleLikeGenerator gen(config);
  const auto job = gen.generate(1)[0];
  core::NurdParams params;
  params.alpha = GetParam().alpha;
  params.epsilon = GetParam().epsilon;
  core::NurdPredictor predictor(params);
  predictor.initialize(
      eval::make_job_context(job, job.straggler_threshold()));
  predictor.calibrate(job.checkpoint(0));
  for (double z : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    const double w = predictor.weight(z);
    EXPECT_GE(w, params.epsilon);
    EXPECT_LE(w, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaEpsilonGrid, NurdProtocolTest,
                         ::testing::Values(NurdCase{0.15, 0.05},
                                           NurdCase{0.25, 0.05},
                                           NurdCase{0.5, 0.05},
                                           NurdCase{0.5, 0.01},
                                           NurdCase{0.5, 0.2},
                                           NurdCase{0.9, 0.05}));

// ---------------------------------------------------------------------------
// GBT invariants over hyperparameter grid.

struct GbtCase {
  int depth;
  double lr;
};

class GbtPropertyTest : public ::testing::TestWithParam<GbtCase> {};

TEST_P(GbtPropertyTest, PredictionsFiniteAndFitBeatsMeanBaseline) {
  Rng rng(91);
  const std::size_t n = 300;
  Matrix x(n, 5);
  std::vector<double> y(n);
  double mean_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 5; ++j) x(i, j) = rng.normal();
    y[i] = 2.0 * x(i, 0) + std::abs(x(i, 1)) + rng.normal(0.0, 0.3);
    mean_y += y[i];
  }
  mean_y /= static_cast<double>(n);

  ml::GbtParams params;
  params.tree.max_depth = GetParam().depth;
  params.learning_rate = GetParam().lr;
  auto model = ml::GradientBoosting::regressor(params);
  model.fit(x, y);

  double sse = 0.0, sse_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = model.predict(x.row(i));
    EXPECT_TRUE(std::isfinite(p));
    sse += (p - y[i]) * (p - y[i]);
    sse_mean += (mean_y - y[i]) * (mean_y - y[i]);
  }
  EXPECT_LT(sse, sse_mean);
}

INSTANTIATE_TEST_SUITE_P(HyperGrid, GbtPropertyTest,
                         ::testing::Values(GbtCase{1, 0.3}, GbtCase{2, 0.1},
                                           GbtCase{3, 0.1}, GbtCase{5, 0.05},
                                           GbtCase{6, 0.3}));

// ---------------------------------------------------------------------------
// Registry-wide invariant: per-method flag rates are sane on both datasets.

class DatasetSweepTest : public ::testing::TestWithParam<bool> {};

TEST_P(DatasetSweepTest, NurdConfusionRatesAreRates) {
  const bool google = GetParam();
  std::vector<trace::Job> jobs;
  if (google) {
    auto c = trace::GoogleLikeGenerator::google_defaults();
    c.min_tasks = 100;
    c.max_tasks = 120;
    trace::GoogleLikeGenerator gen(c);
    jobs = gen.generate(3);
  } else {
    auto c = trace::AlibabaLikeGenerator::alibaba_defaults();
    c.min_tasks = 100;
    c.max_tasks = 120;
    trace::AlibabaLikeGenerator gen(c);
    jobs = gen.generate(3);
  }
  const auto cfg = google ? core::google_tuned() : core::alibaba_tuned();
  const auto res =
      eval::evaluate_method(core::predictor_by_name("NURD", cfg), jobs);
  for (double r : {res.tpr, res.fpr, res.fnr, res.f1}) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
  EXPECT_NEAR(res.tpr + res.fnr, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(BothDatasets, DatasetSweepTest, ::testing::Bool());

}  // namespace
}  // namespace nurd
