// End-to-end integration tests: the full pipeline from trace generation
// through online prediction to scheduling, checking the paper's qualitative
// claims hold on small job sets (the full-scale versions are the benches).
#include <gtest/gtest.h>

#include "core/registry.h"
#include "eval/harness.h"
#include "sched/cluster.h"
#include "sched/scheduler.h"
#include "trace/generator.h"

namespace nurd {
namespace {

std::vector<trace::Job> small_google(std::size_t n) {
  auto c = trace::GoogleLikeGenerator::google_defaults();
  c.min_tasks = 100;
  c.max_tasks = 200;
  trace::GoogleLikeGenerator gen(c);
  return gen.generate(n);
}

TEST(Integration, NurdBeatsSupervisedBaseline) {
  const auto jobs = small_google(8);
  const auto cfg = core::google_tuned();
  const auto nurd =
      eval::evaluate_method(core::predictor_by_name("NURD", cfg), jobs);
  const auto gbtr =
      eval::evaluate_method(core::predictor_by_name("GBTR", cfg), jobs);
  EXPECT_GT(nurd.f1, gbtr.f1);
  EXPECT_GT(nurd.tpr, gbtr.tpr);
}

TEST(Integration, NurdNcHasHigherFprThanNurd) {
  const auto jobs = small_google(8);
  const auto cfg = core::google_tuned();
  const auto nurd =
      eval::evaluate_method(core::predictor_by_name("NURD", cfg), jobs);
  const auto nc =
      eval::evaluate_method(core::predictor_by_name("NURD-NC", cfg), jobs);
  EXPECT_LT(nurd.fpr, nc.fpr);
}

TEST(Integration, PuMethodsOverFlag) {
  // §7.1: "PU learners aggressively classify tasks that are different from
  // training tasks to be stragglers" — high TPR, high FPR.
  const auto jobs = small_google(6);
  const auto cfg = core::google_tuned();
  for (const char* name : {"PU-EN", "PU-BG"}) {
    const auto res =
        eval::evaluate_method(core::predictor_by_name(name, cfg), jobs);
    EXPECT_GT(res.tpr, 0.8) << name;
    EXPECT_GT(res.fpr, 0.3) << name;
  }
}

TEST(Integration, StreamingF1IsNonTrivial) {
  const auto jobs = small_google(6);
  const auto cfg = core::google_tuned();
  const auto nurd =
      eval::evaluate_method(core::predictor_by_name("NURD", cfg), jobs);
  ASSERT_EQ(nurd.f1_timeline.size(), 10u);
  // Cumulative F1 at the final checkpoint equals the Table-3 value.
  EXPECT_NEAR(nurd.f1_timeline.back(), nurd.f1, 1e-9);
  // NURD finds most of its stragglers well before the end.
  EXPECT_GT(nurd.f1_timeline[4], 0.5 * nurd.f1);
}

TEST(Integration, NurdJctReductionPositiveAndAboveNc) {
  const auto jobs = small_google(8);
  const auto cfg = core::google_tuned();
  const auto nurd_runs =
      eval::run_method(core::predictor_by_name("NURD", cfg), jobs);
  const auto nc_runs =
      eval::run_method(core::predictor_by_name("NURD-NC", cfg), jobs);
  // Algorithm 2: the cluster simulator with unlimited machines.
  sched::ClusterConfig unlimited;
  unlimited.machines = sched::kUnlimitedMachines;
  Rng nurd_rng(7), nc_rng(7);
  const auto nurd =
      sched::simulate_cluster(jobs, nurd_runs, unlimited, nurd_rng);
  const auto nc = sched::simulate_cluster(jobs, nc_runs, unlimited, nc_rng);
  const double nurd_red = nurd.mean_reduction_pct();
  const double nc_red = nc.mean_reduction_pct();
  EXPECT_GT(nurd_red, 5.0);       // meaningful reduction
  EXPECT_GT(nurd_red, nc_red);    // calibration pays off in JCT too
}

TEST(Integration, LimitedMachinesReductionGrowsWithPool) {
  const auto jobs = small_google(6);
  const auto cfg = core::google_tuned();
  const auto runs =
      eval::run_method(core::predictor_by_name("NURD", cfg), jobs);
  const double small = sched::mean_reduction_limited(jobs, runs, 5, 7);
  const double large = sched::mean_reduction_limited(jobs, runs, 150, 7);
  EXPECT_GE(large, small - 1.0);
}

TEST(Integration, AlibabaPipelineRuns) {
  auto c = trace::AlibabaLikeGenerator::alibaba_defaults();
  c.min_tasks = 100;
  c.max_tasks = 150;
  trace::AlibabaLikeGenerator gen(c);
  const auto jobs = gen.generate(4);
  const auto cfg = core::alibaba_tuned();
  const auto nurd =
      eval::evaluate_method(core::predictor_by_name("NURD", cfg), jobs);
  EXPECT_GT(nurd.f1, 0.2);
  EXPECT_LE(nurd.f1, 1.0);
}

}  // namespace
}  // namespace nurd
