// The shared featurization layer and the incremental refit path.
//
//   * blocks must equal the hand-rolled assembly they replaced
//     (gather-by-finished, [finished; running] membership, dense snapshot)
//     under both policies, the snapshot bitwise while patched from deltas;
//   * warm-start model continuation must be exact where exactness is
//     provable (same data: fit(a)+continue(r) ≡ fit(a+r); logistic warm
//     start converges to the cold optimum);
//   * end-to-end, a method that refits whole must flag at every checkpoint
//     exactly as a fresh instance does, and the warm-started learners must
//     land within tolerance of the full-refit reference.
#include "core/fit_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/registry.h"
#include "eval/harness.h"
#include "ml/gbt.h"
#include "ml/logistic.h"
#include "trace/generator.h"

namespace nurd {
namespace {

using core::FitSession;
using core::RefitPolicy;

std::vector<trace::Job> small_jobs(std::size_t count = 2) {
  auto c = trace::GoogleLikeGenerator::google_defaults();
  c.min_tasks = 110;
  c.max_tasks = 140;
  return trace::GoogleLikeGenerator(c).generate(count);
}

TEST(FitSession, FullPolicyMatchesHandRolledAssembly) {
  const auto jobs = small_jobs(1);
  const auto& job = jobs.front();
  FitSession session(RefitPolicy::kFull);
  for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
    const auto view = job.checkpoint(t);
    session.observe(view);

    Matrix x_fin_ref;
    nurd::AlignedVector<double> y_fin_ref;
    view.gather_rows(view.finished(), &x_fin_ref);
    view.finished_latencies(&y_fin_ref);
    const Matrix& x_fin = session.x_fin();
    ASSERT_EQ(x_fin.rows(), x_fin_ref.rows());
    EXPECT_TRUE(std::equal(x_fin.flat().begin(), x_fin.flat().end(),
                           x_fin_ref.flat().begin()));
    EXPECT_TRUE(std::equal(session.y_fin().begin(), session.y_fin().end(),
                           y_fin_ref.begin()));

    // Membership: finished rows (1.0) then running rows (0.0).
    const Matrix& x_mem = session.x_member();
    const auto y_mem = session.y_member();
    ASSERT_EQ(x_mem.rows(), view.task_count());
    std::size_t r = 0;
    for (const auto i : view.finished()) {
      EXPECT_DOUBLE_EQ(y_mem[r], 1.0);
      EXPECT_TRUE(std::equal(x_mem.row(r).begin(), x_mem.row(r).end(),
                             view.row(i).begin()));
      ++r;
    }
    for ([[maybe_unused]] const auto i : view.running()) {
      EXPECT_DOUBLE_EQ(y_mem[r], 0.0);
      ++r;
    }

    Matrix snap_ref;
    view.snapshot(&snap_ref);
    const Matrix& snap = session.snapshot();
    EXPECT_TRUE(std::equal(snap.flat().begin(), snap.flat().end(),
                           snap_ref.flat().begin()));
  }
}

TEST(FitSession, IncrementalSnapshotIsBitwiseIdenticalToRebuild) {
  const auto jobs = small_jobs(1);
  const auto& job = jobs.front();
  FitSession session(RefitPolicy::kIncremental);
  trace::CheckpointView view(job.trace, 0);
  for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
    view.rebind(t);
    session.observe(view);
    Matrix ref;
    view.snapshot(&ref);
    const Matrix& snap = session.snapshot();
    ASSERT_EQ(snap.rows(), ref.rows());
    EXPECT_TRUE(std::equal(snap.flat().begin(), snap.flat().end(),
                           ref.flat().begin()))
        << "checkpoint " << t;
  }
}

TEST(FitSession, IncrementalFinishedBlockIsBitwiseTheFullBlock) {
  // The finished block must be bitwise identical under both policies —
  // boosted-tree fits are chaotic in their inputs, so an incremental refresh
  // can only land on the reference ensemble if it fits the exact same bytes.
  const auto jobs = small_jobs(1);
  const auto& job = jobs.front();
  FitSession inc(RefitPolicy::kIncremental);
  FitSession full(RefitPolicy::kFull);
  for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
    const auto view = job.checkpoint(t);
    inc.observe(view);
    full.observe(view);
    const Matrix& a = inc.x_fin();
    const Matrix& b = full.x_fin();
    ASSERT_EQ(a.rows(), b.rows());
    EXPECT_TRUE(
        std::equal(a.flat().begin(), a.flat().end(), b.flat().begin()));
    EXPECT_TRUE(std::equal(inc.y_fin().begin(), inc.y_fin().end(),
                           full.y_fin().begin()));
    EXPECT_TRUE(std::equal(inc.fin_ids().begin(), inc.fin_ids().end(),
                           view.finished().begin()));

    // The membership block is likewise the seed's exact [finished; running]
    // assembly under both policies — same bytes, same propensity model.
    const Matrix& mem_a = inc.x_member();
    const Matrix& mem_b = full.x_member();
    ASSERT_EQ(mem_a.rows(), mem_b.rows());
    EXPECT_TRUE(std::equal(mem_a.flat().begin(), mem_a.flat().end(),
                           mem_b.flat().begin()));
    EXPECT_TRUE(std::equal(inc.y_member().begin(), inc.y_member().end(),
                           full.y_member().begin()));
  }
}

// Predictors skip checkpoints (the empty-finished / empty-candidate
// guards never observe), so a sparse observe chain must report deltas that
// span every checkpoint since the last observe, and the snapshot, patched
// across the gap, must stay bitwise the view's own rebuild.
TEST(FitSession, SparseIncrementalObserveMatchesFullBitwise) {
  const auto jobs = small_jobs(1);
  const auto& job = jobs.front();
  FitSession inc(RefitPolicy::kIncremental);
  FitSession full(RefitPolicy::kFull);
  const std::size_t T = job.checkpoint_count();
  std::vector<trace::CheckpointView> views;
  views.reserve(T);
  for (std::size_t t = 0; t < T; ++t) views.push_back(job.checkpoint(t));

  std::size_t last = trace::kNoCheckpoint;
  for (std::size_t t = 0; t < T; t += 3) {  // the guard skipped the others
    inc.observe(views[t]);
    full.observe(views[t]);
    EXPECT_EQ(inc.advanced(), full.advanced());
    ASSERT_TRUE(std::equal(inc.newly_finished().begin(),
                           inc.newly_finished().end(),
                           full.newly_finished().begin(),
                           full.newly_finished().end()))
        << "checkpoint " << t;
    // The delta spans the whole gap: exactly the tasks finished since the
    // last observed view.
    std::vector<std::size_t> expected;
    views[t].delta_since(last, &expected, nullptr);
    EXPECT_TRUE(std::equal(inc.newly_finished().begin(),
                           inc.newly_finished().end(), expected.begin(),
                           expected.end()))
        << "checkpoint " << t;
    Matrix ref;
    views[t].snapshot(&ref);
    const Matrix& snap = inc.snapshot();
    ASSERT_EQ(snap.rows(), ref.rows());
    EXPECT_TRUE(std::equal(snap.flat().begin(), snap.flat().end(),
                           ref.flat().begin()))
        << "checkpoint " << t;
    last = t;
  }
}

TEST(WarmStartGbt, FitPlusContinueEqualsOneLongFit) {
  // On unchanged data, a warm-started continuation consumes the exact same
  // gradient/tree sequence a single longer fit would — bit-identical
  // ensembles, for both the exact and histogram backends.
  Rng rng(123);
  for (const std::size_t n : {60u, 400u}) {  // exact (<256) and histogram
    Matrix x(n, 5);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 5; ++j) x(i, j) = rng.normal();
      y[i] = x(i, 0) * 2.0 - x(i, 3) + 0.1 * rng.normal();
    }
    ml::GbtParams warm;
    warm.n_rounds = 12;
    warm.warm_start = true;
    warm.warm_rate_factor = 1.0;  // the exact-equivalence configuration
    auto a = ml::GradientBoosting::regressor(warm);
    a.fit(x, y);
    a.continue_fit(x, y, 8);

    ml::GbtParams full;
    full.n_rounds = 20;
    auto b = ml::GradientBoosting::regressor(full);
    b.fit(x, y);

    ASSERT_EQ(a.tree_count(), b.tree_count());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(a.predict(x.row(i)), b.predict(x.row(i)));
    }
  }
}

TEST(WarmStartGbt, ContinueAbsorbsInsertedRows) {
  Rng rng(7);
  const std::size_t n0 = 300, n1 = 360;
  Matrix x(n1, 4);
  std::vector<double> y(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.normal();
    y[i] = 3.0 * x(i, 1) + rng.normal() * 0.05;
  }
  // The fitted block is every row but every sixth, which the continuation
  // then splices back in at their positions.
  std::vector<std::size_t> inserted;
  Matrix x0(n0, 4);
  std::vector<double> y0;
  for (std::size_t i = 0; i < n1; ++i) {
    if (i % 6 == 5) {
      inserted.push_back(i);
      continue;
    }
    std::copy(x.row(i).begin(), x.row(i).end(), x0.row(y0.size()).begin());
    y0.push_back(y[i]);
  }
  ASSERT_EQ(y0.size(), n0);
  ml::GbtParams params;
  params.n_rounds = 20;
  params.warm_start = true;
  auto model = ml::GradientBoosting::regressor(params);
  model.fit(x0, y0);
  EXPECT_EQ(model.trained_rows(), n0);

  // The continuation trains on the inserted rows plus three sampled anchors
  // each.
  model.continue_fit(x, y, 6, inserted);
  EXPECT_EQ(model.trained_rows(), n1);
  EXPECT_EQ(model.tree_count(), 26u);

  // The continued model must have actually learned from the new rows. Cheap
  // sanity rather than a statistical claim: predictions stay finite and
  // track the strong linear signal's sign.
  double cor = 0.0;
  for (const auto i : inserted) {
    const double p = model.predict(x.row(i));
    ASSERT_TRUE(std::isfinite(p));
    cor += p * y[i];
  }
  EXPECT_GT(cor, 0.0);
}

TEST(WarmStartGbt, ContinueRejectsGrowthWithoutInsertionMap) {
  // Every new row must be named in inserted_rows, tail appends included:
  // there is no implicit "appended at the tail" convention.
  Matrix x0(3, 1);
  std::vector<double> y0{0.0, 1.0, 2.0};
  for (std::size_t i = 0; i < 3; ++i) x0(i, 0) = static_cast<double>(i);
  ml::GbtParams warm;
  warm.warm_start = true;
  auto model = ml::GradientBoosting::regressor(warm);
  model.fit(x0, y0);

  Matrix x1(5, 1);
  std::vector<double> y1{0.0, 1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < 5; ++i) x1(i, 0) = static_cast<double>(i);
  EXPECT_THROW(model.continue_fit(x1, y1, 1), std::invalid_argument);
  const std::vector<std::size_t> one_of_two{3};
  EXPECT_THROW(model.continue_fit(x1, y1, 1, one_of_two),
               std::invalid_argument);
  EXPECT_EQ(model.trained_rows(), 3u);
  const std::vector<std::size_t> tail{3, 4};
  model.continue_fit(x1, y1, 1, tail);
  EXPECT_EQ(model.trained_rows(), 5u);
}

TEST(WarmStartGbt, ContinueRequiresWarmStartParams) {
  Matrix x(4, 1);
  std::vector<double> y{0.0, 1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i);
  auto cold = ml::GradientBoosting::regressor({});
  cold.fit(x, y);
  EXPECT_THROW(cold.continue_fit(x, y, 1), std::invalid_argument);

  ml::GbtParams warm;
  warm.warm_start = true;
  auto unfitted = ml::GradientBoosting::regressor(warm);
  EXPECT_THROW(unfitted.continue_fit(x, y, 1), std::invalid_argument);
}

TEST(WarmStartGbt, RejectsMalformedSpliceMapBeforeTouchingCaches) {
  // An unsorted, duplicated, or out-of-range insertion map must be rejected
  // up front — the score/bin remap walks the carried-over prefix assuming a
  // strictly ascending map and would otherwise overrun it.
  Matrix x0(3, 1);
  std::vector<double> y0{0.0, 1.0, 2.0};
  for (std::size_t i = 0; i < 3; ++i) x0(i, 0) = static_cast<double>(i);
  ml::GbtParams warm;
  warm.warm_start = true;
  auto model = ml::GradientBoosting::regressor(warm);
  model.fit(x0, y0);

  Matrix x1(5, 1);
  std::vector<double> y1{0.0, 1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < 5; ++i) x1(i, 0) = static_cast<double>(i);
  const std::vector<std::size_t> unsorted{3, 1};
  const std::vector<std::size_t> duplicated{2, 2};
  const std::vector<std::size_t> out_of_range{1, 9};
  EXPECT_THROW(model.continue_fit(x1, y1, 1, unsorted),
               std::invalid_argument);
  EXPECT_THROW(model.continue_fit(x1, y1, 1, duplicated),
               std::invalid_argument);
  EXPECT_THROW(model.continue_fit(x1, y1, 1, out_of_range),
               std::invalid_argument);
  // A well-formed map still works after the rejected attempts.
  const std::vector<std::size_t> ok{1, 3};
  model.continue_fit(x1, y1, 1, ok);
  EXPECT_EQ(model.trained_rows(), 5u);
}

TEST(WarmStartLogistic, WarmRefitConvergesToTheColdOptimum) {
  Rng rng(11);
  const std::size_t n = 250, d = 4;
  Matrix x(n, d);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.normal();
    y[i] = x(i, 0) - 0.5 * x(i, 2) + 0.3 * rng.normal() > 0.0 ? 1.0 : 0.0;
  }
  ml::LogisticParams cold_params;
  ml::LogisticRegression cold(cold_params);
  cold.fit(x, y);

  ml::LogisticParams warm_params;
  warm_params.warm_start = true;
  ml::LogisticRegression warm(warm_params);
  warm.fit(x, y);  // first fit: cold path (nothing to warm-start from)
  // Perturb the data slightly (a checkpoint step) and refit warm: the
  // optimum is what matters, not the path to it.
  for (std::size_t i = 0; i < n; ++i) x(i, 3) += 0.01;
  warm.fit(x, y);
  cold.fit(x, y);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(warm.predict_proba(x.row(i)), cold.predict_proba(x.row(i)),
                1e-6);
  }
}

// ---- end-to-end policy comparison -----------------------------------------

std::vector<std::string> whole_refit_methods() {
  // Every method outside NURD, NURD-NC and GBTR refits its model whole at
  // every checkpoint; one row per adapter class. The 13 detector rows share
  // OutlierPredictor, which makes a new detector at every checkpoint, so
  // HBOS stands for all of them.
  return {"HBOS",  "XGBOD",  "PU-EN", "PU-BG",
          "Tobit", "Grabit", "CoxPH", "Wrangler"};
}

// The fresh-instance oracle: a predictor that has lived through every
// earlier checkpoint (its session patched from deltas, anything else it
// keeps kept) must flag exactly what a newly made and initialize()d one
// flags for the same view and candidates. kIncremental is the setting
// under which a method could carry state across checkpoints. Each tuned
// config runs on two small jobs of its own dataset.
TEST(RefitPolicyEndToEnd, WholeRefitMethodsMatchAFreshInstance) {
  auto google = trace::GoogleLikeGenerator::google_defaults();
  google.min_tasks = 40;
  google.max_tasks = 60;
  auto alibaba = trace::AlibabaLikeGenerator::alibaba_defaults();
  alibaba.min_tasks = 40;
  alibaba.max_tasks = 60;
  struct {
    core::RegistryConfig config;
    std::vector<trace::Job> jobs;
  } cases[] = {
      {core::google_tuned(), trace::GoogleLikeGenerator(google).generate(2)},
      {core::alibaba_tuned(),
       trace::AlibabaLikeGenerator(alibaba).generate(2)}};
  for (auto& [config, jobs] : cases) {
    config.refit = RefitPolicy::kIncremental;
    for (const auto& name : whole_refit_methods()) {
      const auto method = core::predictor_by_name(name, config);
      for (const auto& job : jobs) {
        auto context = eval::make_job_context(job, job.straggler_threshold(90));
        const core::OfflineSample offline(job.straggler_labels(90));
        auto lived = method.make();
        if (lived->privilege() == core::Privilege::kOfflineLabels) {
          context.offline = &offline;
        }
        lived->initialize(context);
        std::vector<bool> flagged(job.task_count(), false);
        for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
          const auto view = job.checkpoint(t);
          std::vector<std::size_t> candidates;
          for (const auto i : view.running()) {
            if (!flagged[i]) candidates.push_back(i);
          }
          lived->refit_checkpoint(view, candidates);
          const auto got = lived->predict_stragglers(view, candidates);
          auto fresh = method.make();
          fresh->initialize(context);
          fresh->refit_checkpoint(view, candidates);
          const auto want = fresh->predict_stragglers(view, candidates);
          EXPECT_EQ(got, want) << name << " " << job.id << " t=" << t;
          if (got != want) break;  // one report per (method, job)
          for (const auto i : got) flagged[i] = true;
        }
      }
    }
  }
}

TEST(RefitPolicyEndToEnd, WarmStartedLearnersStayWithinTolerance) {
  const auto jobs = small_jobs(3);
  auto full_cfg = core::google_tuned();
  auto inc_cfg = full_cfg;
  inc_cfg.refit = RefitPolicy::kIncremental;
  for (const char* name : {"NURD", "NURD-NC", "GBTR"}) {
    const auto full =
        eval::evaluate_method(core::predictor_by_name(name, full_cfg), jobs);
    const auto inc =
        eval::evaluate_method(core::predictor_by_name(name, inc_cfg), jobs);
    EXPECT_NEAR(inc.f1, full.f1, 0.1) << name;
    EXPECT_NEAR(inc.tpr, full.tpr, 0.15) << name;
  }
}

}  // namespace
}  // namespace nurd
