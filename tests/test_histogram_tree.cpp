// Coverage for the histogram split-finding backend, the feature binner, the
// thread pool, and the parallel evaluation harness's determinism contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "ml/tree.h"
#include "trace/generator.h"

namespace nurd {
namespace {

using ml::FeatureBinner;
using ml::RegressionTree;
using ml::TreeParams;

Matrix random_matrix(std::size_t n, std::size_t d, Rng& rng) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.normal();
  }
  return x;
}

std::vector<std::size_t> iota_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

// (a) With fewer rows than bins every distinct-value boundary gets its own
// bin edge, so the histogram backend's candidate set — and therefore the
// fitted tree — is identical to exact greedy's.
TEST(HistogramTree, MatchesExactOnSmallData) {
  Rng data_rng(21);
  const std::size_t n = 40;  // < max_bins = 64
  const std::size_t d = 3;
  Matrix x = random_matrix(n, d, data_rng);  // continuous ⇒ distinct values
  std::vector<double> grad(n), hess(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) grad[i] = data_rng.normal();
  const auto rows = iota_rows(n);

  TreeParams params;
  params.max_depth = 4;
  params.min_child_weight = 0.0;
  params.max_bins = 64;

  RegressionTree exact_tree, hist_tree;
  const FeatureBinner binner(x, params.max_bins);
  exact_tree.fit(x, nullptr, grad, hess, rows, params);
  hist_tree.fit(x, &binner, grad, hess, rows, params);

  EXPECT_EQ(exact_tree.node_count(), hist_tree.node_count());
  EXPECT_EQ(exact_tree.leaf_count(), hist_tree.leaf_count());
  EXPECT_EQ(exact_tree.depth(), hist_tree.depth());
  // Every training row lands in the same leaf with the same value. (Off-
  // sample points may still route differently at deep nodes: between the
  // same two data points, exact splits at the node-local midpoint while
  // histogram splits at a gain-equivalent global bin edge.)
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(exact_tree.predict(x.row(i)), hist_tree.predict(x.row(i)));
  }
}

TEST(HistogramTree, RecoversPerfectSplit) {
  Matrix x{{-2.0}, {-1.0}, {1.0}, {2.0}};
  const std::vector<double> grad{1.0, 1.0, -1.0, -1.0};
  const std::vector<double> hess{1.0, 1.0, 1.0, 1.0};
  TreeParams params;
  params.lambda = 0.0;
  params.min_child_weight = 0.0;
  const FeatureBinner binner(x, params.max_bins);
  RegressionTree tree;
  tree.fit(x, &binner, grad, hess, iota_rows(4), params);
  EXPECT_NEAR(tree.predict(x.row(0)), -1.0, 1e-9);
  EXPECT_NEAR(tree.predict(x.row(3)), 1.0, 1e-9);
  EXPECT_EQ(tree.leaf_count(), 2u);
}

TEST(HistogramTree, LargeFitApproximatesExactQuality) {
  // At n ≫ max_bins the two backends need not agree split-for-split, but the
  // histogram tree must fit about as well.
  Rng data_rng(5);
  const std::size_t n = 4000;
  Matrix x = random_matrix(n, 4, data_rng);
  std::vector<double> grad(n), hess(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = -(std::sin(x(i, 0)) + 0.5 * x(i, 1));  // grad = −y at score 0
  }
  const auto rows = iota_rows(n);
  const auto sse = [&](const RegressionTree& t) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = t.predict(x.row(i)) - (-grad[i]);
      s += r * r;
    }
    return s;
  };
  TreeParams params;
  params.max_depth = 6;
  RegressionTree exact_tree, hist_tree;
  const FeatureBinner binner(x, params.max_bins);
  exact_tree.fit(x, nullptr, grad, hess, rows, params);
  hist_tree.fit(x, &binner, grad, hess, rows, params);
  EXPECT_LT(sse(hist_tree), sse(exact_tree) * 1.10);
}

TEST(FeatureBinner, BinsAreConsistentWithEdges) {
  Rng rng(3);
  Matrix x = random_matrix(500, 2, rng);
  const FeatureBinner binner(x, 16);
  for (std::size_t f = 0; f < 2; ++f) {
    ASSERT_LE(binner.bin_count(f), 16u);
    ASSERT_GE(binner.bin_count(f), 2u);
    for (std::size_t r = 0; r < 500; ++r) {
      const auto b = binner.bin(f, r);
      ASSERT_LT(b, binner.bin_count(f));
      // x ≤ edge(b) ⟺ bin ≤ b, checked at both enclosing edges.
      if (b > 0) {
        EXPECT_GT(x(r, f), binner.edge(f, b - 1));
      }
      if (static_cast<std::size_t>(b) + 1 < binner.bin_count(f)) {
        EXPECT_LE(x(r, f), binner.edge(f, b));
      }
    }
  }
}

TEST(FeatureBinner, ConstantFeatureGetsOneBin) {
  Matrix x(10, 1, 3.5);
  const FeatureBinner binner(x, 8);
  EXPECT_EQ(binner.bin_count(0), 1u);
}

// Regression: a rare binary indicator (far fewer minority rows than the
// ~n/max_bins quantile target) must still get its boundary edge — the
// frequency-weighted packing pass must never run when the distinct values
// fit in the bin budget.
TEST(FeatureBinner, RareBinaryFeatureKeepsItsSplit) {
  const std::size_t n = 10000;
  Matrix x(n, 1, 1.0);
  std::vector<double> grad(n, -1.0), hess(n, 1.0);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = 0.0;
    grad[i] = 1.0;  // minority class pulls the other way
  }
  const FeatureBinner binner(x, 64);
  ASSERT_EQ(binner.bin_count(0), 2u);

  TreeParams params;
  params.lambda = 0.0;
  params.min_child_weight = 0.0;
  RegressionTree tree;
  tree.fit(x, &binner, grad, hess, iota_rows(n), params);
  EXPECT_EQ(tree.leaf_count(), 2u);
  EXPECT_NEAR(tree.predict(x.row(0)), -1.0, 1e-9);
  EXPECT_NEAR(tree.predict(x.row(n - 1)), 1.0, 1e-9);
}

// Regression: a split between adjacent doubles must separate them. Their
// midpoint rounds onto the upper value (1 + 2^-52 | 1 + 2^-51) or overflows
// to ±inf near ±DBL_MAX, and `x <= threshold` then put both rows on one
// side: one leaf on both backends, and both rows in one of the 2 bins.
TEST(HistogramTree, SplitsBetweenAdjacentDoublesOnBothBackends) {
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::pair<double, double> pairs[] = {
      {1.0 + 0x1p-52, 1.0 + 0x1p-51},
      {std::nextafter(kMax, 0.0), kMax},
      {-kMax, std::nextafter(-kMax, 0.0)}};
  for (const auto& [lo, hi] : pairs) {
    SCOPED_TRACE(testing::Message() << lo << " | " << hi);
    Matrix x{{lo}, {hi}};
    const std::vector<double> grad{-1.0, 1.0};
    const std::vector<double> hess{1.0, 1.0};
    TreeParams params;
    params.lambda = 0.0;
    params.min_child_weight = 0.0;
    const FeatureBinner binner(x, params.max_bins);
    ASSERT_EQ(binner.bin_count(0), 2u);
    EXPECT_EQ(binner.bin(0, 0), 0);
    EXPECT_EQ(binner.bin(0, 1), 1);
    const FeatureBinner* backends[] = {nullptr, &binner};
    for (const FeatureBinner* b : backends) {
      SCOPED_TRACE(b == nullptr ? "exact" : "histogram");
      RegressionTree tree;
      tree.fit(x, b, grad, hess, iota_rows(2), params);
      EXPECT_EQ(tree.leaf_count(), 2u);
      EXPECT_EQ(tree.predict(x.row(0)), 1.0);
      EXPECT_EQ(tree.predict(x.row(1)), -1.0);
    }
  }
}

// (b) The parallel harness must aggregate in job order: metrics are
// bit-identical whether jobs run on 1 thread or 8.
TEST(ParallelEval, ThreadCountDoesNotChangeMetrics) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.seed = 77;
  trace::GoogleLikeGenerator gen(config);
  const auto jobs = gen.generate(6);

  core::RegistryConfig cfg;
  cfg.nurd_gbt_rounds = 10;
  cfg.gbt_rounds = 10;
  const auto method = core::predictor_by_name("NURD", cfg);

  const auto serial = eval::evaluate_method(method, jobs, 90.0, 1);
  const auto parallel = eval::evaluate_method(method, jobs, 90.0, 8);
  EXPECT_DOUBLE_EQ(serial.f1, parallel.f1);
  EXPECT_DOUBLE_EQ(serial.tpr, parallel.tpr);
  EXPECT_DOUBLE_EQ(serial.fpr, parallel.fpr);
  EXPECT_DOUBLE_EQ(serial.fnr, parallel.fnr);
  ASSERT_EQ(serial.f1_timeline.size(), parallel.f1_timeline.size());
  for (std::size_t t = 0; t < serial.f1_timeline.size(); ++t) {
    EXPECT_DOUBLE_EQ(serial.f1_timeline[t], parallel.f1_timeline[t]);
  }

  const auto runs1 = eval::run_method(method, jobs, 90.0, 1);
  const auto runs8 = eval::run_method(method, jobs, 90.0, 8);
  ASSERT_EQ(runs1.size(), runs8.size());
  for (std::size_t j = 0; j < runs1.size(); ++j) {
    EXPECT_EQ(runs1[j].flagged_at, runs8[j].flagged_at);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsSerially) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](std::size_t i) { hits[i] = 1; });  // no races
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    ThreadPool::global().parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 42) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(MatrixColView, StridedAccessMatchesCopy) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const auto copied = m.col(1);
  const auto view = m.col_view(1);
  ASSERT_EQ(view.size(), copied.size());
  for (std::size_t i = 0; i < copied.size(); ++i) {
    EXPECT_DOUBLE_EQ(view[i], copied[i]);
  }
  // Iterator protocol works with std algorithms.
  EXPECT_DOUBLE_EQ(*std::max_element(view.begin(), view.end()), 6.0);
  EXPECT_THROW(m.col_view(2), std::invalid_argument);
}

TEST(MatrixReserveRows, HintAppliesBeforeAndAfterWidthKnown) {
  Matrix a(0, 0);
  a.reserve_rows(100);  // width unknown: hint deferred
  const std::vector<double> row{1.0, 2.0, 3.0};
  a.push_row(row);
  EXPECT_EQ(a.rows(), 1u);
  EXPECT_EQ(a.cols(), 3u);

  Matrix b(0, 0);
  b.push_row(row);
  b.reserve_rows(50);  // width known: applies immediately
  b.push_row(row);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_DOUBLE_EQ(b(1, 2), 3.0);
}

}  // namespace
}  // namespace nurd
