#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "ml/gbt.h"
#include "ml/tree.h"

namespace nurd::ml {
namespace {

TEST(RegressionTree, PerfectSplitRecovered) {
  // y = −1 for x < 0, +1 for x > 0; squared-loss grads at score 0 are
  // (0 − y) with unit hessians.
  Matrix x{{-2.0}, {-1.0}, {1.0}, {2.0}};
  const std::vector<double> grad{1.0, 1.0, -1.0, -1.0};
  const std::vector<double> hess{1.0, 1.0, 1.0, 1.0};
  std::vector<std::size_t> rows{0, 1, 2, 3};
  TreeParams params;
  params.lambda = 0.0;
  params.min_child_weight = 0.0;
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params);
  EXPECT_NEAR(tree.predict(x.row(0)), -1.0, 1e-9);
  EXPECT_NEAR(tree.predict(x.row(3)), 1.0, 1e-9);
  EXPECT_EQ(tree.leaf_count(), 2u);
}

TEST(RegressionTree, DepthZeroIsStump) {
  Matrix x{{-1.0}, {1.0}};
  const std::vector<double> grad{1.0, -1.0};
  const std::vector<double> hess{1.0, 1.0};
  std::vector<std::size_t> rows{0, 1};
  TreeParams params;
  params.max_depth = 0;
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.depth(), 0);
}

TEST(RegressionTree, LeafValueIsNewtonStep) {
  Matrix x{{0.0}, {0.0}};
  const std::vector<double> grad{2.0, 2.0};
  const std::vector<double> hess{1.0, 1.0};
  std::vector<std::size_t> rows{0, 1};
  TreeParams params;
  params.lambda = 2.0;
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params);
  // w* = −G/(H+λ) = −4/4 = −1.
  EXPECT_NEAR(tree.predict(x.row(0)), -1.0, 1e-12);
}

TEST(RegressionTree, MinChildWeightBlocksSplit) {
  Matrix x{{-1.0}, {1.0}};
  const std::vector<double> grad{1.0, -1.0};
  const std::vector<double> hess{0.4, 0.4};
  std::vector<std::size_t> rows{0, 1};
  TreeParams params;
  params.min_child_weight = 0.5;  // each child would have H = 0.4 < 0.5
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, GammaBlocksLowGainSplit) {
  Matrix x{{-1.0}, {1.0}};
  const std::vector<double> grad{0.01, -0.01};
  const std::vector<double> hess{1.0, 1.0};
  std::vector<std::size_t> rows{0, 1};
  TreeParams params;
  params.gamma = 10.0;
  params.min_child_weight = 0.0;
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, RespectsMaxDepth) {
  Rng data_rng(3);
  const std::size_t n = 200;
  Matrix x(n, 3);
  std::vector<double> grad(n), hess(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = data_rng.normal();
    grad[i] = data_rng.normal();
  }
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  TreeParams params;
  params.max_depth = 2;
  params.min_child_weight = 0.0;
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params);
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(GradientBoosting, FitsLinearFunction) {
  Rng rng(7);
  const std::size_t n = 500;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-2.0, 2.0);
    x(i, 1) = rng.uniform(-2.0, 2.0);
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1);
  }
  GbtParams params;
  params.n_rounds = 200;
  params.learning_rate = 0.2;
  params.tree.max_depth = 4;
  auto model = GradientBoosting::regressor(params);
  model.fit(x, y);
  double sse = 0.0, sst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = model.predict(x.row(i));
    sse += (p - y[i]) * (p - y[i]);
    sst += y[i] * y[i];
  }
  EXPECT_LT(sse / sst, 0.05);  // R² > 0.95
}

TEST(GradientBoosting, ConstantTargetPerfect) {
  Matrix x{{1.0}, {2.0}, {3.0}};
  const std::vector<double> y{5.0, 5.0, 5.0};
  auto model = GradientBoosting::regressor();
  model.fit(x, y);
  EXPECT_NEAR(model.predict(x.row(0)), 5.0, 1e-9);
}

TEST(GradientBoosting, ClassifierSeparatesClasses) {
  Rng rng(9);
  const std::size_t n = 400;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    x(i, 0) = rng.normal(pos ? 2.0 : -2.0, 0.5);
    x(i, 1) = rng.normal();
    y[i] = pos ? 1.0 : 0.0;
  }
  auto model = GradientBoosting::classifier();
  model.fit(x, y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = model.predict(x.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    if ((p > 0.5) == (y[i] > 0.5)) ++correct;
  }
  EXPECT_GT(correct, n * 95 / 100);
}

TEST(GradientBoosting, GrabitPullsCensoredAboveHorizon) {
  // Group A (x=0): uncensored around 1. Group B (x=1): all right-censored
  // at 5 — the latent prediction for B must exceed 5.
  Rng rng(11);
  const std::size_t n = 200;
  Matrix x(n, 1);
  std::vector<Target> t(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      x(i, 0) = 0.0;
      t[i] = {1.0 + rng.normal(0.0, 0.1), false};
    } else {
      x(i, 0) = 1.0;
      t[i] = {5.0, true};
    }
  }
  auto model = GradientBoosting::grabit(1.0);
  model.fit(x, t);
  const std::vector<double> xa{0.0}, xb{1.0};
  EXPECT_NEAR(model.predict(xa), 1.0, 0.3);
  EXPECT_GT(model.predict(xb), 5.0);
}

TEST(GradientBoosting, MoreRoundsNotWorseInSample) {
  Rng rng(13);
  const std::size_t n = 300;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.normal();
    y[i] = std::sin(x(i, 0)) + 0.5 * x(i, 1) * x(i, 2);
  }
  double prev_sse = 1e300;
  for (int rounds : {5, 20, 80}) {
    GbtParams params;
    params.n_rounds = rounds;
    auto model = GradientBoosting::regressor(params);
    model.fit(x, y);
    double sse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = model.predict(x.row(i));
      sse += (p - y[i]) * (p - y[i]);
    }
    EXPECT_LE(sse, prev_sse * 1.001);
    prev_sse = sse;
  }
}

// Repeated fits are bit-identical on both backends: exact greedy (n = 100)
// and histogram (n = 600, whose per-feature builds fan out over the pool).
TEST(GradientBoosting, DeterministicOnBothBackends) {
  Rng rng(15);
  for (const std::size_t n : {100u, 600u}) {
    Matrix x(n, 4);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.normal();
      y[i] = x(i, 0) - 2.0 * x(i, 2);
    }
    GbtParams params;
    params.n_rounds = 30;
    auto a = GradientBoosting::regressor(params);
    auto b = GradientBoosting::regressor(params);
    a.fit(x, y);
    b.fit(x, y);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(a.predict(x.row(i)), b.predict(x.row(i)));
    }
  }
}

TEST(GradientBoosting, PredictBeforeFitThrows) {
  auto model = GradientBoosting::regressor();
  const std::vector<double> row{1.0};
  EXPECT_THROW(model.predict(row), std::invalid_argument);
}

TEST(GradientBoosting, RejectsEmptyFit) {
  auto model = GradientBoosting::regressor();
  Matrix x(0, 0);
  EXPECT_THROW(model.fit(x, std::vector<double>{}), std::invalid_argument);
}

// A bad bin count must fail at construction, not at the first
// histogram-scale fit.
TEST(GradientBoosting, RejectsOutOfRangeMaxBins) {
  for (const int bins : {1, 4097}) {
    GbtParams params;
    params.tree.max_bins = bins;
    EXPECT_THROW(GradientBoosting::regressor(params), std::invalid_argument);
  }
}

// NaN or ±inf in a feature or a target is rejected by fit() and
// continue_fit() on both backends (exact at n = 40, histogram at n = 300).
TEST(GradientBoosting, RejectsNonFiniteInputs) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  Rng rng(17);
  for (const std::size_t n : {40u, 300u}) {
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x(i, 0) = rng.normal();
      x(i, 1) = rng.normal();
      y[i] = x(i, 0);
    }
    GbtParams params;
    params.n_rounds = 3;
    params.warm_start = true;
    auto warm = GradientBoosting::regressor(params);
    warm.fit(x, y);
    for (const double bad : bad_values) {
      Matrix bad_x = x;
      bad_x(n / 2, 1) = bad;
      std::vector<double> bad_y = y;
      bad_y[n / 2] = bad;
      auto model = GradientBoosting::regressor(params);
      EXPECT_THROW(model.fit(bad_x, y), std::invalid_argument);
      EXPECT_THROW(model.fit(x, bad_y), std::invalid_argument);
      EXPECT_THROW(warm.continue_fit(bad_x, y, 1), std::invalid_argument);
      EXPECT_THROW(warm.continue_fit(x, bad_y, 1), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace nurd::ml
