#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

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
  tree.fit(x, nullptr, grad, hess, rows, params);
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
  tree.fit(x, nullptr, grad, hess, rows, params);
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
  tree.fit(x, nullptr, grad, hess, rows, params);
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
  tree.fit(x, nullptr, grad, hess, rows, params);
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
  tree.fit(x, nullptr, grad, hess, rows, params);
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
  tree.fit(x, nullptr, grad, hess, rows, params);
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

// --- Absolute output pin --------------------------------------------------
// Every case below fits squared-loss boosters on an integer grid drawn with
// Rng::uniform_int (heavy ties, and no libm call anywhere on the data path,
// so the digests hold across compilers and optimisation levels), then hashes
// the bit patterns of predict_raw over the training rows and over off-grid
// probe rows, plus tree_count. The digests are constants: any change to
// split order, tie-breaking, threshold placement or summation order in the
// tree loop moves them.

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

// Column 0 takes values 0..wide_hi, columns 1-3 take 0..9, and column 4 is
// 2 × column 1. Its candidates tie column 1's in exact arithmetic, so which
// of the two wins rides on summation order, which the chained sorts fix.
Matrix grid_matrix(Rng& rng, std::size_t n, std::int64_t wide_hi) {
  Matrix x(n, 5);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(rng.uniform_int(0, wide_hi));
    for (std::size_t j = 1; j < 4; ++j) {
      x(i, j) = static_cast<double>(rng.uniform_int(0, 9));
    }
    x(i, 4) = 2.0 * x(i, 1);
  }
  return x;
}

double grid_target(const Matrix& x, std::size_t i, Rng& rng) {
  return x(i, 0) - 2.0 * x(i, 1) + x(i, 2) * x(i, 3) +
         static_cast<double>(rng.uniform_int(-3, 3));
}

std::vector<double> grid_targets(const Matrix& x, Rng& rng) {
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = grid_target(x, i, rng);
  return y;
}

std::uint64_t output_digest(const GradientBoosting& model, const Matrix& x) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    h = fnv1a(h, std::bit_cast<std::uint64_t>(model.predict_raw(x.row(i))));
  }
  // Off-grid probes, half-way between grid points and past both ends.
  Rng probe_rng(5);
  std::vector<double> probe(x.cols());
  for (int k = 0; k < 64; ++k) {
    for (auto& v : probe) {
      v = static_cast<double>(probe_rng.uniform_int(-3, 102)) + 0.5;
    }
    h = fnv1a(h, std::bit_cast<std::uint64_t>(model.predict_raw(probe)));
  }
  return fnv1a(h, model.tree_count());
}

GbtParams pin_params(bool warm_start) {
  GbtParams params;
  params.n_rounds = 25;
  params.warm_start = warm_start;
  return params;
}

TEST(GradientBoosting, OutputDigestsPinned) {
  // Exact greedy (n < kHistogramMinRows) and histogram (n >= it; column 0
  // has more distinct values than max_bins, so its edges are packed).
  const struct {
    std::size_t n;
    std::uint64_t digest;
  } cases[] = {{200, 0xecee886c44d8b26eull},
               {kHistogramMinRows, 0x609d19753ef52cb7ull},
               {400, 0xd2a6d5db82d418b6ull}};
  for (const auto& [n, digest] : cases) {
    SCOPED_TRACE("fit n=" + std::to_string(n));
    Rng rng(21);
    const Matrix x = grid_matrix(rng, n, 99);
    const auto y = grid_targets(x, rng);
    auto model = GradientBoosting::regressor(pin_params(false));
    model.fit(x, y);
    EXPECT_EQ(output_digest(model, x), digest);
  }
}

// Inserted rows outside the frozen bin edges clamp into the boundary bins.
TEST(GradientBoosting, ContinueFitInsertedRowsDigestPinned) {
  Rng rng(22);
  const std::size_t n_old = 300, n_new = 324;
  const Matrix x_old = grid_matrix(rng, n_old, 9);
  const auto y_old = grid_targets(x_old, rng);
  auto model = GradientBoosting::regressor(pin_params(true));
  model.fit(x_old, y_old);

  std::vector<std::size_t> inserted;
  Matrix x(n_new, 5);
  std::vector<double> y(n_new);
  std::size_t old_r = 0;
  for (std::size_t r = 0; r < n_new; ++r) {
    if (r % 13 == 5 && inserted.size() < n_new - n_old) {
      inserted.push_back(r);
      for (std::size_t j = 0; j < 4; ++j) {
        const auto v = rng.uniform_int(1, 3);
        x(r, j) = static_cast<double>(rng.uniform_int(0, 1) == 0 ? -v : 9 + v);
      }
      x(r, 4) = 2.0 * x(r, 1);
      y[r] = grid_target(x, r, rng);
    } else {
      for (std::size_t j = 0; j < 5; ++j) x(r, j) = x_old(old_r, j);
      y[r] = y_old[old_r++];
    }
  }
  ASSERT_EQ(inserted.size(), n_new - n_old);
  model.continue_fit(x, y, 10, {}, inserted);
  EXPECT_EQ(output_digest(model, x), 0x9545e35321f5bd8cull);
}

// Changed rows drive the active-set path (moved rows plus sampled anchors).
TEST(GradientBoosting, ContinueFitChangedRowsDigestPinned) {
  Rng rng(23);
  const std::size_t n = 300;
  Matrix x = grid_matrix(rng, n, 9);
  auto y = grid_targets(x, rng);
  auto model = GradientBoosting::regressor(pin_params(true));
  model.fit(x, y);

  std::vector<std::size_t> changed;
  for (std::size_t r = 3; r < n; r += 17) {
    changed.push_back(r);
    x(r, 1) = static_cast<double>(rng.uniform_int(0, 9));
    x(r, 4) = 2.0 * x(r, 1);
    y[r] = grid_target(x, r, rng) + 4.0;
  }
  model.continue_fit(x, y, 10, changed, {});
  EXPECT_EQ(output_digest(model, x), 0xc4b0aeff44de6eb9ull);
}

// Nothing new or changed: the rounds boost the whole block, on the exact
// backend (n = 200) and the histogram backend (n = 300).
TEST(GradientBoosting, ContinueFitWholeBlockDigestPinned) {
  const struct {
    std::size_t n;
    std::uint64_t digest;
  } cases[] = {{200, 0x9bf94aefa54ea2b5ull}, {300, 0x261507849bd0b764ull}};
  for (const auto& [n, digest] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(24);
    const Matrix x = grid_matrix(rng, n, 9);
    auto y = grid_targets(x, rng);
    auto model = GradientBoosting::regressor(pin_params(true));
    model.fit(x, y);
    for (auto& v : y) v += 1.0;  // targets may move between calls
    model.continue_fit(x, y, 10);
    EXPECT_EQ(output_digest(model, x), digest);
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
