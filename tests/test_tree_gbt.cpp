#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kernel/kernel.h"
#include "ml/gbt.h"
#include "ml/loss.h"
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

// Every row index must be in range: the tree reads x(r, f), grad[r] and
// hess[r] for each listed row. A presorted span must be cols × rows in
// shape, and only exact greedy takes one.
TEST(RegressionTree, RejectsOutOfRangeRows) {
  const Matrix x{{0.0, 1.0}, {1.0, 0.0}, {2.0, 1.0}, {3.0, 0.0}};
  const std::vector<double> grad{1.0, -1.0, 1.0, -1.0};
  const std::vector<double> hess(4, 1.0);
  const std::vector<std::size_t> rows{0, 1, 2, 1000000};
  const TreeParams params;
  RegressionTree tree;
  EXPECT_THROW(tree.fit(x, nullptr, grad, hess, rows, params),
               std::invalid_argument);
  EXPECT_THROW(RegressionTree::presort(x, rows), std::invalid_argument);
  const FeatureBinner binner(x, 4);
  EXPECT_THROW(tree.fit(x, &binner, grad, hess, rows, params),
               std::invalid_argument);

  const std::vector<std::size_t> good{0, 1, 2, 3};
  const auto presorted = RegressionTree::presort(x, good);
  ASSERT_EQ(presorted.size(), 8u);
  const std::span<const std::size_t> short_orders =
      std::span(presorted).first(7);
  EXPECT_THROW(tree.fit(x, nullptr, grad, hess, good, params, short_orders),
               std::invalid_argument);
  EXPECT_THROW(tree.fit(x, &binner, grad, hess, good, params, presorted),
               std::invalid_argument);
  EXPECT_NO_THROW(tree.fit(x, nullptr, grad, hess, good, params, presorted));
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

// Real-valued features on the histogram backend at depth 4: below the root,
// a larger child's histogram is its parent's minus its sibling's, and a bin
// that lost every row to the sibling keeps a rounding residue in (G, H)
// instead of an exact zero. How the scan treats such count-0 bins decides
// between thresholds that route every training row alike, so the digest
// also hashes held-out rows from the training distribution; the integer-grid
// pins above cannot see it. Uniform draws call no libm.
TEST(GradientBoosting, HistogramRealValuedDigestPinned) {
  Rng rng(23);
  const std::size_t n = 600;
  Matrix x(n, 5);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 5; ++j) x(i, j) = rng.uniform(-1.0, 1.0);
    y[i] = x(i, 0) * x(i, 1) - 2.0 * x(i, 2) + rng.uniform(-0.3, 0.3);
  }
  GbtParams params = pin_params(false);
  params.tree.max_depth = 4;
  auto model = GradientBoosting::regressor(params);
  model.fit(x, y);
  std::uint64_t h = output_digest(model, x);
  std::vector<double> held_out(5);
  for (int k = 0; k < 4096; ++k) {
    for (auto& v : held_out) v = rng.uniform(-1.0, 1.0);
    h = fnv1a(h, std::bit_cast<std::uint64_t>(model.predict_raw(held_out)));
  }
  EXPECT_EQ(h, 0xafb731629a9442bcull);
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
  model.continue_fit(x, y, 10, inserted);
  EXPECT_EQ(output_digest(model, x), 0x9545e35321f5bd8cull);
}

// Nothing inserted: the rounds boost the whole block, on the exact
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
// and histogram (n = 600).
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

// --- Presorted exact greedy vs the per-node sort --------------------------
// RefTree is the exact backend as it was before presorting: every internal
// node copies its rows and stable-sorts them once per feature, each sort
// starting from the previous feature's order. The library sorts once per
// boosting call and stably partitions each feature's order at every split.
// The two must scan the same sequence at every node, so their trees are
// compared bit for bit.

class RefTree {
 public:
  void fit(const Matrix& x, std::span<const double> grad,
           std::span<const double> hess, std::span<const std::size_t> rows,
           const TreeParams& params) {
    x_ = &x;
    grad_ = grad;
    hess_ = hess;
    params_ = params;
    rows_.assign(rows.begin(), rows.end());
    scratch_.assign(rows.size(), 0);
    nodes_.clear();
    grow(0, rows_.size(), 0);
  }

  double predict(std::span<const double> row) const {
    std::size_t i = 0;
    while (!nodes_[i].is_leaf) {
      const auto& n = nodes_[i];
      i = static_cast<std::size_t>(row[n.feature] <= n.threshold ? n.left
                                                                 : n.right);
    }
    return nodes_[i].value;
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const {
    return static_cast<std::size_t>(std::count_if(
        nodes_.begin(), nodes_.end(), [](const Node& n) { return n.is_leaf; }));
  }
  int depth() const {
    int d = 0;
    for (const auto& n : nodes_) d = std::max(d, n.depth);
    return d;
  }

 private:
  struct Node {
    bool is_leaf = true;
    double value = 0.0;
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    int depth = 0;
  };

  double objective(double g, double h) const {
    return -0.5 * g * g / (h + params_.lambda);
  }

  std::int32_t grow(std::size_t begin, std::size_t end, int depth) {
    const std::size_t n = end - begin;
    double g_total = 0.0, h_total = 0.0;
    kernel::ops().pair_sum_indexed(grad_.data(), hess_.data(),
                                   rows_.data() + begin, n, &g_total, &h_total);
    const auto make_leaf = [&]() {
      nodes_.push_back({.value = -g_total / (h_total + params_.lambda),
                        .depth = depth});
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };
    if (depth >= params_.max_depth || n < 2) return make_leaf();

    const Matrix& x = *x_;
    const double parent_obj = objective(g_total, h_total);
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<std::size_t> sorted(rows_.data() + begin, rows_.data() + end);
    for (std::size_t f = 0; f < x.cols(); ++f) {
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](std::size_t a, std::size_t b) {
                         return x(a, f) < x(b, f);
                       });
      double g_left = 0.0, h_left = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        g_left += grad_[sorted[i]];
        h_left += hess_[sorted[i]];
        const double v = x(sorted[i], f);
        const double v_next = x(sorted[i + 1], f);
        if (v_next <= v) continue;
        const double h_right = h_total - h_left;
        if (h_left < params_.min_child_weight ||
            h_right < params_.min_child_weight) {
          continue;
        }
        const double gain = parent_obj - objective(g_left, h_left) -
                            objective(g_total - g_left, h_right);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          const double mid = 0.5 * (v + v_next);
          best_threshold = mid >= v && mid < v_next ? mid : v;
        }
      }
    }
    if (best_gain <= params_.gamma) return make_leaf();

    std::size_t left = begin, right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = rows_[i];
      (x(r, best_feature) <= best_threshold ? rows_[left++]
                                            : scratch_[right++]) = r;
    }
    std::copy(scratch_.data(), scratch_.data() + right, rows_.data() + left);
    if (left == begin || left == end) return make_leaf();

    nodes_.push_back({.is_leaf = false,
                      .feature = best_feature,
                      .threshold = best_threshold,
                      .depth = depth});
    const std::size_t self = nodes_.size() - 1;
    const auto l = grow(begin, left, depth + 1);
    const auto r = grow(left, end, depth + 1);
    nodes_[self].left = l;
    nodes_[self].right = r;
    return static_cast<std::int32_t>(self);
  }

  const Matrix* x_ = nullptr;
  std::span<const double> grad_, hess_;
  TreeParams params_;
  std::vector<std::size_t> rows_, scratch_;
  std::vector<Node> nodes_;
};

// Values from {0, 1, 2} (heavy ties), with zeros drawn as −0.0 or +0.0.
Matrix tie_matrix(Rng& rng, std::size_t n, std::size_t d) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const auto v = rng.uniform_int(0, 2);
      x(i, j) = v != 0 ? static_cast<double>(v)
                       : (rng.uniform_int(0, 1) == 0 ? -0.0 : 0.0);
    }
  }
  return x;
}

// Rows at and half-way between the tie values, past both ends, and ±0.
std::vector<std::vector<double>> tie_probes(Rng& rng, std::size_t d) {
  constexpr double kProbeValues[] = {-0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5};
  std::vector<std::vector<double>> probes(32, std::vector<double>(d));
  for (auto& probe : probes) {
    for (auto& v : probe) v = kProbeValues[rng.uniform_int(0, 7)];
  }
  return probes;
}

// A shuffled subset of 0..n-1 with gaps: each row kept with probability ~¾
// (at least one row), in random order.
std::vector<std::size_t> gappy_rows(Rng& rng, std::size_t n) {
  std::vector<std::size_t> rows;
  for (const auto r : rng.permutation(n)) {
    if (rng.uniform_int(0, 3) != 0) rows.push_back(r);
  }
  if (rows.empty()) rows.push_back(n - 1);
  return rows;
}

TEST(RegressionTree, PresortedExactMatchesPerNodeSortReference) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 255));
    const auto d = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const Matrix x = tie_matrix(rng, n, d);
    std::vector<double> grad(n), hess(n);
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = rng.normal();
      hess[i] = static_cast<double>(rng.uniform_int(1, 4)) * 0.5;
    }
    TreeParams params;
    params.max_depth = static_cast<int>(rng.uniform_int(1, 6));
    params.min_child_weight = static_cast<double>(rng.uniform_int(0, 2));
    std::vector<std::size_t> rows(n);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    if (seed % 2 == 0) rows = gappy_rows(rng, n);

    RegressionTree tree;
    tree.fit(x, nullptr, grad, hess, rows, params);
    RegressionTree shared;  // orders passed in, as boosting passes them
    shared.fit(x, nullptr, grad, hess, rows, params,
               RegressionTree::presort(x, rows));
    RefTree ref;
    ref.fit(x, grad, hess, rows, params);

    ASSERT_EQ(tree.node_count(), ref.node_count());
    ASSERT_EQ(tree.leaf_count(), ref.leaf_count());
    ASSERT_EQ(tree.depth(), ref.depth());
    ASSERT_EQ(shared.node_count(), ref.node_count());
    const auto same_bits = [&](std::span<const double> row) {
      const auto want = std::bit_cast<std::uint64_t>(ref.predict(row));
      return std::bit_cast<std::uint64_t>(tree.predict(row)) == want &&
             std::bit_cast<std::uint64_t>(shared.predict(row)) == want;
    };
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bits(x.row(i))) << "row " << i;
    }
    for (const auto& probe : tie_probes(rng, d)) {
      ASSERT_TRUE(same_bits(probe));
    }
  }
}

// fit()'s leaf_value_of_row must equal predict() bit for bit at every fitted
// row and leave every other slot alone. The exact backend fits tie-heavy
// data on a gappy row subset. The histogram backend fits a block whose
// binner was built on part of it, the rest spliced in by insert_rows: those
// rows hold values below, above and exactly on the frozen edges, and the
// tree routes them by bin code while predict() compares against the edges.
TEST(RegressionTree, LeafValuesMatchPredictOnBothBackends) {
  const double kUnset = -12345.0;
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    TreeParams params;
    params.max_depth = static_cast<int>(rng.uniform_int(1, 6));
    params.min_child_weight = static_cast<double>(rng.uniform_int(0, 2));
    params.max_bins = static_cast<int>(rng.uniform_int(2, 24));

    // Exact greedy on a gappy subset.
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 200));
    const auto d = static_cast<std::size_t>(rng.uniform_int(1, 7));
    const Matrix x = tie_matrix(rng, n, d);
    std::vector<double> grad(n), hess(n);
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = rng.normal();
      hess[i] = static_cast<double>(rng.uniform_int(1, 4)) * 0.5;
    }
    const auto rows = gappy_rows(rng, n);
    std::vector<double> leaf(n, kUnset);
    RegressionTree tree;
    tree.fit(x, nullptr, grad, hess, rows, params, {}, leaf);
    std::vector<bool> fitted(n, false);
    for (const auto r : rows) fitted[r] = true;
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_TRUE(same_bits(leaf[r], fitted[r] ? tree.predict(x.row(r))
                                               : kUnset))
          << "exact row " << r;
    }

    // Histogram: bin n0 rows, then splice rows in at random positions.
    const auto n0 = static_cast<std::size_t>(rng.uniform_int(2, 300));
    const std::size_t dh = 3;
    Matrix old_x(n0, dh);
    for (std::size_t i = 0; i < n0; ++i) {
      for (std::size_t j = 0; j < dh; ++j) old_x(i, j) = rng.uniform(-1.0, 1.0);
    }
    FeatureBinner binner(old_x, params.max_bins);
    const auto spliced = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const std::size_t nh = n0 + spliced;
    std::vector<std::size_t> inserted = rng.sample_without_replacement(
        nh, spliced);
    std::sort(inserted.begin(), inserted.end());
    Matrix xh(nh, dh);
    std::size_t old_r = 0, next = 0;
    for (std::size_t r = 0; r < nh; ++r) {
      const bool is_new = next < inserted.size() && inserted[next] == r;
      for (std::size_t j = 0; j < dh; ++j) {
        if (!is_new) {
          xh(r, j) = old_x(old_r, j);
          continue;
        }
        const std::size_t nb = binner.bin_count(j);
        switch (rng.uniform_int(0, 3)) {
          case 0: xh(r, j) = rng.uniform(-9.0, -1.0); break;  // below all
          case 1: xh(r, j) = rng.uniform(1.0, 9.0); break;    // above all
          case 2:  // exactly on an edge, when the feature has one
            xh(r, j) = nb > 1 ? binner.edge(j, static_cast<std::size_t>(
                                                   rng.uniform_int(0, nb - 2)))
                              : 0.0;
            break;
          default: xh(r, j) = rng.uniform(-1.0, 1.0); break;
        }
      }
      next += is_new ? 1 : 0;
      old_r += is_new ? 0 : 1;
    }
    binner.insert_rows(xh, inserted);
    std::vector<double> gh(nh), hh(nh);
    for (std::size_t i = 0; i < nh; ++i) {
      gh[i] = rng.normal();
      hh[i] = rng.uniform(0.25, 2.0);
    }
    std::vector<std::size_t> all(nh);
    std::iota(all.begin(), all.end(), std::size_t{0});
    std::vector<double> leaf_h(nh, kUnset);
    RegressionTree hist_tree;
    hist_tree.fit(xh, &binner, gh, hh, all, params, {}, leaf_h);
    for (std::size_t r = 0; r < nh; ++r) {
      ASSERT_TRUE(same_bits(leaf_h[r], hist_tree.predict(xh.row(r))))
          << "histogram row " << r;
    }
  }
}

// A squared-loss booster on RefTree, mirroring GradientBoosting's fit() and
// its active-set continue_fit() (inserted rows plus three sampled anchors
// each, drawn from an Rng seeded like the model's).
struct RefBooster {
  explicit RefBooster(const GbtParams& p) : params(p) {}

  GbtParams params;
  SquaredLoss loss;
  double base = 0.0;
  std::vector<RefTree> trees;
  std::vector<double> rates;
  std::vector<double> score;

  double predict_raw(std::span<const double> row) const {
    double s = base;
    for (std::size_t i = 0; i < trees.size(); ++i) {
      s += rates[i] * trees[i].predict(row);
    }
    return s;
  }

  void boost(const Matrix& x, std::span<const Target> targets, int rounds,
             double rate, std::span<const std::size_t> subset) {
    const std::size_t n = x.rows();
    std::vector<double> grad(n), hess(n), pred(n);
    std::vector<std::size_t> rows(subset.begin(), subset.end());
    if (rows.empty()) {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }
    for (int round = 0; round < rounds; ++round) {
      if (subset.empty()) {
        loss.grad_hess_batch(targets, score, grad, hess);
      } else {
        for (const auto i : subset) {
          const auto gh = loss.grad_hess(targets[i], score[i]);
          grad[i] = gh.grad;
          hess[i] = gh.hess;
        }
      }
      RefTree tree;
      tree.fit(x, grad, hess, rows, params.tree);
      for (std::size_t i = 0; i < n; ++i) pred[i] = tree.predict(x.row(i));
      kernel::ops().axpy(rate, pred.data(), score.data(), n);
      trees.push_back(std::move(tree));
      rates.push_back(rate);
    }
  }

  void fit(const Matrix& x, std::span<const Target> targets) {
    base = loss.init_score(targets);
    score.assign(x.rows(), base);
    boost(x, targets, params.n_rounds, params.learning_rate, {});
  }

  // x grew from the fitted rows by `inserted`.
  void continue_fit(const Matrix& x, std::span<const Target> targets,
                    int rounds, std::span<const std::size_t> inserted) {
    const std::size_t n = x.rows();
    std::vector<double> remapped(n);
    std::size_t old_r = 0, next = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const bool is_new = next < inserted.size() && inserted[next] == r;
      remapped[r] = is_new ? predict_raw(x.row(r)) : score[old_r++];
      next += is_new ? 1 : 0;
    }
    score = std::move(remapped);

    std::vector<std::size_t> subset(inserted.begin(), inserted.end());
    if (subset.size() < n) {
      Rng anchors_rng(params.seed);
      const auto anchors = std::min(n - subset.size(), 3 * subset.size());
      const auto sampled = anchors_rng.sample_without_replacement(n, anchors);
      subset.insert(subset.end(), sampled.begin(), sampled.end());
    }
    std::sort(subset.begin(), subset.end());
    subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
    const double rate =
        std::min(0.5, params.warm_rate_factor * params.learning_rate);
    boost(x, targets, rounds, rate, subset);
  }
};

std::vector<Target> tie_targets(const Matrix& x, Rng& rng) {
  std::vector<Target> targets(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    targets[i].value = x(i, 0) - 2.0 * x(i, x.cols() - 1) + rng.normal();
  }
  return targets;
}

// fit() and an active-set continue_fit() (inserted rows and anchors) against
// RefBooster, bit for bit on every row and probe.
TEST(GradientBoosting, PresortedExactMatchesPerNodeSortReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(1000 + seed);
    const auto d = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const auto n_old = static_cast<std::size_t>(rng.uniform_int(8, 200));
    const auto n = n_old + static_cast<std::size_t>(rng.uniform_int(1, 40));
    GbtParams params;
    params.n_rounds = 6;
    params.tree.max_depth = static_cast<int>(rng.uniform_int(1, 6));
    params.warm_start = true;
    params.warm_rate_factor = 2.0;
    params.seed = seed;

    const Matrix x_old = tie_matrix(rng, n_old, d);
    const auto y_old = tie_targets(x_old, rng);
    auto model = GradientBoosting::regressor(params);
    RefBooster ref(params);
    model.fit(x_old, y_old);
    ref.fit(x_old, y_old);

    // Splice fresh rows in at random ascending positions.
    const auto inserted_rows = rng.sample_without_replacement(n, n - n_old);
    std::vector<std::size_t> inserted(inserted_rows);
    std::sort(inserted.begin(), inserted.end());
    Matrix x = tie_matrix(rng, n, d);
    auto y = tie_targets(x, rng);
    std::size_t old_r = 0, next = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (next < inserted.size() && inserted[next] == r) {
        ++next;
        continue;
      }
      for (std::size_t j = 0; j < d; ++j) x(r, j) = x_old(old_r, j);
      y[r] = y_old[old_r++];
    }
    std::vector<double> values(n);
    for (std::size_t r = 0; r < n; ++r) values[r] = y[r].value;
    model.continue_fit(x, values, 6, inserted);
    ref.continue_fit(x, y, 6, inserted);

    ASSERT_EQ(model.tree_count(), ref.trees.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(model.predict_raw(x.row(i))),
                std::bit_cast<std::uint64_t>(ref.predict_raw(x.row(i))))
          << "row " << i;
    }
    for (const auto& probe : tie_probes(rng, d)) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(model.predict_raw(probe)),
                std::bit_cast<std::uint64_t>(ref.predict_raw(probe)));
    }
  }
}

// --- Lazy continuation scores vs an eager sweep ----------------------------
// EagerBooster is GradientBoosting's warm path with the score cache swept
// eagerly: the same library trees, binner splice and anchor sampling, but
// every round adds its tree into every row's cached score. The library adds
// a tree only into the rows its round reads and catches the others up when
// they are next read, so both must boost on the same gradients; their
// ensembles are compared bit for bit after every call.
struct EagerBooster {
  explicit EagerBooster(const GbtParams& p) : params(p) {}

  GbtParams params;
  SquaredLoss loss;
  double base = 0.0;
  std::vector<RegressionTree> trees;
  std::vector<double> rates;
  std::vector<double> score;
  std::unique_ptr<FeatureBinner> binner;
  Rng rng{0};

  double predict_raw(std::span<const double> row) const {
    double s = base;
    for (std::size_t i = 0; i < trees.size(); ++i) {
      s += rates[i] * trees[i].predict(row);
    }
    return s;
  }

  void boost(const Matrix& x, std::span<const Target> targets, int rounds,
             double rate, std::span<const std::size_t> subset) {
    const std::size_t n = x.rows();
    std::vector<double> grad(n), hess(n), pred(n);
    std::vector<std::size_t> rows(subset.begin(), subset.end());
    if (rows.empty()) {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }
    const FeatureBinner* bins = binner.get();
    const auto presorted = bins == nullptr ? RegressionTree::presort(x, rows)
                                           : std::vector<std::size_t>{};
    for (int round = 0; round < rounds; ++round) {
      if (subset.empty()) {
        loss.grad_hess_batch(targets, score, grad, hess);
      } else {
        for (const auto i : subset) {
          const auto gh = loss.grad_hess(targets[i], score[i]);
          grad[i] = gh.grad;
          hess[i] = gh.hess;
        }
      }
      RegressionTree tree;
      tree.fit(x, bins, grad, hess, rows, params.tree, presorted);
      for (std::size_t i = 0; i < n; ++i) pred[i] = tree.predict(x.row(i));
      kernel::ops().axpy(rate, pred.data(), score.data(), n);
      trees.push_back(std::move(tree));
      rates.push_back(rate);
    }
  }

  void fit(const Matrix& x, std::span<const Target> targets) {
    base = loss.init_score(targets);
    score.assign(x.rows(), base);
    binner.reset();
    if (x.rows() >= kHistogramMinRows) {
      binner = std::make_unique<FeatureBinner>(x, params.tree.max_bins);
    }
    boost(x, targets, params.n_rounds, params.learning_rate, {});
    rng = Rng(params.seed);
  }

  // x grew from the fitted rows by `inserted` (empty: whole-block rounds).
  void continue_fit(const Matrix& x, std::span<const Target> targets,
                    int rounds, std::span<const std::size_t> inserted) {
    const std::size_t n = x.rows();
    std::vector<double> remapped(n);
    std::size_t old_r = 0, next = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const bool is_new = next < inserted.size() && inserted[next] == r;
      remapped[r] = is_new ? predict_raw(x.row(r)) : score[old_r++];
      next += is_new ? 1 : 0;
    }
    score = std::move(remapped);
    if (n >= kHistogramMinRows) {
      if (!binner) {
        binner = std::make_unique<FeatureBinner>(x, params.tree.max_bins);
      } else {
        binner->insert_rows(x, inserted);
      }
    }

    std::vector<std::size_t> subset(inserted.begin(), inserted.end());
    if (!subset.empty() && subset.size() < n) {
      const auto anchors = std::min(n - subset.size(), 3 * subset.size());
      const auto sampled = rng.sample_without_replacement(n, anchors);
      subset.insert(subset.end(), sampled.begin(), sampled.end());
    }
    std::sort(subset.begin(), subset.end());
    subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
    const double rate =
        std::min(0.5, params.warm_rate_factor * params.learning_rate);
    boost(x, targets, rounds, rate, subset);
  }
};

// Real-valued rows: x_j uniform in [−1, 1), y = x_0 − 2·x_{d−1} + noise.
void real_row(Rng& rng, Matrix& x, std::size_t r, std::vector<Target>& y) {
  for (std::size_t j = 0; j < x.cols(); ++j) x(r, j) = rng.uniform(-1.0, 1.0);
  const double noise = rng.uniform(-0.5, 0.5);
  y[r] = {x(r, 0) - 2.0 * x(r, x.cols() - 1) + noise, false};
}

// A chain of continuations per seed: active-set calls with inserted rows
// (and their anchors) plus one whole-block call, which reads every row, some
// of them stale since several calls. Starting sizes cover exact greedy
// throughout, histogram throughout, and an ensemble that crosses
// kHistogramMinRows mid-chain and builds its binner there.
TEST(GradientBoosting, LazyContinuationScoresMatchEagerReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(3000 + seed);
    const auto d = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const std::size_t starts[] = {60, 220, 300};
    const auto extra = static_cast<std::size_t>(rng.uniform_int(0, 30));
    std::size_t n = starts[seed % 3] + extra;
    GbtParams params;
    params.n_rounds = 8;
    params.tree.max_depth = static_cast<int>(rng.uniform_int(1, 5));
    params.tree.max_bins = static_cast<int>(rng.uniform_int(8, 64));
    params.warm_start = true;
    params.warm_rate_factor = 2.0;
    params.seed = seed;

    Matrix x(n, d);
    std::vector<Target> y(n);
    for (std::size_t r = 0; r < n; ++r) real_row(rng, x, r, y);
    auto model = GradientBoosting::regressor(params);
    EagerBooster ref(params);
    model.fit(x, y);
    ref.fit(x, y);

    const auto whole_block_step = rng.uniform_int(1, 3);
    for (int step = 0; step < 5; ++step) {
      SCOPED_TRACE("step=" + std::to_string(step));
      std::vector<std::size_t> inserted;
      if (step != whole_block_step) {
        const auto grown = n + static_cast<std::size_t>(rng.uniform_int(1, 20));
        inserted = rng.sample_without_replacement(grown, grown - n);
        std::sort(inserted.begin(), inserted.end());
        Matrix x_new(grown, d);
        std::vector<Target> y_new(grown);
        std::size_t old_r = 0, next = 0;
        for (std::size_t r = 0; r < grown; ++r) {
          if (next < inserted.size() && inserted[next] == r) {
            real_row(rng, x_new, r, y_new);
            ++next;
          } else {
            for (std::size_t j = 0; j < d; ++j) x_new(r, j) = x(old_r, j);
            y_new[r] = y[old_r++];
          }
        }
        x = std::move(x_new);
        y = std::move(y_new);
        n = grown;
      } else {
        for (auto& t : y) t.value += 0.25;  // targets may move between calls
      }
      std::vector<double> values(n);
      for (std::size_t r = 0; r < n; ++r) values[r] = y[r].value;
      const int rounds = static_cast<int>(rng.uniform_int(1, 6));
      model.continue_fit(x, values, rounds, inserted);
      ref.continue_fit(x, y, rounds, inserted);

      ASSERT_EQ(model.tree_count(), ref.trees.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(model.predict_raw(x.row(i))),
                  std::bit_cast<std::uint64_t>(ref.predict_raw(x.row(i))))
            << "row " << i;
      }
    }
  }
}

// Block scoring walks the ensemble tree by tree over all rows; it must give
// every row predict()'s bits. Ensembles grown by continuations at a rate
// other than the fit's, on both tree backends (exact greedy below
// kHistogramMinRows, histogram above), stumps (depth 0: single-leaf trees),
// an empty block, and NaN in a split feature and in a feature no tree splits
// on (column 3 is constant). A NaN goes right at every split.
TEST(GradientBoosting, BlockPredictMatchesPerRowBitwise) {
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const auto expect_block_matches = [&](const GradientBoosting& model,
                                        const Matrix& x) {
    const auto block = model.predict(x);
    ASSERT_EQ(block.size(), x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      ASSERT_TRUE(same_bits(block[r], model.predict(x.row(r)))) << "row " << r;
    }
  };
  constexpr std::size_t kCols = 4;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto draw = [&](Rng& rng, std::size_t n) {
    Matrix x(n, kCols);
    std::vector<double> y(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t j = 0; j + 1 < kCols; ++j) {
        x(r, j) = rng.uniform(-1.0, 1.0);
      }
      x(r, kCols - 1) = 1.0;
      y[r] = x(r, 0) - 2.0 * x(r, 2) + rng.uniform(-0.5, 0.5);
    }
    return std::pair{x, y};
  };
  for (const std::size_t n0 : {std::size_t{120}, std::size_t{300}}) {
    for (const int depth : {0, 3}) {
      SCOPED_TRACE("n0=" + std::to_string(n0) +
                   " depth=" + std::to_string(depth));
      Rng rng(70 + n0 + static_cast<std::size_t>(depth));
      GbtParams params;
      params.n_rounds = 6;
      params.tree.max_depth = depth;
      params.warm_start = true;
      params.warm_rate_factor = 2.5;
      auto [x, y] = draw(rng, n0);
      auto model = GradientBoosting::regressor(params);
      model.fit(x, y);
      for (int step = 0; step < 3; ++step) {
        auto [more_x, more_y] = draw(rng, 10);
        std::vector<std::size_t> inserted;
        for (std::size_t r = 0; r < more_x.rows(); ++r) {
          inserted.push_back(x.rows());
          x.push_row(more_x.row(r));
          y.push_back(more_y[r]);
        }
        model.continue_fit(x, y, 4, inserted);
      }
      ASSERT_EQ(model.tree_count(), 18u);

      Matrix probe = x;
      for (std::size_t r = 0; r < 24; ++r) {
        std::vector<double> row(x.row(r).begin(), x.row(r).end());
        if (r % 3 != 1) row[0] = nan;
        if (r % 3 != 0) row[kCols - 1] = nan;
        probe.push_row(row);
      }
      expect_block_matches(model, probe);
      EXPECT_TRUE(model.predict(Matrix(0, kCols)).empty());
    }
  }

  // A transformed (logistic) score, applied after the tree-major sum.
  Rng rng(77);
  auto [x, y] = draw(rng, 90);
  for (auto& v : y) v = v > 0.0 ? 1.0 : 0.0;
  auto clf = GradientBoosting::classifier();
  clf.fit(x, y);
  x(5, 0) = nan;
  expect_block_matches(clf, x);
}

// Scoring reads row[feature] for every split feature, so a model accepts
// only rows exactly as wide as the matrix it was fitted on: a shorter row
// would be read past its end.
TEST(GradientBoosting, RejectsRowsOfAnotherWidth) {
  Rng rng(78);
  Matrix x(40, 4);
  std::vector<double> y(40);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t j = 0; j < x.cols(); ++j) x(r, j) = rng.uniform(-1, 1);
    y[r] = x(r, 3);
  }
  auto model = GradientBoosting::regressor();
  model.fit(x, y);
  const std::vector<double> short_row(2, 0.5);
  EXPECT_THROW(model.predict(short_row), std::invalid_argument);
  EXPECT_THROW(model.predict_raw(short_row), std::invalid_argument);
  EXPECT_THROW(model.predict(Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(model.predict(Matrix(3, 5)), std::invalid_argument);
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
