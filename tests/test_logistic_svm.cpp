#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/linear_svm.h"
#include "ml/logistic.h"

namespace nurd::ml {
namespace {

// Two Gaussian classes separated along the first feature.
struct BinaryProblem {
  Matrix x;
  std::vector<double> y;
};

BinaryProblem separated_classes(std::size_t n, double gap, std::uint64_t seed) {
  Rng rng(seed);
  BinaryProblem p;
  p.x = Matrix(n, 3);
  p.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    p.x(i, 0) = rng.normal(pos ? gap : -gap, 1.0);
    p.x(i, 1) = rng.normal();
    p.x(i, 2) = rng.normal();
    p.y[i] = pos ? 1.0 : 0.0;
  }
  return p;
}

TEST(LogisticRegression, SeparatesClearClasses) {
  const auto p = separated_classes(400, 3.0, 21);
  LogisticRegression lr;
  lr.fit(p.x, p.y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    if ((lr.predict_proba(p.x.row(i)) > 0.5) == (p.y[i] > 0.5)) ++correct;
  }
  EXPECT_GT(correct, p.x.rows() * 95 / 100);
}

TEST(LogisticRegression, ProbabilitiesInUnitInterval) {
  const auto p = separated_classes(100, 1.0, 23);
  LogisticRegression lr;
  lr.fit(p.x, p.y);
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    const double pr = lr.predict_proba(p.x.row(i));
    EXPECT_GE(pr, 0.0);
    EXPECT_LE(pr, 1.0);
  }
}

TEST(LogisticRegression, BlockProbabilitiesMatchPerRowBitwise) {
  const auto p = separated_classes(120, 1.0, 29);
  LogisticRegression lr;
  lr.fit(p.x, p.y);
  const auto block = lr.predict_proba(p.x);
  ASSERT_EQ(block.size(), p.x.rows());
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(block[i]),
              std::bit_cast<std::uint64_t>(lr.predict_proba(p.x.row(i))))
        << "row " << i;
  }
  EXPECT_TRUE(lr.predict_proba(Matrix(0, 3)).empty());
  EXPECT_THROW(lr.predict_proba(Matrix(2, 2)), std::invalid_argument);
}

TEST(LogisticRegression, ConstantLabelsYieldExtremeBase) {
  Matrix x{{0.0}, {1.0}, {2.0}};
  const std::vector<double> y{1.0, 1.0, 1.0};
  LogisticRegression lr;
  lr.fit(x, y);
  EXPECT_GT(lr.predict_proba(x.row(0)), 0.8);
}

TEST(LogisticRegression, AverageProbabilityTracksPrior) {
  // With overlapping classes at an imbalanced prior, the calibrated mean
  // probability should be near the prior.
  Rng rng(27);
  const std::size_t n = 500;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = i % 10 == 0 ? 1.0 : 0.0;  // 10% positives, features uninformative
  }
  LogisticRegression lr;
  lr.fit(x, y);
  double mean_p = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_p += lr.predict_proba(x.row(i));
  EXPECT_NEAR(mean_p / static_cast<double>(n), 0.1, 0.03);
}

TEST(LogisticRegression, StrongerL2ShrinksWeights) {
  const auto p = separated_classes(200, 2.0, 29);
  LogisticParams weak;
  weak.l2 = 0.01;
  LogisticParams strong;
  strong.l2 = 100.0;
  LogisticRegression a(weak), b(strong);
  a.fit(p.x, p.y);
  b.fit(p.x, p.y);
  EXPECT_GT(std::abs(a.weights()[0]), std::abs(b.weights()[0]));
}

TEST(LogisticRegression, SampleWeightsShiftDecision) {
  // Upweighting the positive class should raise probabilities.
  const auto p = separated_classes(200, 0.5, 31);
  std::vector<double> w(p.y.size());
  for (std::size_t i = 0; i < p.y.size(); ++i) {
    w[i] = p.y[i] > 0.5 ? 10.0 : 1.0;
  }
  LogisticRegression plain, weighted;
  plain.fit(p.x, p.y);
  weighted.fit(p.x, p.y, w);
  double mean_plain = 0.0, mean_weighted = 0.0;
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    mean_plain += plain.predict_proba(p.x.row(i));
    mean_weighted += weighted.predict_proba(p.x.row(i));
  }
  EXPECT_GT(mean_weighted, mean_plain);
}

TEST(LogisticRegression, MismatchedLabelsThrow) {
  Matrix x(2, 1);
  LogisticRegression lr;
  EXPECT_THROW(lr.fit(x, std::vector<double>{1.0}), std::invalid_argument);
}

// A warm-start chain as NURD's propensity model runs it: five refits on a
// growing block of overlapping classes, each starting from the previous
// solution through the damped Newton path (one fit with sample weights).
// The FNV-1a digest of every fit's coefficient bit patterns pins the path's
// arithmetic: the line search's merit values, its accepted steps and its
// stopping point. The exp/log1p calls make the digest specific to the libm.
TEST(LogisticRegression, WarmChainCoefficientsPinned) {
  constexpr std::uint64_t kExpected = 0xcc9fe0cf52880ea8ull;
  Rng rng(17);
  Matrix x(0, 3);
  std::vector<double> y;
  LogisticParams params;
  params.warm_start = true;
  LogisticRegression lr(params);
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (int fit = 0; fit < 5; ++fit) {
    for (int i = 0; i < 40; ++i) {
      const std::vector<double> row = {rng.normal(), rng.normal(0.5, 2.0),
                                       rng.uniform(0.0, 3.0)};
      x.push_row(row);
      y.push_back(row[0] + 0.3 * row[1] + rng.normal() > 0.4 ? 1.0 : 0.0);
    }
    if (fit == 3) {
      std::vector<double> w(y.size());
      for (std::size_t i = 0; i < w.size(); ++i) w[i] = 0.5 + (i % 3);
      lr.fit(x, y, w);
    } else {
      lr.fit(x, y);
    }
    for (const double v : lr.weights()) mix(v);
    mix(lr.intercept());
  }
  EXPECT_EQ(h, kExpected) << std::hex << "0x" << h;
}

TEST(LinearSVM, SeparatesClearClasses) {
  const auto p = separated_classes(400, 3.0, 33);
  LinearSVM svm;
  svm.fit(p.x, p.y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    if (svm.predict(p.x.row(i)) == p.y[i]) ++correct;
  }
  EXPECT_GT(correct, p.x.rows() * 93 / 100);
}

TEST(LinearSVM, DecisionSignMatchesPrediction) {
  const auto p = separated_classes(100, 2.0, 35);
  LinearSVM svm;
  svm.fit(p.x, p.y);
  for (std::size_t i = 0; i < 20; ++i) {
    const double d = svm.decision(p.x.row(i));
    EXPECT_EQ(svm.predict(p.x.row(i)), d > 0.0 ? 1.0 : 0.0);
  }
}

TEST(LinearSVM, ClassWeightsRecoverMinority) {
  // 5% positives overlapping the majority: with heavy positive weights the
  // SVM should flag far more positives than without.
  Rng rng(37);
  const std::size_t n = 600;
  Matrix x(n, 2);
  std::vector<double> y(n), w(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 20 == 0;
    x(i, 0) = rng.normal(pos ? 1.0 : 0.0, 1.0);
    x(i, 1) = rng.normal();
    y[i] = pos ? 1.0 : 0.0;
    w[i] = pos ? 19.0 : 1.0;
  }
  LinearSVM plain, weighted;
  plain.fit(x, y);
  weighted.fit(x, y, w);
  std::size_t flags_plain = 0, flags_weighted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    flags_plain += plain.predict(x.row(i)) > 0.5 ? 1 : 0;
    flags_weighted += weighted.predict(x.row(i)) > 0.5 ? 1 : 0;
  }
  EXPECT_GT(flags_weighted, flags_plain);
}

TEST(LinearSVM, DeterministicGivenSeed) {
  const auto p = separated_classes(100, 1.0, 39);
  LinearSVM a, b;
  a.fit(p.x, p.y);
  b.fit(p.x, p.y);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.decision(p.x.row(i)), b.decision(p.x.row(i)));
  }
}

TEST(LinearSVM, UnfittedThrows) {
  LinearSVM svm;
  const std::vector<double> row{0.0, 0.0, 0.0};
  EXPECT_THROW(svm.decision(row), std::invalid_argument);
}

}  // namespace
}  // namespace nurd::ml
