#include <gtest/gtest.h>

#include "common/rng.h"
#include "pu/pu_bg.h"
#include "pu/pu_en.h"

namespace nurd::pu {
namespace {

// A PU problem with the NU-swapped roles used by the straggler setting:
// the labeled set comes from one Gaussian class; the unlabeled set mixes
// that class with a shifted one.
struct PuProblem {
  Matrix labeled;          // pure "labeled-class" sample
  Matrix unlabeled;        // mixture
  std::vector<int> truth;  // 1 = unlabeled row is from the OTHER class
};

PuProblem make_problem(std::size_t n_lab, std::size_t n_unl_same,
                       std::size_t n_unl_other, double gap,
                       std::uint64_t seed) {
  Rng rng(seed);
  PuProblem p;
  p.labeled = Matrix(n_lab, 2);
  for (std::size_t i = 0; i < n_lab; ++i) {
    p.labeled(i, 0) = rng.normal(0.0, 1.0);
    p.labeled(i, 1) = rng.normal(0.0, 1.0);
  }
  p.unlabeled = Matrix(n_unl_same + n_unl_other, 2);
  for (std::size_t i = 0; i < n_unl_same; ++i) {
    p.unlabeled(i, 0) = rng.normal(0.0, 1.0);
    p.unlabeled(i, 1) = rng.normal(0.0, 1.0);
    p.truth.push_back(0);
  }
  for (std::size_t i = n_unl_same; i < n_unl_same + n_unl_other; ++i) {
    p.unlabeled(i, 0) = rng.normal(gap, 1.0);
    p.unlabeled(i, 1) = rng.normal(gap, 1.0);
    p.truth.push_back(1);
  }
  return p;
}

TEST(PuElkanNoto, CalibrationConstantInRange) {
  const auto p = make_problem(150, 100, 50, 4.0, 41);
  PuElkanNoto model;
  model.fit(p.labeled, p.unlabeled);
  EXPECT_GT(model.c_estimate(), 0.0);
  EXPECT_LE(model.c_estimate(), 1.0);
}

TEST(PuElkanNoto, SameClassRowsScoreHigher) {
  const auto p = make_problem(150, 100, 50, 4.0, 42);
  PuElkanNoto model;
  model.fit(p.labeled, p.unlabeled);
  double mean_same = 0.0, mean_other = 0.0;
  std::size_t n_same = 0, n_other = 0;
  const auto prob = model.prob_labeled_class(p.unlabeled);
  for (std::size_t i = 0; i < p.unlabeled.rows(); ++i) {
    const double pr = prob[i];
    EXPECT_GE(pr, 0.0);
    EXPECT_LE(pr, 1.0);
    if (p.truth[i] == 0) {
      mean_same += pr;
      ++n_same;
    } else {
      mean_other += pr;
      ++n_other;
    }
  }
  mean_same /= static_cast<double>(n_same);
  mean_other /= static_cast<double>(n_other);
  EXPECT_GT(mean_same, mean_other + 0.3);
}

TEST(PuElkanNoto, ThresholdSeparatesMostOtherClass) {
  const auto p = make_problem(200, 120, 60, 5.0, 43);
  PuElkanNoto model;
  model.fit(p.labeled, p.unlabeled);
  std::size_t correct = 0;
  const auto prob = model.prob_labeled_class(p.unlabeled);
  for (std::size_t i = 0; i < p.unlabeled.rows(); ++i) {
    const int pred = prob[i] < 0.5 ? 1 : 0;
    if (pred == p.truth[i]) ++correct;
  }
  EXPECT_GT(correct, p.unlabeled.rows() * 85 / 100);
}

TEST(PuElkanNoto, RejectsEmptyInput) {
  PuElkanNoto model;
  Matrix empty(0, 0), some(3, 2);
  EXPECT_THROW(model.fit(empty, some), std::invalid_argument);
  EXPECT_THROW(model.fit(some, empty), std::invalid_argument);
}

TEST(PuElkanNoto, RejectsWidthMismatch) {
  PuElkanNoto model;
  Matrix a(3, 2), b(3, 3);
  EXPECT_THROW(model.fit(a, b), std::invalid_argument);
}

TEST(PuBaggingSvm, OtherClassScoresHigher) {
  const auto p = make_problem(150, 100, 50, 4.0, 44);
  PuBaggingSvm model;
  model.fit(p.labeled, p.unlabeled);
  const auto& scores = model.unlabeled_scores();
  ASSERT_EQ(scores.size(), p.unlabeled.rows());
  double mean_same = 0.0, mean_other = 0.0;
  std::size_t n_same = 0, n_other = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (p.truth[i] == 0) {
      mean_same += scores[i];
      ++n_same;
    } else {
      mean_other += scores[i];
      ++n_other;
    }
  }
  EXPECT_GT(mean_other / static_cast<double>(n_other),
            mean_same / static_cast<double>(n_same));
}

TEST(PuBaggingSvm, ScoresAlignedAndFinite) {
  const auto p = make_problem(80, 60, 20, 3.0, 45);
  PuBaggingSvm model;
  model.fit(p.labeled, p.unlabeled);
  for (double s : model.unlabeled_scores()) EXPECT_TRUE(std::isfinite(s));
}

TEST(PuBaggingSvm, DeterministicGivenSeed) {
  const auto p = make_problem(80, 60, 20, 3.0, 46);
  PuBaggingSvm a, b;
  a.fit(p.labeled, p.unlabeled);
  b.fit(p.labeled, p.unlabeled);
  EXPECT_EQ(a.unlabeled_scores(), b.unlabeled_scores());
}

TEST(PuBaggingSvm, RejectsEmptyInput) {
  PuBaggingSvm model;
  Matrix empty(0, 0), some(3, 2);
  EXPECT_THROW(model.fit(empty, some), std::invalid_argument);
}

}  // namespace
}  // namespace nurd::pu
