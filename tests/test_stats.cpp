#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace nurd {
namespace {

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  const std::vector<double> v{3.0};
  EXPECT_DOUBLE_EQ(variance(v), 0.0);
}

TEST(Stats, PercentileMatchesNumpyLinear) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> v{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
}

TEST(Stats, PercentileRejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101.0), std::invalid_argument);
}

// numpy-linear percentile read off a fully sorted copy: the definition that
// percentile's selection must reproduce exactly.
double sorted_percentile(std::vector<double> s, double p) {
  std::sort(s.begin(), s.end());
  if (s.size() == 1) return s[0];
  const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

TEST(Stats, PercentileEqualsSortedReference) {
  Rng rng(311);
  for (std::size_t n = 1; n <= 300; ++n) {
    std::vector<double> spread(n);
    std::vector<double> duplicated(n);
    for (std::size_t i = 0; i < n; ++i) {
      spread[i] = rng.normal();
      duplicated[i] = std::floor(rng.uniform(0.0, 4.0));
    }
    for (const double p : {0.0, 10.0, 50.0, 90.0, 99.9, 100.0}) {
      EXPECT_EQ(percentile(spread, p), sorted_percentile(spread, p))
          << "n=" << n << " p=" << p;
      EXPECT_EQ(percentile(duplicated, p), sorted_percentile(duplicated, p))
          << "n=" << n << " p=" << p << " (duplicates)";
    }
  }
}

TEST(Stats, MinMaxMedian) {
  const std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 7.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c{-2.0, -4.0, -6.0};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero) {
  const std::vector<double> a{1.0, 1.0, 1.0};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

TEST(Stats, PearsonRejectsLengthMismatch) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_THROW(pearson(a, b), std::invalid_argument);
}

TEST(Stats, SigmoidProperties) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
  // Symmetry: σ(x) + σ(−x) = 1.
  for (double x : {0.1, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(sigmoid(x) + sigmoid(-x), 1.0, 1e-12);
  }
}

TEST(Stats, NormalPdfCdfKnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(Stats, ArgsortStableAscending) {
  const std::vector<double> v{3.0, 1.0, 2.0, 1.0};
  const auto idx = argsort(v);
  EXPECT_EQ(idx, (std::vector<std::size_t>{1, 3, 2, 0}));
}

TEST(Stats, MinmaxNormalizeRange) {
  const std::vector<double> v{2.0, 4.0, 6.0};
  const auto n = minmax_normalize(v);
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
  EXPECT_DOUBLE_EQ(n[2], 1.0);
}

TEST(Stats, MinmaxNormalizeConstantIsZero) {
  const std::vector<double> v{5.0, 5.0};
  const auto n = minmax_normalize(v);
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 0.0);
}

TEST(Stats, ZscoreMeanZeroUnitVar) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const auto z = zscore(v);
  EXPECT_NEAR(mean(z), 0.0, 1e-12);
  EXPECT_NEAR(stddev(z), 1.0, 1e-12);
}

class PercentileMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(PercentileMonotoneTest, MonotoneInP) {
  const std::vector<double> v{5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0};
  const double p = GetParam();
  EXPECT_LE(percentile(v, p), percentile(v, std::min(p + 10.0, 100.0)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileMonotoneTest,
                         ::testing::Values(0.0, 10.0, 25.0, 40.0, 50.0, 65.0,
                                           75.0, 90.0));

}  // namespace
}  // namespace nurd
