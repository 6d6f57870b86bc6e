#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/scaler.h"
#include "common/table.h"

namespace nurd {
namespace {

TEST(StandardScaler, TransformsToZeroMeanUnitVariance) {
  Matrix x{{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  StandardScaler scaler;
  const auto xs = scaler.fit_transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < 3; ++r) mean += xs(r, c);
    EXPECT_NEAR(mean / 3.0, 0.0, 1e-12);
  }
  EXPECT_NEAR(xs(0, 0), -1.2247448, 1e-6);
}

TEST(StandardScaler, ZeroVarianceColumnPassesThroughCentered) {
  Matrix x{{5.0}, {5.0}};
  StandardScaler scaler;
  const auto xs = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(xs(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(xs(1, 0), 0.0);
}

TEST(StandardScaler, TransformRowMatchesMatrixTransform) {
  Matrix x{{1.0, 2.0}, {3.0, 6.0}};
  StandardScaler scaler;
  scaler.fit(x);
  std::vector<double> row{1.0, 2.0};
  scaler.transform_row(row);
  const auto xs = scaler.transform(x);
  EXPECT_DOUBLE_EQ(row[0], xs(0, 0));
  EXPECT_DOUBLE_EQ(row[1], xs(0, 1));
}

TEST(StandardScaler, UnfittedThrows) {
  StandardScaler scaler;
  Matrix x(1, 1);
  EXPECT_THROW(scaler.transform(x), std::invalid_argument);
}

TEST(StandardScaler, ColumnMismatchThrows) {
  Matrix x(2, 2, 1.0);
  StandardScaler scaler;
  scaler.fit(x);
  Matrix bad(2, 3, 1.0);
  EXPECT_THROW(scaler.transform(bad), std::invalid_argument);
}

TEST(Histogram, CountsSumToN) {
  const std::vector<double> v{0.0, 0.1, 0.5, 0.9, 1.0};
  const Histogram h(v, 4);
  std::size_t total = 0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) total += h.count(b);
  EXPECT_EQ(total, v.size());
}

TEST(Histogram, BinOfClampsOutOfRange) {
  const std::vector<double> v{0.0, 1.0};
  const Histogram h(v, 2);
  EXPECT_EQ(h.bin_of(-5.0), 0u);
  EXPECT_EQ(h.bin_of(5.0), h.bin_count() - 1);
}

TEST(Histogram, ConstantDataSingleBin) {
  const std::vector<double> v{3.0, 3.0, 3.0};
  const Histogram h(v, 10);
  EXPECT_EQ(h.bin_count(), 1u);
  EXPECT_EQ(h.count(0), 3u);
}

TEST(Histogram, DensityIntegratesToOne) {
  const std::vector<double> v{0.0, 0.25, 0.5, 0.75, 1.0};
  const Histogram h(v, 5);
  const double width = (h.hi() - h.lo()) / static_cast<double>(h.bin_count());
  double integral = 0.0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    integral += h.density(h.lo() + (static_cast<double>(b) + 0.5) * width) *
                width;
  }
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, DensityFloorKeepsLogFinite) {
  const std::vector<double> v{0.0, 1.0};
  const Histogram h(v, 10);
  EXPECT_GT(h.density(0.5), 0.0);  // empty middle bin still positive
}

TEST(Histogram, RejectsEmptyInput) {
  EXPECT_THROW(Histogram({}, 4), std::invalid_argument);
}

TEST(Histogram, RejectsNonFiniteSample) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Sample = std::vector<double>;
  EXPECT_THROW(Histogram(Sample{nan, 1.0, 2.0}, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(Sample{1.0, nan, 2.0}, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(Sample{1.0, inf}, 4), std::invalid_argument);
}

TEST(Histogram, CodesAreBinOfAndBinDensityIsDensity) {
  Rng rng(313);
  for (const std::size_t n : {1u, 2u, 9u, 100u}) {
    for (const std::size_t bins : {1u, 3u, 10u, 37u}) {
      std::vector<double> spread(n);
      std::vector<double> duplicated(n);
      for (std::size_t i = 0; i < n; ++i) {
        spread[i] = rng.normal();
        duplicated[i] = std::floor(rng.uniform(0.0, 3.0));
      }
      const std::vector<double> constant(n, 2.5);
      const std::vector<double>* samples[] = {&spread, &duplicated,
                                              &constant};
      for (const auto* v : samples) {
        std::vector<std::uint32_t> codes(n, 99u);
        const Histogram h(*v, bins, codes);
        for (std::size_t i = 0; i < n; ++i) {
          const double x = (*v)[i];
          EXPECT_EQ(codes[i], h.bin_of(x)) << "n=" << n << " bins=" << bins;
          EXPECT_EQ(h.bin_density(h.bin_of(x)), h.density(x));
        }
        for (const double probe : {h.lo() - 1.0, h.hi(), h.hi() + 1.0}) {
          EXPECT_EQ(h.bin_density(h.bin_of(probe)), h.density(probe));
        }
      }
    }
  }
  const std::vector<double> v{0.0, 1.0, 2.0};
  std::vector<std::uint32_t> short_codes(2);
  EXPECT_THROW(Histogram(v, 4, short_codes), std::invalid_argument);
}

TEST(Histogram, AsciiHasOneLinePerBin) {
  const std::vector<double> v{0.0, 0.5, 1.0};
  const Histogram h(v, 3);
  const auto s = h.ascii();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'),
            static_cast<std::ptrdiff_t>(h.bin_count()));
}

TEST(TextTable, RendersHeaderRuleAndRows) {
  TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  const auto s = t.render();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("--"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
}

TEST(TextTable, RejectsWidthMismatch) {
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

}  // namespace
}  // namespace nurd
