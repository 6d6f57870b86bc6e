#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "outlier/density_detectors.h"
#include "outlier/detector.h"
#include "outlier/ensemble_detectors.h"
#include "outlier/iforest.h"
#include "outlier/knn_detectors.h"
#include "outlier/ocsvm.h"
#include "outlier/statistical_detectors.h"
#include "outlier/subspace_detectors.h"

namespace nurd::outlier {
namespace {

// Dense inlier blob plus a handful of far-away outliers (last rows).
struct Planted {
  Matrix x;
  std::size_t n_inliers;
  std::size_t n_outliers;
};

Planted planted_outliers(std::size_t n_in, std::size_t n_out,
                         std::uint64_t seed) {
  Rng rng(seed);
  Planted p;
  p.n_inliers = n_in;
  p.n_outliers = n_out;
  p.x = Matrix(n_in + n_out, 4);
  for (std::size_t i = 0; i < n_in; ++i) {
    for (std::size_t j = 0; j < 4; ++j) p.x(i, j) = rng.normal(0.0, 1.0);
  }
  // Each outlier sits far out in its own random direction: a single far
  // CLUSTER would legitimately evade the local/affinity detectors (SOS,
  // COF) whose whole point is that clustered anomalies look mutually
  // normal.
  for (std::size_t i = n_in; i < n_in + n_out; ++i) {
    std::vector<double> dir(4);
    for (auto& d : dir) d = rng.normal();
    const double scale = 8.0 / norm2(dir);
    for (std::size_t j = 0; j < 4; ++j) {
      p.x(i, j) = dir[j] * scale + rng.normal(0.0, 0.3);
    }
  }
  return p;
}

// Fraction of the planted outliers ranked within the top (n_out) scores.
double recall_at_k(const std::vector<double>& scores, std::size_t n_in,
                   std::size_t n_out) {
  std::vector<std::size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(n_out),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      return scores[a] > scores[b];
                    });
  std::size_t hit = 0;
  for (std::size_t k = 0; k < n_out; ++k) {
    if (idx[k] >= n_in) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(n_out);
}

using DetectorFactory = std::function<std::unique_ptr<Detector>()>;

struct DetectorCase {
  const char* name;
  DetectorFactory make;
  // Minimum planted-outlier recall@k. Most detectors nail scattered far
  // outliers; SOS (the paper's weakest detector, F1 0.12 in Table 3) and
  // the approximate-RFF OCSVM get a looser bar.
  double min_recall = 0.75;
};

class DetectorSuite : public ::testing::TestWithParam<DetectorCase> {};

TEST_P(DetectorSuite, RanksPlantedOutliersOnTop) {
  const auto planted = planted_outliers(120, 8, 77);
  auto det = GetParam().make();
  det->fit(planted.x);
  const auto& scores = det->scores();
  ASSERT_EQ(scores.size(), planted.x.rows());
  EXPECT_GE(recall_at_k(scores, planted.n_inliers, planted.n_outliers),
            GetParam().min_recall)
      << GetParam().name;
}

TEST_P(DetectorSuite, ScoresAreFinite) {
  const auto planted = planted_outliers(60, 4, 78);
  auto det = GetParam().make();
  det->fit(planted.x);
  for (double s : det->scores()) EXPECT_TRUE(std::isfinite(s));
}

TEST_P(DetectorSuite, DeterministicAcrossRuns) {
  const auto planted = planted_outliers(60, 4, 79);
  auto a = GetParam().make();
  auto b = GetParam().make();
  a->fit(planted.x);
  b->fit(planted.x);
  EXPECT_EQ(a->scores(), b->scores()) << GetParam().name;
}

TEST_P(DetectorSuite, NameMatches) {
  EXPECT_EQ(GetParam().make()->name(), GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectors, DetectorSuite,
    ::testing::Values(
        DetectorCase{"KNN", [] { return std::make_unique<KnnDetector>(); }},
        DetectorCase{"LOF", [] { return std::make_unique<LofDetector>(); }},
        DetectorCase{"COF", [] { return std::make_unique<CofDetector>(); }},
        DetectorCase{"ABOD", [] { return std::make_unique<AbodDetector>(); }},
        DetectorCase{"HBOS", [] { return std::make_unique<HbosDetector>(); }},
        DetectorCase{"SOS", [] { return std::make_unique<SosDetector>(); },
                     0.4},
        DetectorCase{"IFOREST",
                     [] { return std::make_unique<IForestDetector>(); }},
        DetectorCase{"MCD", [] { return std::make_unique<McdDetector>(); }},
        DetectorCase{"PCA", [] { return std::make_unique<PcaDetector>(); }},
        DetectorCase{"CBLOF",
                     [] { return std::make_unique<CblofDetector>(); }},
        DetectorCase{"OCSVM",
                     [] { return std::make_unique<OcsvmDetector>(); }, 0.5},
        DetectorCase{"SOD", [] { return std::make_unique<SodDetector>(); }},
        DetectorCase{"LSCP",
                     [] { return std::make_unique<LscpDetector>(); }}),
    [](const ::testing::TestParamInfo<DetectorCase>& info) {
      return info.param.name;
    });

TEST(ContaminationThreshold, FlagsExpectedFraction) {
  std::vector<double> scores(100);
  std::iota(scores.begin(), scores.end(), 0.0);
  const auto labels = labels_from_scores(scores, 0.1);
  const auto flagged = std::count(labels.begin(), labels.end(), 1);
  EXPECT_GE(flagged, 9);
  EXPECT_LE(flagged, 11);
  // The highest scores are the flagged ones.
  EXPECT_EQ(labels[99], 1);
  EXPECT_EQ(labels[0], 0);
}

TEST(ContaminationThreshold, EqualsSortedQuantile) {
  // The threshold is the numpy-linear 100·(1 − contamination) percentile of
  // the scores, computed here from a fully sorted copy.
  Rng rng(312);
  for (std::size_t n = 1; n <= 300; n += 7) {
    std::vector<double> scores(n);
    for (std::size_t i = 0; i < n; ++i) {
      scores[i] = i % 3 == 0 ? std::floor(rng.uniform(0.0, 3.0))
                             : rng.exponential(1.0);
    }
    std::vector<double> sorted = scores;
    std::sort(sorted.begin(), sorted.end());
    for (const double c : {0.001, 0.05, 0.1, 0.5, 0.9}) {
      double expected = sorted[0];
      if (n > 1) {
        const double pos =
            100.0 * (1.0 - c) / 100.0 * static_cast<double>(n - 1);
        const auto lo = static_cast<std::size_t>(std::floor(pos));
        const auto hi = static_cast<std::size_t>(std::ceil(pos));
        expected = sorted[lo] + (sorted[hi] - sorted[lo]) *
                                    (pos - static_cast<double>(lo));
      }
      EXPECT_EQ(contamination_threshold(scores, c), expected)
          << "n=" << n << " contamination=" << c;
    }
  }
}

TEST(ContaminationThreshold, RejectsBadInput) {
  EXPECT_THROW(contamination_threshold({}, 0.1), std::invalid_argument);
  std::vector<double> s{1.0};
  EXPECT_THROW(contamination_threshold(s, 0.0), std::invalid_argument);
  EXPECT_THROW(contamination_threshold(s, 1.0), std::invalid_argument);
}

TEST(IForest, AveragePathLengthKnownValues) {
  EXPECT_DOUBLE_EQ(IForestDetector::average_path_length(0), 0.0);
  EXPECT_DOUBLE_EQ(IForestDetector::average_path_length(1), 0.0);
  EXPECT_DOUBLE_EQ(IForestDetector::average_path_length(2), 1.0);
  // c(256) ≈ 10.24 (from the isolation-forest paper's normalizer).
  EXPECT_NEAR(IForestDetector::average_path_length(256), 10.24, 0.1);
}

TEST(IForest, ScoresInUnitInterval) {
  const auto planted = planted_outliers(100, 5, 80);
  IForestDetector det;
  det.fit(planted.x);
  for (double s : det.scores()) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(Lof, UniformDataScoresNearOne) {
  Rng rng(81);
  Matrix x(200, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    x(i, 1) = rng.uniform(0.0, 1.0);
  }
  LofDetector det(20);
  det.fit(x);
  double mean_score = 0.0;
  for (double s : det.scores()) mean_score += s;
  EXPECT_NEAR(mean_score / 200.0, 1.0, 0.1);
}

TEST(Sos, ScoresAreProbabilities) {
  const auto planted = planted_outliers(50, 3, 82);
  SosDetector det;
  det.fit(planted.x);
  for (double s : det.scores()) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(Xgbod, SupervisedScoresSeparate) {
  const auto planted = planted_outliers(120, 8, 83);
  std::vector<double> y(planted.x.rows(), 0.0);
  for (std::size_t i = planted.n_inliers; i < planted.x.rows(); ++i) {
    y[i] = 1.0;
  }
  XgbodDetector det;
  det.fit(planted.x, y);
  EXPECT_GE(recall_at_k(det.scores(), planted.n_inliers,
                        planted.n_outliers), 0.8);
}

TEST(Xgbod, RejectsLabelMismatch) {
  Matrix x(5, 2);
  XgbodDetector det;
  EXPECT_THROW(det.fit(x, std::vector<double>{1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace nurd::outlier
