#include "outlier/ensemble_detectors.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/knn.h"
#include "common/scaler.h"
#include "common/stats.h"
#include "outlier/density_detectors.h"
#include "outlier/iforest.h"
#include "outlier/knn_detectors.h"

namespace nurd::outlier {

void LscpDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 3, "LSCP needs at least three points");
  const std::size_t n = x.rows();

  // Fit the base pool; z-score each detector's scores so they are comparable.
  std::vector<std::vector<double>> base;
  for (std::size_t k : params_.lof_ks) {
    LofDetector lof(k);
    lof.fit(x);
    base.push_back(zscore(lof.scores()));
  }
  for (std::size_t k : params_.knn_ks) {
    KnnDetector knn(k);
    knn.fit(x);
    base.push_back(zscore(knn.scores()));
  }
  NURD_CHECK(!base.empty(), "LSCP needs at least one base detector");

  // Pseudo ground truth: per-point mean of normalized base scores.
  std::vector<double> consensus(n, 0.0);
  for (const auto& s : base) {
    for (std::size_t i = 0; i < n; ++i) consensus[i] += s[i];
  }
  for (auto& c : consensus) c /= static_cast<double>(base.size());

  StandardScaler scaler;
  const Matrix xs = scaler.fit_transform(x);
  KnnIndex index(xs);
  const std::size_t region =
      std::min(params_.local_region, n - 1);

  scores_.assign(n, 0.0);
  std::vector<double> local_truth(region), local_scores(region);
  for (std::size_t i = 0; i < n; ++i) {
    const auto nbrs = index.neighbors_of(i, region);
    for (std::size_t r = 0; r < nbrs.size(); ++r) {
      local_truth[r] = consensus[nbrs[r].index];
    }
    // Select the detector most correlated with the consensus locally.
    double best_corr = -2.0;
    std::size_t best_d = 0;
    for (std::size_t dix = 0; dix < base.size(); ++dix) {
      for (std::size_t r = 0; r < nbrs.size(); ++r) {
        local_scores[r] = base[dix][nbrs[r].index];
      }
      const double corr =
          pearson(std::span(local_truth).first(nbrs.size()),
                  std::span(local_scores).first(nbrs.size()));
      if (corr > best_corr) {
        best_corr = corr;
        best_d = dix;
      }
    }
    scores_[i] = base[best_d][i];
  }
}

XgbodDetector::XgbodDetector(XgbodParams params) : params_(params) {}

void XgbodDetector::fit(const Matrix& x, std::span<const double> y) {
  NURD_CHECK(x.rows() == y.size(), "row/label count mismatch");
  NURD_CHECK(x.rows() >= 3, "XGBOD needs at least three points");
  const std::size_t n = x.rows();

  // Transformed outlier scores from a small unsupervised pool.
  std::vector<std::vector<double>> tos;
  {
    KnnDetector knn(params_.knn_k);
    knn.fit(x);
    tos.push_back(minmax_normalize(knn.scores()));
  }
  {
    LofDetector lof(params_.knn_k);
    lof.fit(x);
    tos.push_back(minmax_normalize(lof.scores()));
  }
  {
    HbosDetector hbos;
    hbos.fit(x);
    tos.push_back(minmax_normalize(hbos.scores()));
  }
  {
    IForestDetector iforest;
    iforest.fit(x);
    tos.push_back(minmax_normalize(iforest.scores()));
  }

  // Augmented design matrix: raw features + TOS columns.
  Matrix aug(n, x.cols() + tos.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto src = x.row(i);
    auto dst = aug.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
    for (std::size_t t = 0; t < tos.size(); ++t) {
      dst[x.cols() + t] = tos[t][i];
    }
  }

  auto clf = ml::GradientBoosting::classifier(params_.gbt);
  clf.fit(aug, y);
  scores_ = clf.predict(aug);
}

}  // namespace nurd::outlier
