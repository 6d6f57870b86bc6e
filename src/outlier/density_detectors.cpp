#include "outlier/density_detectors.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/histogram.h"
#include "common/knn.h"
#include "common/scaler.h"

namespace nurd::outlier {

void HbosDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 1, "HBOS needs data");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  scores_.assign(n, 0.0);
  // Bin each value once and take one log per bin: score[i] gains
  // −log(bin_density(code[i])), which is −log(density(x(i, f))) bit for bit.
  std::vector<double> column(n);
  std::vector<std::uint32_t> codes(n);
  std::vector<double> neg_log_density;
  for (std::size_t f = 0; f < d; ++f) {
    for (std::size_t i = 0; i < n; ++i) column[i] = x(i, f);
    const Histogram hist(column, bins_, codes);
    neg_log_density.resize(hist.bin_count());
    for (std::size_t b = 0; b < hist.bin_count(); ++b) {
      neg_log_density[b] = -std::log(hist.bin_density(b));
    }
    for (std::size_t i = 0; i < n; ++i) {
      scores_[i] += neg_log_density[codes[i]];
    }
  }
}

void SosDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 3, "SOS needs at least three points");
  StandardScaler scaler;
  const Matrix xs = scaler.fit_transform(x);
  const std::size_t n = xs.rows();
  const Matrix dist = pairwise_distances(xs);

  // Per-point bandwidth beta_i (=1/2σ²) via binary search so that the
  // affinity distribution has the requested perplexity.
  const double target_entropy = std::log2(std::min(
      perplexity_, static_cast<double>(n - 1)));
  Matrix binding(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double beta = 1.0, beta_lo = 0.0, beta_hi = 1e12;
    std::vector<double> aff(n, 0.0);
    for (int iter = 0; iter < 64; ++iter) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        aff[j] = std::exp(-dist(i, j) * dist(i, j) * beta);
        sum += aff[j];
      }
      if (sum <= 0.0) {
        beta_hi = beta;
        beta = 0.5 * (beta_lo + beta_hi);
        continue;
      }
      double entropy = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double p = aff[j] / sum;
        if (p > 1e-12) entropy -= p * std::log2(p);
      }
      if (std::abs(entropy - target_entropy) < 1e-5) break;
      if (entropy > target_entropy) {
        beta_lo = beta;
        beta = beta_hi >= 1e12 ? beta * 2.0 : 0.5 * (beta_lo + beta_hi);
      } else {
        beta_hi = beta;
        beta = 0.5 * (beta_lo + beta_hi);
      }
    }
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      aff[j] = std::exp(-dist(i, j) * dist(i, j) * beta);
      sum += aff[j];
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || sum <= 0.0) continue;
      binding(i, j) = aff[j] / sum;
    }
  }

  // Outlier probability: product over all other points of (1 − b_ji).
  scores_.assign(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    double log_p = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      log_p += std::log(std::clamp(1.0 - binding(j, i), 1e-12, 1.0));
    }
    scores_[i] = std::exp(log_p);
  }
}

}  // namespace nurd::outlier
