#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace nurd {

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double variance(std::span<const double> v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) { return std::sqrt(variance(v)); }

double percentile(std::span<const double> v, double p) {
  NURD_CHECK(!v.empty(), "percentile of empty span");
  NURD_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  if (v.size() == 1) return v[0];
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  // Only the order statistics at lo and hi are needed: select the lo-th, and
  // the (lo+1)-th is then the smallest of the tail nth_element leaves after it.
  std::vector<double> s(v.begin(), v.end());
  std::nth_element(s.begin(), s.begin() + lo, s.end());
  const double at_lo = s[lo];
  const double at_hi =
      hi == lo ? at_lo : *std::min_element(s.begin() + hi, s.end());
  return at_lo + (at_hi - at_lo) * frac;
}

double min_value(std::span<const double> v) {
  NURD_CHECK(!v.empty(), "min of empty span");
  return *std::min_element(v.begin(), v.end());
}

double max_value(std::span<const double> v) {
  NURD_CHECK(!v.empty(), "max of empty span");
  return *std::max_element(v.begin(), v.end());
}

double median(std::span<const double> v) { return percentile(v, 50.0); }

double pearson(std::span<const double> a, std::span<const double> b) {
  NURD_CHECK(a.size() == b.size(), "pearson inputs must be same length");
  if (a.size() < 2) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  if (da <= 0.0 || db <= 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

double sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

double normal_pdf(double x) {
  static const double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

std::vector<std::size_t> argsort(std::span<const double> v) {
  std::vector<std::size_t> idx(v.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return idx;
}

std::vector<double> minmax_normalize(std::span<const double> v) {
  std::vector<double> out(v.size(), 0.0);
  if (v.empty()) return out;
  const double lo = min_value(v);
  const double hi = max_value(v);
  if (hi - lo <= 0.0) return out;
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - lo) / (hi - lo);
  return out;
}

std::vector<double> zscore(std::span<const double> v) {
  std::vector<double> out(v.size(), 0.0);
  if (v.empty()) return out;
  const double m = mean(v);
  const double s = stddev(v);
  if (s <= 0.0) return out;
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - m) / s;
  return out;
}

}  // namespace nurd
