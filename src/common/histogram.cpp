#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/check.h"
#include "kernel/kernel.h"

namespace nurd {

Histogram::Histogram(std::span<const double> values, std::size_t bins,
                     std::span<std::uint32_t> codes) {
  NURD_CHECK(!values.empty(), "histogram of empty sample");
  NURD_CHECK(bins > 0, "histogram needs at least one bin");
  NURD_CHECK(codes.empty() || codes.size() == values.size(),
             "histogram code buffer must match the sample size");
  // One scan for the range and finiteness: the first minimum and the last
  // maximum, as std::minmax_element picks them.
  double mn = values[0];
  double mx = values[0];
  bool finite = true;
  for (const double v : values) {
    finite &= std::isfinite(v);
    if (v < mn) mn = v;
    if (v >= mx) mx = v;
  }
  NURD_CHECK(finite, "histogram of a non-finite sample");
  lo_ = mn;
  hi_ = mx;
  n_ = values.size();
  if (hi_ - lo_ <= 0.0) {
    counts_.assign(1, n_);
    width_ = 1.0;
    hi_ = lo_ + 1.0;
    std::fill(codes.begin(), codes.end(), 0u);
    return;
  }
  counts_.assign(bins, 0);
  width_ = (hi_ - lo_) / static_cast<double>(bins);
  // One kernel bin_index call over the whole block, then count.
  // kernel::bin_index implements exactly bin_of's clamp-and-truncate, so
  // build-time and query-time binning cannot diverge.
  std::vector<std::uint32_t> own;
  if (codes.empty()) {
    own.resize(values.size());
    codes = own;
  }
  kernel::ops().bin_index(values.data(), values.size(), lo_, hi_, width_,
                          counts_.size(), codes.data());
  for (const auto b : codes) ++counts_[b];
}

std::size_t Histogram::bin_of(double value) const {
  if (value <= lo_) return 0;
  if (value >= hi_) return counts_.size() - 1;
  const auto b = static_cast<std::size_t>((value - lo_) / width_);
  return std::min(b, counts_.size() - 1);
}

double Histogram::bin_density(std::size_t b, double epsilon) const {
  const double d = static_cast<double>(counts_[b]) /
                   (static_cast<double>(n_) * width_);
  return std::max(d, epsilon);
}

std::string Histogram::ascii(std::size_t max_width) const {
  const std::size_t peak = *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double left = lo_ + width_ * static_cast<double>(b);
    const std::size_t bar =
        peak == 0 ? 0 : counts_[b] * max_width / peak;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << "[" << left << ", " << left + width_ << ") "
       << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  return os.str();
}

}  // namespace nurd
