// Fixed-width histogram over a scalar sample. Backs the HBOS detector and
// the Figure-1 latency-distribution bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace nurd {

/// Equal-width histogram with optional Laplace-style smoothing for density
/// queries on empty bins.
class Histogram {
 public:
  /// Builds a histogram with `bins` equal-width bins spanning [min, max] of
  /// the data, which must be non-empty and finite. Degenerate (constant) data
  /// collapses to a single bin. When `codes` is non-empty it must have
  /// `values.size()` entries and receives each value's bin, so
  /// `codes[i] == bin_of(values[i])`.
  Histogram(std::span<const double> values, std::size_t bins,
            std::span<std::uint32_t> codes = {});

  std::size_t bin_count() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Count in bin b.
  std::size_t count(std::size_t b) const { return counts_[b]; }

  /// The bin index a value falls into (values outside the range clamp to the
  /// first/last bin).
  std::size_t bin_of(double value) const;

  /// Normalized density of bin b: count / (n · width), floored at `epsilon`
  /// so log-densities stay finite.
  double bin_density(std::size_t b, double epsilon = 1e-12) const;

  /// Density at `value`: bin_density(bin_of(value), epsilon).
  double density(double value, double epsilon = 1e-12) const {
    return bin_density(bin_of(value), epsilon);
  }

  /// Renders an ASCII bar chart (one row per bin) — used by the Figure-1
  /// bench to show latency distributions in the terminal.
  std::string ascii(std::size_t max_width = 60) const;

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
  double width_ = 1.0;
  std::size_t n_ = 0;
  std::vector<std::size_t> counts_;
};

}  // namespace nurd
