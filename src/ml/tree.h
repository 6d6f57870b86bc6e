// Regression tree fit to per-sample (gradient, Hessian) pairs — the weak
// learner of the boosting engine. Split gain and leaf values follow the
// XGBoost formulation (Chen & Guestrin 2016):
//   leaf value  w* = −G / (H + λ)
//   split gain  ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ
//
// Two split-finding backends share that formulation; the fit() overload
// called selects one:
//   * exact greedy (no binner) — sorts the node's rows per feature and scans
//     every distinct-value boundary; O(d · n log n) per node, best for tiny
//     fits;
//   * histogram (a FeatureBinner, LightGBM-style) — accumulates per-bin
//     (G, H) sums per node and scans bin boundaries; O(d · n) per tree level,
//     with the sibling-subtraction trick (child histogram = parent − other
//     child) halving construction cost. Per-feature histogram builds fan out
//     over the shared ThreadPool.
// Both backends are deterministic: identical inputs produce a bit-identical
// tree regardless of thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/matrix.h"

namespace nurd::ml {

/// Tree growth hyperparameters.
struct TreeParams {
  int max_depth = 3;
  double min_child_weight = 1.0;  ///< minimum Hessian sum per child
  double lambda = 1.0;            ///< L2 regularization on leaf values
  double gamma = 0.0;             ///< minimum gain to split
  int max_bins = 64;              ///< histogram bins per feature (2..4096)
};

/// Quantile-sketch feature binning, built once per boosting fit and shared
/// by every tree of the ensemble. Bin edges are placed at (deduplicated)
/// quantiles of the training rows — midpoints between adjacent distinct
/// values, so that with fewer distinct values than bins the candidate split
/// set is identical to exact greedy's. Every tree of a fit indexes its row
/// subset into the same bins, so no tree re-sorts or re-bins.
class FeatureBinner {
 public:
  FeatureBinner() = default;

  /// Computes per-feature bin edges from every row of `x`, then bins them.
  /// `max_bins` must be in [2, 4096].
  FeatureBinner(const Matrix& x, int max_bins);

  /// Splices NEW rows in at the (strictly ascending) positions `inserted`
  /// of `x`, whose other rows are the previously binned ones in their old
  /// relative order. Old rows' bins are remapped in one pass; only inserted
  /// rows meet the FROZEN edges (no re-sorting; out-of-range values clamp
  /// into the boundary bins). This is how a warm-start fit follows an
  /// id-ordered training block, where a finished task lands mid-block.
  void insert_rows(const Matrix& x, std::span<const std::size_t> inserted);

  /// Re-bins the listed (already covered) rows against the frozen edges —
  /// the drifting-running-task path: a warm-start fit over a snapshot
  /// refreshes only the rows the trace delta reports as changed.
  void rebin_rows(const Matrix& x, std::span<const std::size_t> changed);

  std::size_t rows() const { return n_rows_; }
  std::size_t cols() const { return n_cols_; }

  /// Number of bins for feature `f` (1 for a constant feature).
  std::size_t bin_count(std::size_t f) const { return edges_[f].size() + 1; }

  /// Bin index of row `r` for feature `f`.
  std::uint16_t bin(std::size_t f, std::size_t r) const {
    return bins_[f * n_rows_ + r];
  }

  /// Feature `f`'s contiguous per-row bin slice (length rows()) — what the
  /// kernel layer's hist_accumulate primitive consumes.
  const std::uint16_t* bin_column(std::size_t f) const {
    return bins_.data() + f * n_rows_;
  }

  /// Split threshold after bin `b`: x ≤ edge(f, b) ⟺ bin(f, x) ≤ b.
  double edge(std::size_t f, std::size_t b) const { return edges_[f][b]; }

 private:
  std::size_t n_rows_ = 0;
  std::size_t n_cols_ = 0;
  std::vector<std::vector<double>> edges_;  ///< ascending, per feature
  std::vector<std::uint16_t> bins_;         ///< column-major [f·rows + r]
};

/// A fitted regression tree. Nodes are stored in a flat array; leaves carry
/// the Newton-step value −G/(H+λ).
class RegressionTree {
 public:
  /// Exact-greedy fit: grows a tree on the sample subset `rows` of `x`,
  /// using per-sample gradients and Hessians.
  void fit(const Matrix& x, std::span<const double> grad,
           std::span<const double> hess, std::span<const std::size_t> rows,
           const TreeParams& params);

  /// Histogram-backend fit reusing a binner built once per boosting fit.
  /// `binner` must cover all rows of `x`.
  void fit(const Matrix& x, const FeatureBinner& binner,
           std::span<const double> grad, std::span<const double> hess,
           std::span<const std::size_t> rows, const TreeParams& params);

  /// Leaf value for a single feature row.
  double predict(std::span<const double> row) const;

  /// Number of nodes (internal + leaves); 0 before fit.
  std::size_t node_count() const { return nodes_.size(); }

  /// Number of leaves.
  std::size_t leaf_count() const;

  /// Depth of the deepest leaf (root = depth 0); 0 for a stump/empty tree.
  int depth() const;

 private:
  struct Node {
    bool is_leaf = true;
    double value = 0.0;       // leaf value
    std::size_t feature = 0;  // split feature (internal nodes)
    double threshold = 0.0;   // go left if x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t depth = 0;
  };

  struct HistContext;  // histogram-backend fit state (tree.cpp)

  std::int32_t build(const Matrix& x, std::span<const double> grad,
                     std::span<const double> hess,
                     std::vector<std::size_t>& rows, int depth,
                     const TreeParams& params);

  std::int32_t build_hist(HistContext& ctx, std::vector<std::size_t>& rows,
                          int depth, AlignedVector<double>&& hist);

  static AlignedVector<double> compute_histogram(
      const HistContext& ctx, const std::vector<std::size_t>& rows);

  std::vector<Node> nodes_;
};

}  // namespace nurd::ml
