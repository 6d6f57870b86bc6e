// Regression tree fit to per-sample (gradient, Hessian) pairs — the weak
// learner of the boosting engine. Split gain and leaf values follow the
// XGBoost formulation (Chen & Guestrin 2016):
//   leaf value  w* = −G / (H + λ)
//   split gain  ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ
//
// One node recursion grows the tree. Each node owns a contiguous segment of
// one per-fit row array; a split stably partitions its segment into the left
// rows, then the right rows, through one reused scratch buffer, so every node
// sees its rows in the caller's order and no node allocates a row list. The
// split's test (bin code or threshold) runs once per row into a per-row
// routing byte, and every stable partition of the split reads that byte with
// no data-dependent branch. Only the split finder differs between the two
// backends, and fit()'s binner argument selects one:
//   * exact greedy (null binner) — scans every distinct-value boundary of
//     each feature in that feature's presorted order (XGBoost's pre-sorted
//     column block, Chen & Guestrin 2016 §4.1), four features at a time
//     through the kernel layer's split_scan4. presort() sorts the rows
//     once per feature, and each split stably partitions every feature's
//     order along with the rows, so no node sorts: O(d · n) per tree level
//     after one O(d · n log n) presort, which a boosting fit shares across
//     its rounds. A split whose children are at max_depth partitions only
//     the rows, since leaves never scan. Best for tiny fits;
//   * histogram (a FeatureBinner, LightGBM-style) — accumulates per-bin
//     (G, H) sums per node and scans bin boundaries, four features at a time
//     through the kernel layer's hist_split4; O(d · n) per tree level, with
//     the sibling-subtraction trick (child histogram = parent − other child)
//     halving construction cost.
// A fit runs serially on its calling thread: parallel work spans jobs and
// executor lanes, never one tree's features.
// Between adjacent distinct values v < v', both place the threshold at the
// midpoint, or at v when the midpoint rounds onto v' or overflows.
// A leaf knows its rows, so fit() can hand back every fitted row's leaf value
// (XGBoost's prediction cache): the caller's training scores then need no
// predict() sweep. That value equals predict() on the row bit for bit on both
// backends, since each split routes a row exactly as predict() does (see
// fit()).
// Both backends are deterministic: identical inputs produce a bit-identical
// tree regardless of thread count.
//
// A fitted tree is a flat array of 16-byte nodes {v, feature, left}, root
// first. A leaf has feature −1 and its value in v; an internal node keeps its
// threshold in v, and its children sit side by side at left and left + 1, so
// predict() steps to left + !(x[feature] <= v): a NaN feature value goes
// right. The grower writes this layout as it recurses, into one reservation
// per fit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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
/// quantiles of the training rows, at the thresholds the exact scan places
/// between adjacent distinct values, so that with fewer distinct values than
/// bins the candidate split set is identical to exact greedy's. Every tree
/// of a fit indexes its row subset into the same bins, so no tree re-sorts or
/// re-bins.
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
  /// Grows a tree on the sample subset `rows` of `x` from per-sample
  /// gradients and Hessians. Every row must index into `x`. A null `binner`
  /// selects exact greedy, which scans `presorted` — presort(x, rows), or
  /// computed here when empty; otherwise splits come from `binner`'s
  /// histograms, it must cover all rows of `x`, and `presorted` must be
  /// empty.
  ///
  /// A non-empty `leaf_value_of_row` (one slot per row of `x`) receives, at
  /// each fitted row, the value of the leaf the row lands in; other slots are
  /// left alone. It equals predict(x.row(r)) bit for bit. Exact greedy routes
  /// by the same `x ≤ threshold` test as predict(). The histogram backend
  /// routes by `bin ≤ b`, where bin = the index of the first edge ≥ x; the
  /// edges ascend, so bin ≤ b ⟺ x ≤ edge(f, b), the threshold predict()
  /// reads. That holds for any x, so rows spliced in by
  /// FeatureBinner::insert_rows against frozen edges agree as well.
  void fit(const Matrix& x, const FeatureBinner* binner,
           std::span<const double> grad, std::span<const double> hess,
           std::span<const std::size_t> rows, const TreeParams& params,
           std::span<const std::size_t> presorted = {},
           std::span<double> leaf_value_of_row = {});

  /// Exact greedy's per-feature orders of `rows`, feature-major
  /// (x.cols() × rows.size()): feature f's order is feature f−1's (feature
  /// 0's: `rows`) stably sorted by x(·, f), so it is lexicographic in
  /// (x_f, x_{f−1}, …, x_0, position in `rows`). They depend only on `x`
  /// and `rows`, so one presort serves every tree fitted on them.
  static std::vector<std::size_t> presort(const Matrix& x,
                                          std::span<const std::size_t> rows);

  /// Leaf value for a single feature row, which must be at least as wide as
  /// the fitted matrix (the caller checks; see GradientBoosting). Defined
  /// here so that GradientBoosting's tree-major block loop inlines it.
  double predict(std::span<const double> row) const {
    if (nodes_.empty()) return 0.0;
    const Node* n = nodes_.data();
    while (n->feature >= 0) {
      n = nodes_.data() + n->left + !(row[n->feature] <= n->v);
    }
    return n->v;
  }

  /// Number of nodes (internal + leaves); 0 before fit.
  std::size_t node_count() const { return nodes_.size(); }

  /// Number of leaves.
  std::size_t leaf_count() const;

  /// Depth of the deepest leaf (root = depth 0); 0 for a stump/empty tree.
  int depth() const;

 private:
  struct Node {
    double v = 0.0;             // leaf value, or the split threshold
    std::int32_t feature = -1;  // split feature; −1 marks a leaf
    std::int32_t left = 0;      // left child; the right one is left + 1
  };
  static_assert(sizeof(Node) == 16);

  struct Grower;  // per-fit node recursion (tree.cpp)

  std::vector<Node> nodes_;
};

}  // namespace nurd::ml
