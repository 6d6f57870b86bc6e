#include "ml/tree.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "kernel/kernel.h"

namespace nurd::ml {

namespace {

struct SplitCandidate {
  double gain = -std::numeric_limits<double>::infinity();
  std::size_t feature = 0;
  double threshold = 0.0;
  std::size_t bin = 0;  // histogram backend: split after this bin
};

double leaf_objective(double g, double h, double lambda) {
  return -0.5 * g * g / (h + lambda);
}

/// Work is fanned out over the pool only when it dwarfs task overhead.
constexpr std::size_t kParallelWorkCutoff = 8192;

/// Quantile-sketch edges for one sorted value array: greedy bin packing at
/// ~n/max_bins rows per bin, cutting only between distinct values. With at
/// most `max_bins` distinct values every boundary gets an edge, making the
/// candidate set identical to exact greedy's.
std::vector<double> quantile_edges(const std::vector<double>& sorted,
                                   int max_bins) {
  std::vector<double> edges;
  const std::size_t n = sorted.size();
  if (n < 2) return edges;

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    distinct += sorted[i] != sorted[i - 1] ? 1 : 0;
  }

  // Every distinct value fits in its own bin: cut at every boundary so the
  // candidate set matches exact greedy's. This must not fall through to the
  // frequency-weighted pass below, which would starve low-count values
  // (e.g. a rare binary indicator) of their edge entirely.
  if (distinct <= static_cast<std::size_t>(max_bins)) {
    for (std::size_t i = 1; i < n; ++i) {
      if (sorted[i] != sorted[i - 1]) {
        edges.push_back(0.5 * (sorted[i - 1] + sorted[i]));
      }
    }
    return edges;
  }

  // More distinct values than bins: greedy packing at ~n/max_bins rows per
  // bin, cutting only between distinct values.
  const double target =
      static_cast<double>(n) / static_cast<double>(max_bins);
  const auto max_edges = static_cast<std::size_t>(max_bins - 1);
  double acc = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && sorted[j] == sorted[i]) ++j;
    acc += static_cast<double>(j - i);
    if (j < n && edges.size() < max_edges && acc >= target) {
      edges.push_back(0.5 * (sorted[i] + sorted[j]));
      acc = 0.0;
    }
    i = j;
  }
  return edges;
}

}  // namespace

FeatureBinner::FeatureBinner(const Matrix& x, int max_bins) {
  NURD_CHECK(max_bins >= 2 && max_bins <= 4096,
             "max_bins must be in [2, 4096]");
  NURD_CHECK(x.rows() > 0, "cannot bin from zero rows");
  n_rows_ = x.rows();
  n_cols_ = x.cols();
  edges_.resize(n_cols_);
  bins_.resize(n_cols_ * n_rows_);

  const auto bin_feature = [&](std::size_t f) {
    const auto col = x.col_view(f);
    std::vector<double> vals(col.begin(), col.end());
    std::sort(vals.begin(), vals.end());
    edges_[f] = quantile_edges(vals, max_bins);

    const auto& edges = edges_[f];
    auto* out = bins_.data() + f * n_rows_;
    for (std::size_t r = 0; r < n_rows_; ++r) {
      // Bin = index of the first edge ≥ value, so x ≤ edge(b) ⟺ bin ≤ b.
      const auto it =
          std::lower_bound(edges.begin(), edges.end(), col[r]);
      out[r] = static_cast<std::uint16_t>(it - edges.begin());
    }
  };

  if (n_rows_ * n_cols_ >= kParallelWorkCutoff) {
    ThreadPool::global().parallel_for(n_cols_, bin_feature);
  } else {
    for (std::size_t f = 0; f < n_cols_; ++f) bin_feature(f);
  }
}

void FeatureBinner::insert_rows(const Matrix& x,
                                std::span<const std::size_t> inserted) {
  NURD_CHECK(n_cols_ == x.cols(), "binner width must match the matrix");
  NURD_CHECK(x.rows() == n_rows_ + inserted.size(),
             "inserted count must account for every new row");
  const std::size_t n_new = x.rows();
  if (inserted.empty()) return;
  // Validate the splice map before the merge-copy walks the old slices: an
  // unsorted or duplicated position would overrun them.
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    NURD_CHECK(inserted[i] < n_new && (i == 0 || inserted[i] > inserted[i - 1]),
               "inserted positions must be strictly ascending and in range");
  }

  std::vector<std::uint16_t> grown(n_cols_ * n_new);
  for (std::size_t f = 0; f < n_cols_; ++f) {
    const auto* src = bins_.data() + f * n_rows_;
    auto* dst = grown.data() + f * n_new;
    const auto& edges = edges_[f];
    const auto col = x.col_view(f);
    std::size_t old_r = 0;
    std::size_t next = 0;
    for (std::size_t r = 0; r < n_new; ++r) {
      if (next < inserted.size() && inserted[next] == r) {
        const auto it = std::lower_bound(edges.begin(), edges.end(), col[r]);
        dst[r] = static_cast<std::uint16_t>(it - edges.begin());
        ++next;
      } else {
        dst[r] = src[old_r++];
      }
    }
  }
  bins_ = std::move(grown);
  n_rows_ = n_new;
}

void FeatureBinner::rebin_rows(const Matrix& x,
                               std::span<const std::size_t> changed) {
  NURD_CHECK(n_cols_ == x.cols(), "binner width must match the matrix");
  for (std::size_t f = 0; f < n_cols_; ++f) {
    const auto& edges = edges_[f];
    auto* out = bins_.data() + f * n_rows_;
    for (const auto r : changed) {
      NURD_CHECK(r < n_rows_, "rebin_rows row out of range");
      const auto it = std::lower_bound(edges.begin(), edges.end(), x(r, f));
      out[r] = static_cast<std::uint16_t>(it - edges.begin());
    }
  }
}

// Histogram-backend fit state. Histograms are flat aligned double arrays
// with kernel::kHistBinStride slots per bin — (G, H, count, pad), one AVX2
// vector each — accumulated and sibling-subtracted through the kernel
// dispatch layer. offset[f]*kHistBinStride locates feature f's bins.
struct RegressionTree::HistContext {
  const FeatureBinner& binner;
  std::span<const double> grad;
  std::span<const double> hess;
  const TreeParams& params;
  std::vector<std::size_t> offset;  // per-feature bin offset; back() = total
};

std::int32_t RegressionTree::build_hist(HistContext& ctx,
                                        std::vector<std::size_t>& rows,
                                        int depth,
                                        AlignedVector<double>&& hist) {
  const auto& params = ctx.params;
  double g_total = 0.0, h_total = 0.0;
  kernel::ops().pair_sum_indexed(ctx.grad.data(), ctx.hess.data(),
                                 rows.data(), rows.size(), &g_total,
                                 &h_total);

  const auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.is_leaf = true;
    leaf.value = -g_total / (h_total + params.lambda);
    leaf.depth = depth;
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (depth >= params.max_depth || rows.size() < 2) return make_leaf();

  const FeatureBinner& binner = ctx.binner;
  const std::size_t d = binner.cols();

  if (hist.empty()) hist = compute_histogram(ctx, rows);

  const double parent_obj = leaf_objective(g_total, h_total, params.lambda);
  const double n_node = static_cast<double>(rows.size());
  SplitCandidate best;

  for (std::size_t f = 0; f < d; ++f) {
    const std::size_t nb = binner.bin_count(f);
    if (nb < 2) continue;  // constant feature
    const double* bins = hist.data() + ctx.offset[f] * kernel::kHistBinStride;
    double g_left = 0.0, h_left = 0.0, n_left = 0.0;
    for (std::size_t b = 0; b + 1 < nb; ++b) {
      g_left += bins[b * kernel::kHistBinStride];
      h_left += bins[b * kernel::kHistBinStride + 1];
      n_left += bins[b * kernel::kHistBinStride + 2];
      if (n_left == 0.0) continue;        // empty prefix: same as no split
      if (n_left == n_node) break;        // empty suffix: no more candidates
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      if (h_left < params.min_child_weight ||
          h_right < params.min_child_weight) {
        continue;
      }
      const double gain = parent_obj -
                          leaf_objective(g_left, h_left, params.lambda) -
                          leaf_objective(g_right, h_right, params.lambda);
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = f;
        best.threshold = binner.edge(f, b);
        best.bin = b;
      }
    }
  }

  if (best.gain <= params.gamma) return make_leaf();

  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (const auto r : rows) {
    (binner.bin(best.feature, r) <= best.bin ? left_rows : right_rows)
        .push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();

  // Reserve this node's slot before recursing so children land after it.
  Node node;
  node.is_leaf = false;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.depth = depth;
  nodes_.push_back(node);
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);

  AlignedVector<double> left_hist, right_hist;
  if (depth + 1 < params.max_depth) {
    // Sibling subtraction: accumulate only the smaller child; the larger
    // child's histogram is parent − smaller, reusing the parent's storage.
    const bool left_small = left_rows.size() <= right_rows.size();
    auto& small_rows = left_small ? left_rows : right_rows;
    AlignedVector<double> small_hist = compute_histogram(ctx, small_rows);
    kernel::ops().hist_subtract(hist.data(), small_hist.data(), hist.size());
    if (left_small) {
      left_hist = std::move(small_hist);
      right_hist = std::move(hist);
    } else {
      right_hist = std::move(small_hist);
      left_hist = std::move(hist);
    }
  }
  hist.clear();
  hist.shrink_to_fit();

  const auto left = build_hist(ctx, left_rows, depth + 1,
                               std::move(left_hist));
  const auto right = build_hist(ctx, right_rows, depth + 1,
                                std::move(right_hist));
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

// Accumulates the (G, H, count) histogram of `rows` for every feature,
// fanning features out over the shared pool when the node is large. Each
// feature writes a disjoint range and accumulates in row order through the
// kernel layer, so the result is bit-identical for any pool size AND any
// backend (per-bin adds are serial in row order; see kernel.h).
AlignedVector<double> RegressionTree::compute_histogram(
    const HistContext& ctx, const std::vector<std::size_t>& rows) {
  const FeatureBinner& binner = ctx.binner;
  const std::size_t d = binner.cols();
  AlignedVector<double> hist(ctx.offset.back() * kernel::kHistBinStride, 0.0);

  const auto& kops = kernel::ops();
  const auto accumulate_feature = [&](std::size_t f) {
    double* bins = hist.data() + ctx.offset[f] * kernel::kHistBinStride;
    kops.hist_accumulate(bins, binner.bin_column(f), rows.data(), rows.size(),
                         ctx.grad.data(), ctx.hess.data());
  };

  if (rows.size() * d >= kParallelWorkCutoff) {
    ThreadPool::global().parallel_for(d, accumulate_feature);
  } else {
    for (std::size_t f = 0; f < d; ++f) accumulate_feature(f);
  }
  return hist;
}

void RegressionTree::fit(const Matrix& x, std::span<const double> grad,
                         std::span<const double> hess,
                         std::span<const std::size_t> rows,
                         const TreeParams& params) {
  NURD_CHECK(grad.size() == x.rows() && hess.size() == x.rows(),
             "grad/hess length must match row count");
  NURD_CHECK(!rows.empty(), "cannot fit a tree on zero rows");
  nodes_.clear();
  std::vector<std::size_t> work(rows.begin(), rows.end());
  build(x, grad, hess, work, 0, params);
}

void RegressionTree::fit(const Matrix& x, const FeatureBinner& binner,
                         std::span<const double> grad,
                         std::span<const double> hess,
                         std::span<const std::size_t> rows,
                         const TreeParams& params) {
  NURD_CHECK(grad.size() == x.rows() && hess.size() == x.rows(),
             "grad/hess length must match row count");
  NURD_CHECK(!rows.empty(), "cannot fit a tree on zero rows");
  NURD_CHECK(binner.rows() == x.rows() && binner.cols() == x.cols(),
             "binner shape must match the feature matrix");
  nodes_.clear();
  std::vector<std::size_t> work(rows.begin(), rows.end());

  HistContext ctx{binner, grad, hess, params, {}};
  ctx.offset.resize(binner.cols() + 1, 0);
  for (std::size_t f = 0; f < binner.cols(); ++f) {
    ctx.offset[f + 1] = ctx.offset[f] + binner.bin_count(f);
  }
  build_hist(ctx, work, 0, {});
}

std::int32_t RegressionTree::build(const Matrix& x,
                                   std::span<const double> grad,
                                   std::span<const double> hess,
                                   std::vector<std::size_t>& rows, int depth,
                                   const TreeParams& params) {
  double g_total = 0.0, h_total = 0.0;
  kernel::ops().pair_sum_indexed(grad.data(), hess.data(), rows.data(),
                                 rows.size(), &g_total, &h_total);

  const auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.is_leaf = true;
    leaf.value = -g_total / (h_total + params.lambda);
    leaf.depth = depth;
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (depth >= params.max_depth || rows.size() < 2) return make_leaf();

  const double parent_obj = leaf_objective(g_total, h_total, params.lambda);
  SplitCandidate best;

  std::vector<std::size_t> sorted = rows;
  for (std::size_t f = 0; f < x.cols(); ++f) {
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](std::size_t a, std::size_t b) {
                       return x(a, f) < x(b, f);
                     });
    double g_left = 0.0, h_left = 0.0;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      g_left += grad[sorted[i]];
      h_left += hess[sorted[i]];
      const double v = x(sorted[i], f);
      const double v_next = x(sorted[i + 1], f);
      if (v_next <= v) continue;  // can't split between equal values
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      if (h_left < params.min_child_weight ||
          h_right < params.min_child_weight) {
        continue;
      }
      const double gain = parent_obj -
                          leaf_objective(g_left, h_left, params.lambda) -
                          leaf_objective(g_right, h_right, params.lambda);
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = f;
        best.threshold = 0.5 * (v + v_next);
      }
    }
  }

  if (best.gain <= params.gamma) return make_leaf();

  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (auto r : rows) {
    (x(r, best.feature) <= best.threshold ? left_rows : right_rows)
        .push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();

  // Reserve this node's slot before recursing so children land after it.
  Node node;
  node.is_leaf = false;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.depth = depth;
  nodes_.push_back(node);
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const auto left = build(x, grad, hess, left_rows, depth + 1, params);
  const auto right = build(x, grad, hess, right_rows, depth + 1, params);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

double RegressionTree::predict(std::span<const double> row) const {
  if (nodes_.empty()) return 0.0;
  std::size_t i = 0;
  while (!nodes_[i].is_leaf) {
    const auto& n = nodes_[i];
    i = static_cast<std::size_t>(row[n.feature] <= n.threshold ? n.left
                                                               : n.right);
  }
  return nodes_[i].value;
}

std::size_t RegressionTree::leaf_count() const {
  std::size_t c = 0;
  for (const auto& n : nodes_) c += n.is_leaf ? 1 : 0;
  return c;
}

int RegressionTree::depth() const {
  int d = 0;
  for (const auto& n : nodes_) d = std::max(d, n.depth);
  return d;
}

}  // namespace nurd::ml
