#include "ml/tree.h"

#include <algorithm>
#include <limits>

#include "common/aligned.h"
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

/// Gain of splitting a node with sums (g_total, h_total) into a left child
/// with sums (g_left, h_left) and the rest; −inf when either child's Hessian
/// sum is below min_child_weight.
double split_gain(double parent_obj, double g_total, double h_total,
                  double g_left, double h_left, const TreeParams& params) {
  const double g_right = g_total - g_left;
  const double h_right = h_total - h_left;
  if (h_left < params.min_child_weight || h_right < params.min_child_weight) {
    return -std::numeric_limits<double>::infinity();
  }
  return parent_obj - leaf_objective(g_left, h_left, params.lambda) -
         leaf_objective(g_right, h_right, params.lambda);
}

/// Split threshold between adjacent distinct values v < v_next, shared by
/// the exact scan and the binner's edges: the midpoint, unless it rounds onto
/// v_next (adjacent doubles) or overflows (values near ±DBL_MAX), in which
/// case v. Either way x <= threshold sends v left and v_next right.
double split_threshold(double v, double v_next) {
  const double mid = 0.5 * (v + v_next);
  return mid >= v && mid < v_next ? mid : v;
}

/// Bin = index of the first edge ≥ value, so x ≤ edge(b) ⟺ bin ≤ b.
std::uint16_t bin_of(const std::vector<double>& edges, double value) {
  return static_cast<std::uint16_t>(
      std::lower_bound(edges.begin(), edges.end(), value) - edges.begin());
}

/// Work is fanned out over the pool only when it dwarfs task overhead.
constexpr std::size_t kParallelWorkCutoff = 8192;

/// Quantile-sketch edges for one sorted value array: greedy bin packing at
/// ~n/max_bins rows per bin, cutting only between distinct values. With at
/// most `max_bins` distinct values the target is 0, so every boundary gets an
/// edge and the candidate set is identical to exact greedy's; packing there
/// would starve low-count values (e.g. a rare binary indicator) of theirs.
std::vector<double> quantile_edges(const std::vector<double>& sorted,
                                   int max_bins) {
  std::vector<double> edges;
  const std::size_t n = sorted.size();
  if (n < 2) return edges;

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    distinct += sorted[i] != sorted[i - 1] ? 1 : 0;
  }

  const double target =
      distinct <= static_cast<std::size_t>(max_bins)
          ? 0.0
          : static_cast<double>(n) / static_cast<double>(max_bins);
  const auto max_edges = static_cast<std::size_t>(max_bins - 1);
  double acc = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && sorted[j] == sorted[i]) ++j;
    acc += static_cast<double>(j - i);
    if (j < n && edges.size() < max_edges && acc >= target) {
      edges.push_back(split_threshold(sorted[i], sorted[j]));
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

    auto* out = bins_.data() + f * n_rows_;
    for (std::size_t r = 0; r < n_rows_; ++r) {
      out[r] = bin_of(edges_[f], col[r]);
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
    const auto col = x.col_view(f);
    std::size_t old_r = 0;
    std::size_t next = 0;
    for (std::size_t r = 0; r < n_new; ++r) {
      if (next < inserted.size() && inserted[next] == r) {
        dst[r] = bin_of(edges_[f], col[r]);
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
    auto* out = bins_.data() + f * n_rows_;
    for (const auto r : changed) {
      NURD_CHECK(r < n_rows_, "rebin_rows row out of range");
      out[r] = bin_of(edges_[f], x(r, f));
    }
  }
}

// Per-fit state of the one node recursion. Each node owns the contiguous
// segment [begin, end) of `rows`. A split stably partitions its segment into
// the left rows, then the right rows, both in node order, so every node sees
// its rows in the order of the caller's `rows`: the order pair_sum_indexed and
// hist_accumulate sum in and the exact scan's chained stable sorts start from.
// Only the split finder differs between the backends.
struct RegressionTree::Grower {
  std::vector<Node>& nodes;
  const Matrix& x;
  const FeatureBinner* binner;  // null: exact greedy
  std::span<const double> grad;
  std::span<const double> hess;
  const TreeParams& params;
  std::vector<std::size_t> rows;     // node segments
  std::vector<std::size_t> scratch;  // exact sort buffer; partition buffer
  // Histogram backend: offset[f]*kHistBinStride locates feature f's bins in
  // a flat aligned array of kernel::kHistBinStride slots per bin — (G, H,
  // count, pad), one AVX2 vector each; back() is the total bin count.
  std::vector<std::size_t> offset;

  std::int32_t grow(std::size_t begin, std::size_t end, int depth,
                    AlignedVector<double>&& hist) {
    const std::size_t n = end - begin;
    double g_total = 0.0, h_total = 0.0;
    kernel::ops().pair_sum_indexed(grad.data(), hess.data(),
                                   rows.data() + begin, n, &g_total, &h_total);

    const auto make_leaf = [&]() -> std::int32_t {
      nodes.push_back({.value = -g_total / (h_total + params.lambda),
                       .depth = depth});
      return static_cast<std::int32_t>(nodes.size() - 1);
    };

    if (depth >= params.max_depth || n < 2) return make_leaf();

    SplitCandidate best;
    if (binner == nullptr) {
      best = exact_split(begin, end, g_total, h_total);
    } else {
      if (hist.empty()) hist = histogram(begin, end);
      best = hist_split(hist, n, g_total, h_total);
    }
    if (best.gain <= params.gamma) return make_leaf();

    const std::size_t mid = partition(begin, end, best);
    if (mid == begin || mid == end) return make_leaf();  // only NaN does this

    // Reserve this node's slot before recursing so children land after it.
    nodes.push_back({.is_leaf = false,
                     .feature = best.feature,
                     .threshold = best.threshold,
                     .depth = depth});
    const std::size_t self = nodes.size() - 1;

    AlignedVector<double> left_hist, right_hist;
    if (binner != nullptr && depth + 1 < params.max_depth) {
      // Sibling subtraction: accumulate only the smaller child; the larger
      // child's histogram is parent − smaller, reusing the parent's storage.
      const bool left_small = mid - begin <= end - mid;
      AlignedVector<double> small_hist =
          left_small ? histogram(begin, mid) : histogram(mid, end);
      kernel::ops().hist_subtract(hist.data(), small_hist.data(),
                                  hist.size());
      left_hist = std::move(left_small ? small_hist : hist);
      right_hist = std::move(left_small ? hist : small_hist);
    }
    hist.clear();
    hist.shrink_to_fit();

    const auto left = grow(begin, mid, depth + 1, std::move(left_hist));
    const auto right = grow(mid, end, depth + 1, std::move(right_hist));
    nodes[self].left = left;
    nodes[self].right = right;
    return static_cast<std::int32_t>(self);
  }

  // Exact greedy: every distinct-value boundary of every feature. The sorts
  // are chained (feature f's starts from feature f−1's order), which fixes
  // the prefix-sum order and so the tie-break between equal-gain candidates.
  SplitCandidate exact_split(std::size_t begin, std::size_t end,
                             double g_total, double h_total) {
    const auto sorted = std::span(scratch).first(end - begin);
    std::copy(rows.data() + begin, rows.data() + end, sorted.begin());
    const double parent_obj = leaf_objective(g_total, h_total, params.lambda);
    SplitCandidate best;
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
        const double gain =
            split_gain(parent_obj, g_total, h_total, g_left, h_left, params);
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = f;
          best.threshold = split_threshold(v, v_next);
        }
      }
    }
    return best;
  }

  // Histogram: every bin boundary of every feature, off the node's
  // (G, H, count) histogram.
  SplitCandidate hist_split(const AlignedVector<double>& hist, std::size_t n,
                            double g_total, double h_total) const {
    const double parent_obj = leaf_objective(g_total, h_total, params.lambda);
    const double n_node = static_cast<double>(n);
    SplitCandidate best;
    for (std::size_t f = 0; f < binner->cols(); ++f) {
      const std::size_t nb = binner->bin_count(f);
      if (nb < 2) continue;  // constant feature
      const double* bins = hist.data() + offset[f] * kernel::kHistBinStride;
      double g_left = 0.0, h_left = 0.0, n_left = 0.0;
      for (std::size_t b = 0; b + 1 < nb; ++b) {
        g_left += bins[b * kernel::kHistBinStride];
        h_left += bins[b * kernel::kHistBinStride + 1];
        n_left += bins[b * kernel::kHistBinStride + 2];
        if (n_left == 0.0) continue;  // empty prefix: same as no split
        if (n_left == n_node) break;  // empty suffix: no more candidates
        const double gain =
            split_gain(parent_obj, g_total, h_total, g_left, h_left, params);
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = f;
          best.threshold = binner->edge(f, b);
          best.bin = b;
        }
      }
    }
    return best;
  }

  // The (G, H, count) histogram of a segment for every feature, fanning
  // features out over the shared pool when the segment is large. Each
  // feature writes a disjoint range and accumulates in row order through the
  // kernel layer, so the result is bit-identical for any pool size AND any
  // backend (per-bin adds are serial in row order; see kernel.h).
  AlignedVector<double> histogram(std::size_t begin, std::size_t end) const {
    const std::size_t d = binner->cols();
    AlignedVector<double> hist(offset.back() * kernel::kHistBinStride, 0.0);
    const auto accumulate_feature = [&](std::size_t f) {
      kernel::ops().hist_accumulate(
          hist.data() + offset[f] * kernel::kHistBinStride,
          binner->bin_column(f), rows.data() + begin, end - begin,
          grad.data(), hess.data());
    };
    if ((end - begin) * d >= kParallelWorkCutoff) {
      ThreadPool::global().parallel_for(d, accumulate_feature);
    } else {
      for (std::size_t f = 0; f < d; ++f) accumulate_feature(f);
    }
    return hist;
  }

  // Stable partition of [begin, end): left rows move up in order, right rows
  // go through `scratch` and land after them in order. The histogram backend
  // routes by bin code, the exact backend by threshold.
  std::size_t partition(std::size_t begin, std::size_t end,
                        const SplitCandidate& split) {
    std::size_t left = begin, right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = rows[i];
      const bool goes_left =
          binner != nullptr ? binner->bin(split.feature, r) <= split.bin
                            : x(r, split.feature) <= split.threshold;
      (goes_left ? rows[left++] : scratch[right++]) = r;
    }
    std::copy(scratch.data(), scratch.data() + right, rows.data() + left);
    return left;
  }
};

void RegressionTree::fit(const Matrix& x, const FeatureBinner* binner,
                         std::span<const double> grad,
                         std::span<const double> hess,
                         std::span<const std::size_t> rows,
                         const TreeParams& params) {
  NURD_CHECK(grad.size() == x.rows() && hess.size() == x.rows(),
             "grad/hess length must match row count");
  NURD_CHECK(!rows.empty(), "cannot fit a tree on zero rows");
  NURD_CHECK(binner == nullptr ||
                 (binner->rows() == x.rows() && binner->cols() == x.cols()),
             "binner shape must match the feature matrix");
  nodes_.clear();
  Grower grower{.nodes = nodes_,
                .x = x,
                .binner = binner,
                .grad = grad,
                .hess = hess,
                .params = params,
                .rows = {rows.begin(), rows.end()},
                .scratch = std::vector<std::size_t>(rows.size()),
                .offset = {}};
  if (binner != nullptr) {
    grower.offset.resize(binner->cols() + 1, 0);
    for (std::size_t f = 0; f < binner->cols(); ++f) {
      grower.offset[f + 1] = grower.offset[f] + binner->bin_count(f);
    }
  }
  grower.grow(0, rows.size(), 0, {});
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
