#include "ml/tree.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/aligned.h"
#include "common/check.h"
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

/// fit() and presort() read x(r, f) for every listed row.
void check_rows_in_range(const Matrix& x, std::span<const std::size_t> rows) {
  bool in_range = true;
  for (const auto r : rows) in_range &= r < x.rows();
  NURD_CHECK(in_range, "row index out of range of the feature matrix");
}

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

  for (std::size_t f = 0; f < n_cols_; ++f) {
    const auto col = x.col_view(f);
    std::vector<double> vals(col.begin(), col.end());
    std::sort(vals.begin(), vals.end());
    edges_[f] = quantile_edges(vals, max_bins);

    auto* out = bins_.data() + f * n_rows_;
    for (std::size_t r = 0; r < n_rows_; ++r) {
      out[r] = bin_of(edges_[f], col[r]);
    }
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

// Per-fit state of the one node recursion. Each node owns the contiguous
// segment [begin, end) of `rows`. A split stably partitions its segment into
// the left rows, then the right rows, both in node order, so every node sees
// its rows in the order of the caller's `rows`: the order pair_sum_indexed and
// hist_accumulate sum in. The exact backend also owns, per feature f, the
// segment [begin, end) of `sorted`'s f-th slice: the node's rows in presort
// order. A split partitions those slices by the same stable rule, so a node's
// slice is the presort order restricted to its rows — the order the chained
// stable sorts of presort() give that row set — and no node sorts. A split
// whose children sit at max_depth leaves the slices alone: leaves never scan.
// Only the split finder differs between the backends.
struct RegressionTree::Grower {
  std::vector<Node>& nodes;
  const kernel::KernelOps& kops;  // resolved once per fit, not per node
  const Matrix& x;
  const FeatureBinner* binner;  // null: exact greedy
  std::span<const double> grad;
  std::span<const double> hess;
  const TreeParams& params;
  // Empty, or one slot per row of x: make_leaf writes each leaf's value there.
  std::span<double> leaf_value_of_row;
  std::vector<std::size_t> rows;     // node segments
  std::vector<std::size_t> sorted;   // exact: per-feature orders, feature-major
  std::vector<std::size_t> scratch;  // partition buffer

  // Indexed by row id: 1 when the split being partitioned sends the row left.
  std::vector<std::uint8_t> left_of;
  // Histogram backend: offset[f]*kHistBinStride locates feature f's bins in
  // a flat aligned array of kernel::kHistBinStride slots per bin — (G, H,
  // count, pad), one AVX2 vector each; back() is the total bin count.
  std::vector<std::size_t> offset;

  // Grows the node at nodes[slot] from the segment [begin, end): a leaf
  // fills the slot; a split fills it, appends its two children's slots and
  // recurses into each.
  void grow(std::size_t slot, std::size_t begin, std::size_t end, int depth,
            AlignedVector<double>&& hist) {
    const std::size_t n = end - begin;
    double g_total = 0.0, h_total = 0.0;
    kops.pair_sum_indexed(grad.data(), hess.data(), rows.data() + begin, n,
                          &g_total, &h_total);

    const auto make_leaf = [&] {
      const double value = -g_total / (h_total + params.lambda);
      nodes[slot] = {.v = value, .feature = -1, .left = 0};
      if (!leaf_value_of_row.empty()) {
        for (std::size_t i = begin; i < end; ++i) {
          leaf_value_of_row[rows[i]] = value;
        }
      }
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

    const std::size_t mid = partition(begin, end, depth, best);
    if (mid == begin || mid == end) return make_leaf();  // only NaN does this

    const std::size_t left = nodes.size();
    nodes[slot] = {.v = best.threshold,
                   .feature = static_cast<std::int32_t>(best.feature),
                   .left = static_cast<std::int32_t>(left)};
    nodes.resize(left + 2);

    AlignedVector<double> left_hist, right_hist;
    if (binner != nullptr && depth + 1 < params.max_depth) {
      // Sibling subtraction: accumulate only the smaller child; the larger
      // child's histogram is parent − smaller, reusing the parent's storage.
      const bool left_small = mid - begin <= end - mid;
      AlignedVector<double> small_hist =
          left_small ? histogram(begin, mid) : histogram(mid, end);
      kops.hist_subtract(hist.data(), small_hist.data(), hist.size());
      left_hist = std::move(left_small ? small_hist : hist);
      right_hist = std::move(left_small ? hist : small_hist);
    }
    hist.clear();
    hist.shrink_to_fit();

    grow(left, begin, mid, depth + 1, std::move(left_hist));
    grow(left + 1, mid, end, depth + 1, std::move(right_hist));
  }

  // Exact greedy: every distinct-value boundary of every feature, scanned in
  // the node's slice of that feature's presort order, which fixes the
  // prefix-sum order and so the tie-break between equal-gain candidates.
  // split_scan4 scans four features at once (the last group repeats the last
  // feature in its unused lanes, which are ignored) and returns each lane's
  // first strict maximum. Folding the lanes in feature order with a strict >
  // keeps the first strict maximum over (feature, position), the candidate a
  // one-feature-at-a-time scan picks.
  SplitCandidate exact_split(std::size_t begin, std::size_t end,
                             double g_total, double h_total) const {
    const std::size_t d = x.cols();
    kernel::SplitScan4 scan{.order = {},
                            .x = {},
                            .x_stride = d,
                            .n = end - begin,
                            .grad = grad.data(),
                            .hess = hess.data(),
                            .g_total = g_total,
                            .h_total = h_total,
                            .parent_obj = leaf_objective(g_total, h_total,
                                                         params.lambda),
                            .lambda = params.lambda,
                            .min_child_weight = params.min_child_weight};
    SplitCandidate best;
    std::size_t best_pos = 0;
    for (std::size_t f0 = 0; f0 < d; f0 += 4) {
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t f = std::min(f0 + k, d - 1);
        scan.order[k] = sorted.data() + f * rows.size() + begin;
        scan.x[k] = x.flat().data() + f;
      }
      double gain[4];
      std::size_t pos[4];
      kops.split_scan4(scan, gain, pos);
      for (std::size_t k = 0; k < 4 && f0 + k < d; ++k) {
        if (gain[k] > best.gain) {
          best.gain = gain[k];
          best.feature = f0 + k;
          best_pos = pos[k];
        }
      }
    }
    if (best.gain > -std::numeric_limits<double>::infinity()) {
      const std::size_t* order =
          sorted.data() + best.feature * rows.size() + begin;
      best.threshold = split_threshold(x(order[best_pos], best.feature),
                                       x(order[best_pos + 1], best.feature));
    }
    return best;
  }

  // Histogram: every bin boundary of every feature, off the node's
  // (G, H, count) histogram. hist_split4 scans four non-constant features at
  // once, each lane returning its first strict maximum; folding the lanes in
  // feature order with a strict > keeps the first strict maximum over
  // (feature, bin), the candidate a one-feature-at-a-time scan picks.
  SplitCandidate hist_split(const AlignedVector<double>& hist, std::size_t n,
                            double g_total, double h_total) const {
    kernel::HistSplit4 split{.bins = {},
                             .nb = {},
                             .n_node = static_cast<double>(n),
                             .g_total = g_total,
                             .h_total = h_total,
                             .parent_obj = leaf_objective(g_total, h_total,
                                                          params.lambda),
                             .lambda = params.lambda,
                             .min_child_weight = params.min_child_weight};
    SplitCandidate best;
    std::size_t lane_feature[4];
    std::size_t lanes = 0;
    const auto scan = [&] {
      for (std::size_t k = lanes; k < 4; ++k) split.nb[k] = 0;
      double gain[4];
      std::size_t bin[4];
      kops.hist_split4(split, gain, bin);
      for (std::size_t k = 0; k < lanes; ++k) {
        if (gain[k] > best.gain) {
          best.gain = gain[k];
          best.feature = lane_feature[k];
          best.bin = bin[k];
        }
      }
      lanes = 0;
    };
    for (std::size_t f = 0; f < binner->cols(); ++f) {
      const std::size_t nb = binner->bin_count(f);
      if (nb < 2) continue;  // constant feature
      split.bins[lanes] = hist.data() + offset[f] * kernel::kHistBinStride;
      split.nb[lanes] = nb;
      lane_feature[lanes] = f;
      if (++lanes == 4) scan();
    }
    if (lanes > 0) scan();
    if (best.gain > -std::numeric_limits<double>::infinity()) {
      best.threshold = binner->edge(best.feature, best.bin);
    }
    return best;
  }

  // The (G, H, count) histogram of a segment for every feature. Each
  // feature accumulates in row order through the kernel layer, so the result
  // is bit-identical on any backend (per-bin adds are serial in row order;
  // see kernel.h).
  AlignedVector<double> histogram(std::size_t begin, std::size_t end) const {
    AlignedVector<double> hist(offset.back() * kernel::kHistBinStride, 0.0);
    for (std::size_t f = 0; f < binner->cols(); ++f) {
      kops.hist_accumulate(
          hist.data() + offset[f] * kernel::kHistBinStride,
          binner->bin_column(f), rows.data() + begin, end - begin,
          grad.data(), hess.data());
    }
    return hist;
  }

  // Stable partition of [begin, end) of `rows` and, while the children can
  // still split on the exact backend, of every feature's slice of `sorted`.
  // The backend's test (bin code or threshold) runs once per row into
  // `left_of`; each stable split then writes every row to both the left
  // cursor and `scratch` and lets that byte advance one of them, with no
  // data-dependent branch. The right rows land after the left ones in order.
  std::size_t partition(std::size_t begin, std::size_t end, int depth,
                        const SplitCandidate& split) {
    if (binner != nullptr) {
      const std::uint16_t* bins = binner->bin_column(split.feature);
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t r = rows[i];
        left_of[r] = bins[r] <= split.bin;
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t r = rows[i];
        left_of[r] = x(r, split.feature) <= split.threshold;
      }
    }
    const auto stable_split = [&](std::size_t* seg) {
      std::size_t left = begin, right = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t r = seg[i];
        const std::size_t goes_left = left_of[r];
        seg[left] = r;
        scratch[right] = r;
        left += goes_left;
        right += 1 - goes_left;
      }
      std::copy(scratch.data(), scratch.data() + right, seg + left);
      return left;
    };
    const std::size_t mid = stable_split(rows.data());
    if (binner == nullptr && depth + 1 < params.max_depth) {
      for (std::size_t f = 0; f < x.cols(); ++f) {
        stable_split(sorted.data() + f * rows.size());
      }
    }
    return mid;
  }
};

std::vector<std::size_t> RegressionTree::presort(
    const Matrix& x, std::span<const std::size_t> rows) {
  check_rows_in_range(x, rows);
  const std::size_t n = rows.size();
  std::vector<std::size_t> sorted(x.cols() * n);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    const auto order = std::span(sorted).subspan(f * n, n);
    const std::span<const std::size_t> from =
        f == 0 ? rows : std::span(sorted).subspan((f - 1) * n, n);
    std::copy(from.begin(), from.end(), order.begin());
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return x(a, f) < x(b, f);
                     });
  }
  return sorted;
}

void RegressionTree::fit(const Matrix& x, const FeatureBinner* binner,
                         std::span<const double> grad,
                         std::span<const double> hess,
                         std::span<const std::size_t> rows,
                         const TreeParams& params,
                         std::span<const std::size_t> presorted,
                         std::span<double> leaf_value_of_row) {
  NURD_CHECK(grad.size() == x.rows() && hess.size() == x.rows(),
             "grad/hess length must match row count");
  NURD_CHECK(!rows.empty(), "cannot fit a tree on zero rows");
  check_rows_in_range(x, rows);
  NURD_CHECK(binner == nullptr ||
                 (binner->rows() == x.rows() && binner->cols() == x.cols()),
             "binner shape must match the feature matrix");
  NURD_CHECK(presorted.empty() ||
                 (binner == nullptr &&
                  presorted.size() == x.cols() * rows.size()),
             "presorted orders must be exact greedy's, cols x rows in shape");
  NURD_CHECK(leaf_value_of_row.empty() || leaf_value_of_row.size() == x.rows(),
             "leaf_value_of_row must be empty or hold one slot per row");
  NURD_CHECK(x.cols() <= std::numeric_limits<std::int32_t>::max(),
             "feature count must fit a node's 32-bit feature index");
  // A binary tree of depth ≤ max_depth on n rows has at most
  // min(2^(max_depth+1), 2n) − 1 nodes.
  std::size_t capacity = 2 * rows.size() - 1;
  if (params.max_depth < 30) {
    capacity = std::min(
        capacity, (std::size_t{2} << std::max(params.max_depth, 0)) - 1);
  }
  nodes_.clear();
  nodes_.reserve(capacity);
  nodes_.resize(1);
  Grower grower{.nodes = nodes_,
                .kops = kernel::ops(),
                .x = x,
                .binner = binner,
                .grad = grad,
                .hess = hess,
                .params = params,
                .leaf_value_of_row = leaf_value_of_row,
                .rows = {rows.begin(), rows.end()},
                .sorted = {},
                .scratch = std::vector<std::size_t>(rows.size()),
                .left_of = std::vector<std::uint8_t>(x.rows()),
                .offset = {}};
  if (binner != nullptr) {
    grower.offset.resize(binner->cols() + 1, 0);
    for (std::size_t f = 0; f < binner->cols(); ++f) {
      grower.offset[f + 1] = grower.offset[f] + binner->bin_count(f);
    }
  } else if (presorted.empty()) {
    grower.sorted = presort(x, rows);
  } else {
    grower.sorted.assign(presorted.begin(), presorted.end());
  }
  grower.grow(0, 0, rows.size(), 0, {});
}

std::size_t RegressionTree::leaf_count() const {
  std::size_t c = 0;
  for (const auto& n : nodes_) c += n.feature < 0 ? 1 : 0;
  return c;
}

int RegressionTree::depth() const {
  if (nodes_.empty()) return 0;
  int deepest = 0;
  std::vector<std::pair<std::size_t, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    deepest = std::max(deepest, d);
    if (nodes_[i].feature >= 0) {
      const auto left = static_cast<std::size_t>(nodes_[i].left);
      stack.push_back({left, d + 1});
      stack.push_back({left + 1, d + 1});
    }
  }
  return deepest;
}

}  // namespace nurd::ml
