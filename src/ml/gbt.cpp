#include "ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/check.h"
#include "kernel/kernel.h"

namespace nurd::ml {

namespace {

// A NaN feature breaks the strict weak ordering both backends sort by, and a
// non-finite target poisons every leaf, so both are rejected up front.
void check_finite(const Matrix& x, std::span<const Target> targets) {
  bool finite = true;
  for (const double v : x.flat()) finite &= std::isfinite(v);
  for (const auto& t : targets) finite &= std::isfinite(t.value);
  NURD_CHECK(finite, "GBT features and targets must be finite");
}

}  // namespace

GradientBoosting::GradientBoosting(std::unique_ptr<Loss> loss,
                                   GbtParams params)
    : loss_(std::move(loss)), params_(params) {
  NURD_CHECK(loss_ != nullptr, "loss must not be null");
  NURD_CHECK(params_.n_rounds > 0, "n_rounds must be positive");
  NURD_CHECK(params_.learning_rate > 0.0, "learning_rate must be positive");
  NURD_CHECK(params_.tree.max_bins >= 2 && params_.tree.max_bins <= 4096,
             "max_bins must be in [2, 4096]");
}

GradientBoosting GradientBoosting::regressor(GbtParams params) {
  return {std::make_unique<SquaredLoss>(), params};
}

GradientBoosting GradientBoosting::classifier(GbtParams params) {
  return {std::make_unique<LogisticLoss>(), params};
}

GradientBoosting GradientBoosting::grabit(double sigma, GbtParams params) {
  return {std::make_unique<TobitLoss>(sigma), params};
}

void GradientBoosting::fit(const Matrix& x, std::span<const double> y) {
  std::vector<Target> targets(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) targets[i] = {y[i], false};
  fit(x, targets);
}

void GradientBoosting::fit(const Matrix& x, std::span<const Target> targets) {
  NURD_CHECK(x.rows() == targets.size(), "row/target count mismatch");
  NURD_CHECK(x.rows() > 0, "cannot fit on empty data");
  check_finite(x, targets);

  const std::size_t n = x.rows();
  trees_.clear();
  tree_rate_.clear();
  n_features_ = x.cols();
  base_score_ = loss_->init_score(targets);

  std::vector<double> score(n, base_score_);

  // Histogram backend: quantile-bin every feature ONCE per fit and share the
  // binner across all rounds, so no tree ever re-sorts or re-bins.
  std::optional<FeatureBinner> binner;
  if (n >= kHistogramMinRows) binner.emplace(x, params_.tree.max_bins);

  boost(x, targets, params_.n_rounds, params_.learning_rate, score,
        binner ? &*binner : nullptr);
  fitted_ = true;

  if (params_.warm_start) {
    train_score_ = std::move(score);
    trees_scored_.assign(n, trees_.size());
    binner_ = std::move(binner);
    rng_ = Rng(params_.seed);
    n_trained_ = n;
    n_full_fit_ = n;
  }
}

void GradientBoosting::continue_fit(
    const Matrix& x, std::span<const double> y, int rounds,
    std::span<const std::size_t> inserted_rows) {
  std::vector<Target> targets(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) targets[i] = {y[i], false};
  NURD_CHECK(params_.warm_start,
             "continue_fit requires warm_start in the params");
  NURD_CHECK(fitted_, "continue_fit requires a prior fit");
  NURD_CHECK(x.rows() == targets.size(), "row/target count mismatch");
  NURD_CHECK(x.cols() == n_features_, "feature count differs from the fit's");
  NURD_CHECK(x.rows() >= n_trained_, "warm-start fits only grow");
  NURD_CHECK(inserted_rows.size() == x.rows() - n_trained_,
             "inserted_rows must account for every new row");
  NURD_CHECK(rounds >= 0, "rounds must be non-negative");
  check_finite(x, targets);
  const std::size_t n = x.rows();
  // Validate the splice map BEFORE the remap loops below walk the old
  // buffers: an unsorted or duplicated position would otherwise overrun the
  // carried-over prefix first and only then hit a guard.
  for (std::size_t i = 0; i < inserted_rows.size(); ++i) {
    NURD_CHECK(inserted_rows[i] < n &&
                   (i == 0 || inserted_rows[i] > inserted_rows[i - 1]),
               "inserted_rows must be strictly ascending and in range");
  }

  // Splice the cached training scores: every old row keeps its score and its
  // count of trees folded in; an inserted row starts at the base score with
  // none and catches up below, as every row the rounds read does.
  if (!inserted_rows.empty()) {
    std::vector<double> remapped(n, base_score_);
    std::vector<std::size_t> scored(n, 0);
    std::size_t old_r = 0;
    std::size_t next = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (next < inserted_rows.size() && inserted_rows[next] == r) {
        ++next;
      } else {
        remapped[r] = train_score_[old_r];
        scored[r] = trees_scored_[old_r++];
      }
    }
    train_score_ = std::move(remapped);
    trees_scored_ = std::move(scored);
  }

  // The binner is built once, the first time the fit reaches histogram
  // scale, and its quantile edges are FROZEN from then on: later rows are
  // spliced in against the frozen sketch (clamping into boundary bins),
  // which is what makes per-checkpoint bin maintenance O(n·d) copy instead
  // of O(n·d·log n) re-sorting.
  if (n >= kHistogramMinRows) {
    if (!binner_) {
      binner_.emplace(x, params_.tree.max_bins);
    } else {
      binner_->insert_rows(x, inserted_rows);
    }
  }

  // Active-set continuation: a converged ensemble's gradient is concentrated
  // on the rows the model has not seen — the inserted rows — so the
  // continuation trees are fitted on that subset (plus anchors, below) only.
  // Each round then costs O(|active|·d) for split finding and O(|active|) to
  // keep the active rows' cached scores current (read off the leaves),
  // instead of the full fit's O(n·d): the round COUNT stays at the full
  // budget (residual absorption is multiplicative per round, (1−lr)^rounds,
  // and does not shrink with the delta), the round COST is what the delta
  // buys down. With nothing
  // inserted the subset is empty and the rounds fall back to whole-block
  // boosting (plain "more rounds" continuation).
  std::vector<std::size_t> subset(inserted_rows.begin(), inserted_rows.end());

  // Anchors: a sample of settled rows (gradient ≈ 0), three per inserted
  // row, joins the active set. Without them a tree fitted on the new rows
  // alone assigns every leaf the new rows' correction, which BLEEDS onto all
  // the settled rows sharing those feature regions; with them the split gain
  // rewards isolating the new rows first (their gradients differ from the
  // anchors'), pure-fresh leaves take the full Newton step, and mixed leaves
  // are damped by the anchors' Hessian mass.
  if (!subset.empty() && subset.size() < n) {
    const auto anchors =
        std::min(n - subset.size(), 3 * subset.size());
    const auto sampled = rng_.sample_without_replacement(n, anchors);
    subset.insert(subset.end(), sampled.begin(), sampled.end());
  }
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());

  // Lazy scores: row r's cached score holds the first trees_scored_[r]
  // trees. Every row the rounds read — the active set, or the whole block —
  // catches up in tree order with the same multiply-then-add as boost's
  // axpy, so it is bit-identical to a score swept eagerly after every round.
  // boost() then folds each new tree into exactly those rows.
  const std::size_t folded = trees_.size() + static_cast<std::size_t>(rounds);
  const auto catch_up = [&](std::size_t r) {
    for (std::size_t t = trees_scored_[r]; t < trees_.size(); ++t) {
      train_score_[r] += tree_rate_[t] * trees_[t].predict(x.row(r));
    }
    trees_scored_[r] = folded;
  };
  if (subset.empty()) {
    for (std::size_t r = 0; r < n; ++r) catch_up(r);
  } else {
    for (const auto r : subset) catch_up(r);
  }

  const double rate =
      std::min(0.5, params_.warm_rate_factor * params_.learning_rate);
  boost(x, targets, rounds, rate, train_score_,
        binner_ ? &*binner_ : nullptr, subset);
  n_trained_ = n;
}

void GradientBoosting::boost(const Matrix& x, std::span<const Target> targets,
                             int rounds, double rate,
                             std::vector<double>& score,
                             const FeatureBinner* binner,
                             std::span<const std::size_t> subset) {
  const std::size_t n = x.rows();
  const bool active_set = !subset.empty();
  // pred[r] is the leaf value the round's tree gave row r, written by the
  // tree as it makes each leaf: no predict() sweep over the rows.
  std::vector<double> grad(n), hess(n), pred(n);
  std::vector<std::size_t> all_rows;
  if (!active_set) {
    all_rows.resize(n);
    std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
  }
  const std::span<const std::size_t> rows =
      active_set ? subset : std::span<const std::size_t>(all_rows);
  const auto& kops = kernel::ops();
  // Exact greedy scans per-feature orders of `rows`; x and rows stay fixed
  // across the rounds, so they are sorted once per call, not per node.
  const std::vector<std::size_t> presorted =
      binner == nullptr && rounds > 0 ? RegressionTree::presort(x, rows)
                                      : std::vector<std::size_t>{};

  for (int round = 0; round < rounds; ++round) {
    if (active_set) {
      for (const auto i : subset) {
        const auto gh = loss_->grad_hess(targets[i], score[i]);
        grad[i] = gh.grad;
        hess[i] = gh.hess;
      }
    } else {
      // One virtual dispatch for the whole block; kernel-batched inside.
      loss_->grad_hess_batch(targets, score, grad, hess);
    }

    RegressionTree tree;
    tree.fit(x, binner, grad, hess, rows, params_.tree, presorted, pred);

    if (active_set) {
      for (const auto i : subset) score[i] += rate * pred[i];
    } else {
      kops.axpy(rate, pred.data(), score.data(), n);
    }
    trees_.push_back(std::move(tree));
    tree_rate_.push_back(rate);
  }
}

double GradientBoosting::predict_raw(std::span<const double> row) const {
  NURD_CHECK(fitted_, "model not fitted");
  NURD_CHECK(row.size() == n_features_, "row width differs from the fit's");
  double s = base_score_;
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    s += tree_rate_[i] * trees_[i].predict(row);
  }
  return s;
}

double GradientBoosting::predict(std::span<const double> row) const {
  return loss_->transform(predict_raw(row));
}

std::vector<double> GradientBoosting::predict(const Matrix& x) const {
  NURD_CHECK(fitted_, "model not fitted");
  NURD_CHECK(x.cols() == n_features_, "row width differs from the fit's");
  // Tree-major: each tree's few nodes stay in cache while it scores the
  // whole block. Every row still gets predict_raw's sequence of
  // multiply-then-add steps in tree order, so the sums are bitwise equal.
  std::vector<double> out(x.rows(), base_score_);
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      out[r] += tree_rate_[i] * trees_[i].predict(x.row(r));
    }
  }
  for (auto& v : out) v = loss_->transform(v);
  return out;
}

}  // namespace nurd::ml
