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

void GradientBoosting::set_loss(std::unique_ptr<Loss> loss) {
  NURD_CHECK(loss != nullptr, "loss must not be null");
  loss_ = std::move(loss);
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
    binner_ = std::move(binner);
    rng_ = Rng(params_.seed);
    n_trained_ = n;
    n_full_fit_ = n;
  }
}

void GradientBoosting::continue_fit(
    const Matrix& x, std::span<const Target> targets, int rounds,
    std::span<const std::size_t> changed_rows,
    std::span<const std::size_t> inserted_rows) {
  NURD_CHECK(params_.warm_start,
             "continue_fit requires warm_start in the params");
  NURD_CHECK(fitted_, "continue_fit requires a prior fit");
  NURD_CHECK(x.rows() == targets.size(), "row/target count mismatch");
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

  // Refresh the cached training scores: inserted rows and caller-reported
  // changed rows pass through the ensemble once; every other row's cache is
  // remapped over. This is the O(n + Δ·trees) step a from-scratch refit pays
  // as O(n·rounds) instead.
  if (!inserted_rows.empty()) {
    std::vector<double> remapped(n);
    std::size_t old_r = 0;
    std::size_t next = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (next < inserted_rows.size() && inserted_rows[next] == r) {
        remapped[r] = predict_raw(x.row(r));
        ++next;
      } else {
        remapped[r] = train_score_[old_r++];
      }
    }
    train_score_ = std::move(remapped);
  }
  for (const auto r : changed_rows) {
    NURD_CHECK(r < n, "changed row index out of range");
    train_score_[r] = predict_raw(x.row(r));
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
      binner_->rebin_rows(x, changed_rows);
    }
  }

  // Active-set continuation: a converged ensemble's gradient is concentrated
  // on the rows whose (features, target) pair actually moved — the inserted
  // and changed rows — so the continuation trees are fitted on that subset
  // (plus anchors, below) only. Each round then costs O(|active|·d) for
  // split finding plus O(n·depth) to keep every cached score current,
  // instead of the full fit's O(n·d): the round COUNT stays at the full
  // budget (residual absorption is multiplicative per round, (1−lr)^rounds,
  // and does not shrink with the delta), the round COST is what the delta
  // buys down. With nothing marked new or changed the subset is empty and
  // the rounds fall back to whole-block boosting (plain "more rounds"
  // continuation).
  std::vector<std::size_t> subset(inserted_rows.begin(), inserted_rows.end());
  subset.insert(subset.end(), changed_rows.begin(), changed_rows.end());

  // Anchors: a sample of settled rows (gradient ≈ 0), three per moved row,
  // joins the active set. Without them a tree fitted on moved rows alone
  // assigns every leaf the moved rows' correction, which BLEEDS onto all the
  // settled rows sharing those feature regions; with them the split gain
  // rewards isolating the moved rows first (their gradients differ from the
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

  const double rate =
      std::min(0.5, params_.warm_rate_factor * params_.learning_rate);
  boost(x, targets, rounds, rate, train_score_,
        binner_ ? &*binner_ : nullptr, subset);
  n_trained_ = n;
}

void GradientBoosting::continue_fit(const Matrix& x, std::span<const double> y,
                                    int rounds,
                                    std::span<const std::size_t> changed_rows,
                                    std::span<const std::size_t> inserted_rows) {
  std::vector<Target> targets(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) targets[i] = {y[i], false};
  continue_fit(x, targets, rounds, changed_rows, inserted_rows);
}

void GradientBoosting::boost(const Matrix& x, std::span<const Target> targets,
                             int rounds, double rate,
                             std::vector<double>& score,
                             const FeatureBinner* binner,
                             std::span<const std::size_t> subset) {
  const std::size_t n = x.rows();
  std::vector<double> grad(n), hess(n), pred(n);
  const bool active_set = !subset.empty();
  std::vector<std::size_t> all_rows;
  if (!active_set) {
    all_rows.resize(n);
    std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
  }
  const std::span<const std::size_t> rows =
      active_set ? subset : std::span<const std::size_t>(all_rows);
  const auto& kops = kernel::ops();

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
    tree.fit(x, binner, grad, hess, rows, params_.tree);

    for (std::size_t i = 0; i < n; ++i) pred[i] = tree.predict(x.row(i));
    kops.axpy(rate, pred.data(), score.data(), n);
    trees_.push_back(std::move(tree));
    tree_rate_.push_back(rate);
  }
}

double GradientBoosting::predict_raw(std::span<const double> row) const {
  NURD_CHECK(fitted_, "model not fitted");
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
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict(x.row(i));
  return out;
}

}  // namespace nurd::ml
