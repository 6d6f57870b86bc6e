#include "core/nurd.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/matrix.h"

namespace nurd::core {

NurdPredictor::NurdPredictor(NurdParams params)
    : params_(params), session_(params.refit) {
  NURD_CHECK(params_.alpha > 0.0, "alpha must be positive");
  NURD_CHECK(params_.epsilon > 0.0 && params_.epsilon <= 1.0,
             "epsilon must be in (0,1]");
}

void NurdPredictor::initialize(const JobContext& context) {
  NURD_CHECK(context.checkpoint_count > 0, "job has no checkpoints");
  tau_stra_ = context.tau_stra;
  calibrated_ = false;
  rho_ = 1.0;
  delta_ = 0.0;
  session_.reset();
  ht_.reset();
  gt_.reset();
  fitted_checkpoint_ = trace::kNoCheckpoint;
  fitted_models_ = {};
}

void NurdPredictor::calibrate(const trace::CheckpointView& view) {
  if (calibrated_) return;
  calibrated_ = true;

  // Latency indicator ρ from the first observed checkpoint's feature
  // centroids (Algorithm 1 lines 4–6). ρ ≤ 1 ⇒ far tail ⇒ large δ (suppress
  // false positives); ρ > 1 ⇒ near tail ⇒ small/negative δ (recover true
  // positives). One-shot per job, so plain locals instead of session blocks.
  Matrix fin_rows, run_rows;
  view.gather_rows(view.finished(), &fin_rows);
  view.gather_rows(view.running(), &run_rows);
  if (fin_rows.empty() || run_rows.empty()) {
    rho_ = 1.0;  // degenerate start: neutral calibration
  } else {
    const auto c_fin = fin_rows.col_means();
    const auto c_run = run_rows.col_means();
    std::vector<double> diff(c_fin.size());
    for (std::size_t j = 0; j < c_fin.size(); ++j) {
      diff[j] = c_run[j] - c_fin[j];
    }
    const double sep = norm2(diff);
    rho_ = sep > 1e-12 ? norm2(c_fin) / sep : 1.0;
  }
  delta_ = 1.0 / (1.0 + rho_) - params_.alpha;
}

double NurdPredictor::weight(double propensity) const {
  const double z = params_.calibrate ? propensity + delta_ : propensity;
  return std::max(params_.epsilon, std::min(z, 1.0));
}

NurdPredictor::CheckpointModels NurdPredictor::fit_models(
    const trace::CheckpointView& view) {
  session_.observe(view);
  CheckpointModels models;
  if (view.finished().empty()) {
    ht_.reset();
    gt_.reset();
    return models;
  }

  // ht: latency model on finished tasks (Algorithm 1 line 11). kFull refits
  // from scratch on the session's id-ordered finished block — bit-identical
  // to the published algorithm; kIncremental warm-continues the ensemble
  // (and skips entirely when a checkpoint revealed no completion).
  refit_finished_gbt(session_, params_.gbt, &ht_);
  models.ht = &*ht_.model;

  // gt: propensity of membership in the finished set — an unweighted
  // logistic regression on finished(1) vs running(0), exactly Eq. 2: the
  // propensity reflects both the class prior (how much of the job has
  // finished) and feature similarity. Absent when one class is missing.
  // Running rows drift every checkpoint, so gt refits regardless of policy;
  // kIncremental warm-starts Newton from the previous checkpoint's weights.
  if (!view.running().empty()) {
    const Matrix& x_mem = session_.x_member();
    const auto y_mem = session_.y_member();
    if (!session_.incremental() || !gt_.has_value()) {
      auto propensity = params_.propensity;
      propensity.warm_start = session_.incremental();
      gt_.emplace(propensity);
    }
    gt_->fit(x_mem, y_mem);
    models.gt = &*gt_;
  } else {
    gt_.reset();
  }
  return models;
}

void NurdPredictor::refit_checkpoint(const trace::CheckpointView& view,
                                     std::span<const std::size_t> candidates) {
  // Exactly predict_stragglers' preamble, including the skip guard: a
  // checkpoint with no finished tasks or no candidates must leave the models
  // (and the session's observed cursor) untouched on both paths, or the
  // warm-start trajectories diverge.
  calibrate(view);
  if (view.finished().empty() || candidates.empty()) return;
  fitted_models_ = fit_models(view);
  fitted_checkpoint_ = view.index();
}

std::vector<std::size_t> NurdPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  calibrate(view);
  if (view.finished().empty() || candidates.empty()) return {};
  const auto models = fitted_checkpoint_ == view.index()
                          ? fitted_models_
                          : fit_models(view);

  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    const auto row = view.row(i);
    const double y_hat = models.ht->predict(row);
    const double z = models.gt ? models.gt->predict_proba(row) : 1.0;
    const double y_adj = y_hat / weight(z);
    if (y_adj >= tau_stra_) flagged.push_back(i);
  }
  return flagged;
}

}  // namespace nurd::core
