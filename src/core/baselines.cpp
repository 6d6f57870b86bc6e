#include "core/baselines.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ml/loss.h"

namespace nurd::core {

namespace {

// Censored targets over all tasks: finished are exact, running are
// right-censored at the checkpoint horizon.
std::vector<ml::Target> censored_targets(const trace::CheckpointView& view) {
  std::vector<ml::Target> t(view.task_count());
  for (auto i : view.finished()) t[i] = {view.revealed_latency(i), false};
  for (auto i : view.running()) t[i] = {view.tau_run(), true};
  return t;
}

// The candidates whose block score (one per candidate, in order) is at or
// above tau.
std::vector<std::size_t> flag_at_or_above(
    const std::vector<double>& score, std::span<const std::size_t> candidates,
    double tau) {
  std::vector<std::size_t> flagged;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (score[k] >= tau) flagged.push_back(candidates[k]);
  }
  return flagged;
}

}  // namespace

// ---------------------------------------------------------------- GBTR ----

GbtrPredictor::GbtrPredictor(ml::GbtParams params, RefitPolicy refit)
    : params_(params), session_(refit) {}

void GbtrPredictor::initialize(const JobContext& context) {
  tau_stra_ = context.tau_stra;
  session_.reset();
  model_.reset();
  fitted_checkpoint_ = trace::kNoCheckpoint;
}

void GbtrPredictor::refit_checkpoint(const trace::CheckpointView& view,
                                     std::span<const std::size_t> candidates) {
  // The same skip guard as predict_stragglers: an untouched checkpoint must
  // stay untouched on both paths or warm-model trajectories diverge.
  if (view.finished().empty() || candidates.empty()) return;
  session_.observe(view);
  refit_finished_gbt(session_, params_, &model_);
  fitted_checkpoint_ = view.index();
}

std::vector<std::size_t> GbtrPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (view.finished().empty() || candidates.empty()) return {};
  if (fitted_checkpoint_ != view.index()) {
    session_.observe(view);
    refit_finished_gbt(session_, params_, &model_);
  }
  view.gather_rows(candidates, &candidate_rows_);
  return flag_at_or_above(model_.model->predict(candidate_rows_), candidates,
                          tau_stra_);
}

// ------------------------------------------------------ outlier family ----

OutlierPredictor::OutlierPredictor(std::string name, DetectorFactory make,
                                   double contamination)
    : name_(std::move(name)),
      make_(std::move(make)),
      contamination_(contamination) {
  NURD_CHECK(make_ != nullptr, "detector factory must not be null");
}

void OutlierPredictor::initialize(const JobContext&) { session_.reset(); }

std::vector<std::size_t> OutlierPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (candidates.empty()) return {};
  session_.observe(view);
  auto detector = make_();
  detector->fit(session_.snapshot());
  const auto& scores = detector->scores();
  const double thr = outlier::contamination_threshold(scores, contamination_);
  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (scores[i] > thr) flagged.push_back(i);
  }
  return flagged;
}

// --------------------------------------------------------------- XGBOD ----

XgbodPredictor::XgbodPredictor(outlier::XgbodParams params,
                               double contamination)
    : params_(params), contamination_(contamination) {}

void XgbodPredictor::initialize(const JobContext&) { session_.reset(); }

std::vector<std::size_t> XgbodPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (candidates.empty() || view.finished().empty() ||
      view.running().empty()) {
    return {};
  }
  session_.observe(view);
  std::vector<double> pseudo(view.task_count(), 0.0);
  for (auto i : view.running()) pseudo[i] = 1.0;
  outlier::XgbodDetector det(params_);
  det.fit(session_.snapshot(), pseudo);
  const auto& scores = det.scores();
  const double thr = outlier::contamination_threshold(scores, contamination_);
  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (scores[i] > thr) flagged.push_back(i);
  }
  return flagged;
}

// --------------------------------------------------------------- PU-EN ----

PuEnPredictor::PuEnPredictor(pu::PuEnParams params) : params_(params) {}

void PuEnPredictor::initialize(const JobContext&) { session_.reset(); }

std::vector<std::size_t> PuEnPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (view.finished().empty() || view.running().empty() ||
      candidates.empty()) {
    return {};
  }
  session_.observe(view);
  const Matrix& labeled = session_.x_fin();
  view.gather_rows(view.running(), &unlabeled_);
  pu::PuElkanNoto model(params_);
  model.fit(labeled, unlabeled_);
  view.gather_rows(candidates, &unlabeled_);  // the fit has copied it
  const auto prob = model.prob_labeled_class(unlabeled_);
  std::vector<std::size_t> flagged;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (prob[k] < 0.5) flagged.push_back(candidates[k]);
  }
  return flagged;
}

// --------------------------------------------------------------- PU-BG ----

PuBgPredictor::PuBgPredictor(pu::PuBgParams params) : params_(params) {}

void PuBgPredictor::initialize(const JobContext&) { session_.reset(); }

std::vector<std::size_t> PuBgPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (view.finished().empty() || candidates.empty()) return {};
  session_.observe(view);
  const Matrix& labeled = session_.x_fin();
  view.gather_rows(candidates, &unlabeled_);
  pu::PuBaggingSvm model(params_);
  model.fit(labeled, unlabeled_);
  const auto& scores = model.unlabeled_scores();
  std::vector<std::size_t> flagged;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (scores[c] > 0.0) flagged.push_back(candidates[c]);
  }
  return flagged;
}

// --------------------------------------------------------------- Tobit ----

TobitPredictor::TobitPredictor(censored::TobitParams params)
    : params_(params) {}

void TobitPredictor::initialize(const JobContext& context) {
  tau_stra_ = context.tau_stra;
  session_.reset();
}

std::vector<std::size_t> TobitPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (view.finished().empty() || candidates.empty()) return {};
  session_.observe(view);
  const auto targets = censored_targets(view);
  censored::TobitRegression model(params_);
  model.fit(session_.snapshot(), targets);
  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (model.predict(view.row(i)) >= tau_stra_) flagged.push_back(i);
  }
  return flagged;
}

// -------------------------------------------------------------- Grabit ----

GrabitPredictor::GrabitPredictor(ml::GbtParams params) : params_(params) {}

void GrabitPredictor::initialize(const JobContext& context) {
  tau_stra_ = context.tau_stra;
  session_.reset();
}

std::vector<std::size_t> GrabitPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (view.finished().empty() || candidates.empty()) return {};
  session_.observe(view);
  const auto targets = censored_targets(view);
  const double sigma = std::max(stddev(session_.y_fin()), 1e-3);
  auto model = ml::GradientBoosting::grabit(sigma, params_);
  model.fit(session_.snapshot(), targets);
  view.gather_rows(candidates, &candidate_rows_);
  return flag_at_or_above(model.predict(candidate_rows_), candidates,
                          tau_stra_);
}

// --------------------------------------------------------------- CoxPH ----

CoxPredictor::CoxPredictor(censored::CoxParams params) : params_(params) {}

void CoxPredictor::initialize(const JobContext& context) {
  tau_stra_ = context.tau_stra;
  session_.reset();
}

std::vector<std::size_t> CoxPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (view.finished().empty() || candidates.empty()) return {};
  session_.observe(view);
  std::vector<censored::SurvivalObservation> obs(view.task_count());
  for (auto i : view.finished()) obs[i] = {view.revealed_latency(i), true};
  for (auto i : view.running()) obs[i] = {view.tau_run(), false};
  censored::CoxPh model(params_);
  model.fit(session_.snapshot(), obs);
  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (model.survival(tau_stra_, view.row(i)) >= 0.5) {
      flagged.push_back(i);
    }
  }
  return flagged;
}

// ------------------------------------------------------------ Wrangler ----

WranglerPredictor::WranglerPredictor(ml::SvmParams params,
                                     double train_fraction, std::uint64_t seed)
    : params_(params), train_fraction_(train_fraction), seed_(seed) {
  NURD_CHECK(train_fraction > 0.0 && train_fraction < 1.0,
             "train_fraction must be in (0,1)");
}

void WranglerPredictor::initialize(const JobContext& context) {
  // Privileged offline sample: 2/3 of tasks with true labels (§6), granted
  // through the explicit capability rather than read off the job.
  NURD_CHECK(context.offline != nullptr,
             "Wrangler requires the OfflineSample capability");
  NURD_CHECK(context.offline->task_count() == context.task_count,
             "offline sample does not match the job");
  Rng rng(seed_);
  const std::size_t n = context.task_count;
  const auto k = std::max<std::size_t>(
      2, static_cast<std::size_t>(train_fraction_ * static_cast<double>(n)));
  train_ids_ = rng.sample_without_replacement(n, std::min(k, n));
  const auto labels = context.offline->labels();
  labels_.assign(labels.begin(), labels.end());
  y_.clear();
  w_.clear();
}

std::vector<std::size_t> WranglerPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (candidates.empty()) return {};

  // Oversample stragglers by weighting them to parity with non-stragglers.
  // The sample and its labels are fixed per job, so the targets and weights
  // are built once and reused.
  std::size_t pos = 0;
  for (auto i : train_ids_) pos += static_cast<std::size_t>(labels_[i]);
  const std::size_t neg = train_ids_.size() - pos;
  if (pos == 0 || neg == 0) return {};  // degenerate sample: abstain
  if (y_.empty()) {
    const double pos_weight =
        static_cast<double>(neg) / static_cast<double>(pos);
    y_.reserve(train_ids_.size());
    w_.reserve(train_ids_.size());
    for (auto i : train_ids_) {
      y_.push_back(labels_[i]);
      w_.push_back(labels_[i] == 1 ? pos_weight : 1.0);
    }
  }

  view.gather_rows(train_ids_, &x_);
  ml::LinearSVM svm(params_);
  svm.fit(x_, y_, w_);

  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (svm.decision(view.row(i)) > 0.0) flagged.push_back(i);
  }
  return flagged;
}

}  // namespace nurd::core
