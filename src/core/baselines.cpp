#include "core/baselines.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ml/loss.h"

namespace nurd::core {

namespace {

constexpr std::size_t kNotInTrain = std::numeric_limits<std::size_t>::max();

// Censored targets over all tasks: finished are exact, running are
// right-censored at the checkpoint horizon.
std::vector<ml::Target> censored_targets(const trace::CheckpointView& view) {
  std::vector<ml::Target> t(view.task_count());
  for (auto i : view.finished()) t[i] = {view.revealed_latency(i), false};
  for (auto i : view.running()) t[i] = {view.tau_run(), true};
  return t;
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
  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (model_.model->predict(view.row(i)) >= tau_stra_) flagged.push_back(i);
  }
  return flagged;
}

// ------------------------------------------------------ outlier family ----

OutlierPredictor::OutlierPredictor(std::string name, DetectorFactory make,
                                   double contamination, RefitPolicy refit)
    : name_(std::move(name)),
      make_(std::move(make)),
      contamination_(contamination),
      session_(refit) {
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
                               double contamination, RefitPolicy refit)
    : params_(params), contamination_(contamination), session_(refit) {}

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

PuEnPredictor::PuEnPredictor(pu::PuEnParams params, RefitPolicy refit)
    : params_(params), session_(refit) {}

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
  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (model.prob_labeled_class(view.row(i)) < 0.5) {
      flagged.push_back(i);
    }
  }
  return flagged;
}

// --------------------------------------------------------------- PU-BG ----

PuBgPredictor::PuBgPredictor(pu::PuBgParams params, RefitPolicy refit)
    : params_(params), session_(refit) {}

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

TobitPredictor::TobitPredictor(censored::TobitParams params,
                               RefitPolicy refit)
    : params_(params), session_(refit) {}

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

GrabitPredictor::GrabitPredictor(ml::GbtParams params, RefitPolicy refit)
    : params_(params), session_(refit) {}

void GrabitPredictor::initialize(const JobContext& context) {
  tau_stra_ = context.tau_stra;
  session_.reset();
  model_.reset();
}

std::vector<std::size_t> GrabitPredictor::predict_stragglers(
    const trace::CheckpointView& view,
    std::span<const std::size_t> candidates) {
  if (view.finished().empty() || candidates.empty()) return {};
  session_.observe(view);
  const auto targets = censored_targets(view);
  const double sigma = std::max(stddev(session_.y_fin()), 1e-3);
  const Matrix& snapshot = session_.snapshot();

  // Geometric refresh on the finished count: the snapshot's row count never
  // grows, but the model's information content is the uncensored set — once
  // that outgrows the last full fit's (warm_refresh_due), trees trained
  // against the stale censoring horizon get rebuilt whole (amortized O(1)
  // refreshes, none at late checkpoints).
  if (!session_.incremental() || !model_.has_value() ||
      !session_.advanced() ||
      warm_refresh_due(view, view.finished().size(), full_fit_finished_)) {
    auto warm = params_;
    warm.warm_start = session_.incremental();
    model_.emplace(ml::GradientBoosting::grabit(sigma, warm));
    model_->fit(snapshot, targets);
    last_fit_cp_ = view.index();
    full_fit_finished_ = view.finished().size();
  } else {
    // Warm continuation over the snapshot: σ tracks the finished set and the
    // censoring horizon moved, both plain target/loss changes. The active
    // set for the continuation rounds is every row whose (features, target)
    // pair moved since the last fit: the trace-change-detected rows (whose
    // cached scores and bins are refreshed) UNION the still-running rows
    // (censored targets advanced with τrun even where features did not)
    // UNION the newly finished rows — a task completing with a
    // bitwise-unchanged row is in neither of the former sets, yet its
    // target flipped from censored to its revealed exact latency.
    model_->set_loss(std::make_unique<ml::TobitLoss>(sigma));
    view.delta_since(last_fit_cp_, &fin_scratch_, &changed_scratch_);
    const auto running = view.running();
    changed_scratch_.insert(changed_scratch_.end(), running.begin(),
                            running.end());
    changed_scratch_.insert(changed_scratch_.end(), fin_scratch_.begin(),
                            fin_scratch_.end());
    std::sort(changed_scratch_.begin(), changed_scratch_.end());
    changed_scratch_.erase(
        std::unique(changed_scratch_.begin(), changed_scratch_.end()),
        changed_scratch_.end());
    model_->continue_fit(snapshot, targets,
                         std::min(12, std::max(1, params_.n_rounds / 2)),
                         changed_scratch_);
    last_fit_cp_ = view.index();
  }

  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (model_->predict(view.row(i)) >= tau_stra_) flagged.push_back(i);
  }
  return flagged;
}

// --------------------------------------------------------------- CoxPH ----

CoxPredictor::CoxPredictor(censored::CoxParams params, RefitPolicy refit)
    : params_(params), session_(refit) {}

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
                                     double train_fraction,
                                     std::uint64_t seed, RefitPolicy refit)
    : params_(params),
      train_fraction_(train_fraction),
      seed_(seed),
      refit_(refit) {
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
  train_pos_.clear();
  x_as_of_ = trace::kNoCheckpoint;
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

  // Training rows: full re-gather under kFull (the reference path); under
  // kIncremental only the change-detected rows that belong to the training
  // sample are patched — identical matrix content, delta-sized cost.
  const bool patch = refit_ == RefitPolicy::kIncremental &&
                     x_as_of_ != trace::kNoCheckpoint &&
                     x_as_of_ <= view.index();
  if (!patch) {
    view.gather_rows(train_ids_, &x_);
    if (refit_ == RefitPolicy::kIncremental && train_pos_.empty()) {
      train_pos_.assign(view.task_count(), kNotInTrain);
      for (std::size_t r = 0; r < train_ids_.size(); ++r) {
        train_pos_[train_ids_[r]] = r;
      }
    }
  } else {
    view.delta_since(x_as_of_, nullptr, &changed_scratch_);
    for (const auto task : changed_scratch_) {
      const auto r = train_pos_[task];
      if (r == kNotInTrain) continue;
      const auto src = view.row(task);
      std::copy(src.begin(), src.end(), x_.row(r).begin());
    }
  }
  x_as_of_ = view.index();

  ml::LinearSVM svm(params_);
  svm.fit(x_, y_, w_);

  std::vector<std::size_t> flagged;
  for (auto i : candidates) {
    if (svm.decision(view.row(i)) > 0.0) flagged.push_back(i);
  }
  return flagged;
}

}  // namespace nurd::core
