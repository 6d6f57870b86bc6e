#include "eval/harness.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "common/thread_pool.h"

namespace nurd::eval {

core::JobContext make_job_context(const trace::Job& job, double tau_stra) {
  core::JobContext context;
  context.job_id = job.id;
  context.task_count = job.task_count();
  context.feature_count = job.feature_count();
  context.checkpoint_count = job.checkpoint_count();
  context.tau_stra = tau_stra;
  return context;
}

OnlineJobRun::OnlineJobRun(const trace::Job& job,
                           core::StragglerPredictor& predictor, double pct)
    : job_(&job),
      predictor_(&predictor),
      checkpoint_count_(job.checkpoint_count()) {
  NURD_CHECK(job.checkpoint_count() > 0, "job has no checkpoints");
  labels_ = job.straggler_labels(pct);
  result_.flagged_at.assign(job.task_count(), kNeverFlagged);
  result_.per_checkpoint.resize(job.checkpoint_count());

  // The predictor sees static metadata only; privileged methods (Wrangler)
  // additionally receive the offline-label capability, explicitly. The
  // capability carries the FIXED p90 labels of Wrangler's published protocol
  // (§6), not the evaluation percentile: scoring a run at pct != 90 must not
  // quietly retrain Wrangler on different privileged labels.
  core::JobContext context = make_job_context(job, job.straggler_threshold(pct));
  if (predictor.privilege() == core::Privilege::kOfflineLabels) {
    offline_.emplace(pct == 90.0 ? labels_ : job.straggler_labels(90.0));
    context.offline = &*offline_;
  }
  predictor.initialize(context);
}

void OnlineJobRun::enter(std::size_t t, core::Stage stage) {
  NURD_CHECK(t == checkpoint_ && t < checkpoint_count_ &&
                 stage == next_stage_,
             "stages must run featurize, refit, predict, flag, one "
             "checkpoint at a time in order");
  next_stage_ = static_cast<core::Stage>(
      (static_cast<std::size_t>(stage) + 1) % core::kStageCount);
}

void OnlineJobRun::featurize(std::size_t t) {
  enter(t, core::Stage::kFeaturize);
  if (view_.has_value()) {
    view_->rebind(t);
  } else {
    view_.emplace(job_->trace, t);
  }
  predictor_->featurize_checkpoint(*view_);
}

void OnlineJobRun::refit(std::size_t t) {
  enter(t, core::Stage::kRefit);
  // Candidates: running tasks that have not been flagged yet (the flag
  // record is complete through t-1).
  const auto running = view_->running();
  candidates_.clear();
  candidates_.reserve(running.size());
  for (auto i : running) {
    if (result_.flagged_at[i] == kNeverFlagged) candidates_.push_back(i);
  }
  predictor_->refit_checkpoint(*view_, candidates_);
}

void OnlineJobRun::predict(std::size_t t) {
  enter(t, core::Stage::kPredict);
  const std::size_t n = job_->task_count();
  newly_flagged_ = predictor_->predict_stragglers(*view_, candidates_);
  for (auto i : newly_flagged_) {
    NURD_CHECK(i < n, "predictor flagged an invalid task id");
    NURD_CHECK(result_.flagged_at[i] == kNeverFlagged,
               "predictor flagged a task twice");
    result_.flagged_at[i] = t;
  }
}

std::span<const std::size_t> OnlineJobRun::flag(std::size_t t) {
  enter(t, core::Stage::kFlag);
  // Cumulative confusion at this checkpoint: every unflagged true straggler
  // counts as a provisional miss.
  const std::size_t n = job_->task_count();
  Confusion& c = result_.per_checkpoint[t];
  for (std::size_t i = 0; i < n; ++i) {
    const bool flagged_yet = result_.flagged_at[i] <= t;
    if (flagged_yet && labels_[i] == 1) ++c.tp;
    if (flagged_yet && labels_[i] == 0) ++c.fp;
    if (!flagged_yet && labels_[i] == 1) ++c.fn;
    if (!flagged_yet && labels_[i] == 0) ++c.tn;
  }
  if (++checkpoint_ == checkpoint_count_) {
    result_.final = result_.per_checkpoint.back();
  }
  return newly_flagged_;
}

std::span<const std::size_t> OnlineJobRun::step() {
  NURD_CHECK(!done(), "job run already complete");
  const std::size_t t = checkpoint_;
  featurize(t);
  refit(t);
  predict(t);
  return flag(t);
}

JobRunResult OnlineJobRun::take_result() {
  NURD_CHECK(done(), "job run still has checkpoints");
  return std::move(result_);
}

JobRunResult run_job(const trace::Job& job,
                     core::StragglerPredictor& predictor, double pct) {
  OnlineJobRun run(job, predictor, pct);
  while (!run.done()) run.step();
  return run.take_result();
}

MethodResult evaluate_method(const core::NamedPredictor& method,
                             std::span<const trace::Job> jobs, double pct,
                             std::size_t threads) {
  NURD_CHECK(!jobs.empty(), "no jobs to evaluate");
  // Runs fan out across jobs; the aggregation walks them in job order, so
  // the sums are bit-identical for every thread count.
  return aggregate_method(method.name, run_method(method, jobs, pct, threads));
}

MethodResult aggregate_method(std::string name,
                              std::span<const JobRunResult> runs) {
  NURD_CHECK(!runs.empty(), "no runs to aggregate");
  MethodResult out;
  out.name = std::move(name);

  // Jobs without a single true straggler are excluded from the F1
  // macro-average and timeline (policy documented in metrics.h): their F1 is
  // the degenerate 1.0 regardless of predictions and would inflate the mean.
  // If the entire job set is positive-free the exclusion would leave nothing,
  // so the average falls back to covering every job, which preserves the
  // per-job conventions (1.0 when nothing was flagged, 0.0 on false flags).
  const bool exclude_positive_free =
      std::any_of(runs.begin(), runs.end(), [](const JobRunResult& run) {
        return run.final.tp + run.final.fn > 0;
      });

  // The timeline spans only the jobs included in the F1 average — trailing
  // slots covered by excluded jobs alone would otherwise read as F1 = 0.
  std::size_t timeline_len = 0;
  for (const auto& run : runs) {
    if (exclude_positive_free && run.final.tp + run.final.fn == 0) continue;
    timeline_len = std::max(timeline_len, run.per_checkpoint.size());
  }
  out.f1_timeline.assign(timeline_len, 0.0);
  std::vector<std::size_t> timeline_counts(timeline_len, 0);

  std::size_t f1_jobs = 0;
  for (const auto& run : runs) {
    out.tpr += run.final.tpr();
    out.fpr += run.final.fpr();
    out.fnr += run.final.fnr();
    if (exclude_positive_free && run.final.tp + run.final.fn == 0) continue;
    ++f1_jobs;
    out.f1 += run.final.f1();
    for (std::size_t t = 0; t < run.per_checkpoint.size(); ++t) {
      out.f1_timeline[t] += run.per_checkpoint[t].f1();
      ++timeline_counts[t];
    }
  }

  const double n = static_cast<double>(runs.size());
  out.tpr /= n;
  out.fpr /= n;
  out.fnr /= n;
  out.f1 /= static_cast<double>(f1_jobs);  // >= 1: runs are non-empty
  for (std::size_t t = 0; t < timeline_len; ++t) {
    if (timeline_counts[t] > 0) {
      out.f1_timeline[t] /= static_cast<double>(timeline_counts[t]);
    }
  }
  return out;
}

std::vector<JobRunResult> run_method(const core::NamedPredictor& method,
                                     std::span<const trace::Job> jobs,
                                     double pct, std::size_t threads) {
  std::vector<JobRunResult> out(jobs.size());
  // Each job writes only its own slot; order-independent.
  ThreadPool::run_indexed(jobs.size(), threads, [&](std::size_t i) {
    auto predictor = method.make();
    out[i] = run_job(jobs[i], *predictor, pct);
  });
  return out;
}

}  // namespace nurd::eval
