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

std::size_t OnlineJobRun::next_checkpoint() const {
  NURD_CHECK(flagged_through_ < checkpoint_count_,
             "job run already complete");
  return flagged_through_;
}

void OnlineJobRun::featurize(std::size_t t, CheckpointScratch* scratch,
                             bool shed) {
  NURD_CHECK(t == featurized_through_,
             "featurize stages must advance checkpoints in order");
  ++featurized_through_;
  if (shed) return;  // cursor advances; no view bind, no block staging
  // Bind the checkpoint view into the cell — rebinding in place once bound,
  // reusing the partition capacity.
  if (scratch->view.has_value() && &scratch->view->store() == &job_->trace) {
    scratch->view->rebind(t);
  } else {
    scratch->view.emplace(job_->trace, t);
  }
  predictor_->featurize_checkpoint(*scratch->view);
}

void OnlineJobRun::refit(std::size_t t, CheckpointScratch* scratch,
                         bool shed) {
  NURD_CHECK(t == refitted_through_,
             "refit stages must advance checkpoints in order");
  if (shed) {  // cursor advances; the model keeps checkpoint t-1's state
    ++refitted_through_;
    return;
  }
  // "featurize ran first" is checked through the cell, not the featurize
  // cursor: featurize(t+1) may legally run concurrently with refit(t) (the
  // executor's overlap), so reading featurized_through_ here would race.
  // The cell's view is written by featurize(t) itself, which the
  // Refit(t) ◄─ Featurize(t) edge orders before this call.
  NURD_CHECK(scratch->view.has_value() && scratch->view->index() == t,
             "refit before featurize");
  ++refitted_through_;
  const trace::CheckpointView& view = *scratch->view;
  // Candidates: running tasks that have not been flagged yet. The flag
  // record is complete through t-1 here (the executor's Refit ◄─ Predict
  // edge; inline composition trivially), so this is exactly the monolithic
  // candidate set.
  const auto running = view.running();
  scratch->candidates.clear();
  scratch->candidates.reserve(running.size());
  for (auto i : running) {
    if (result_.flagged_at[i] == kNeverFlagged) {
      scratch->candidates.push_back(i);
    }
  }
  predictor_->refit_checkpoint(view, scratch->candidates);
}

void OnlineJobRun::predict(std::size_t t, CheckpointScratch* scratch,
                           bool shed) {
  NURD_CHECK(t == predicted_through_,
             "predict stages must advance checkpoints in order");
  NURD_CHECK(t < refitted_through_, "predict before refit");
  ++predicted_through_;
  if (shed) {
    // No new decisions at a shed checkpoint. The cell is a reused ring
    // slot, so the previous tenant's newly-flagged set must not leak into
    // this checkpoint's flag() call.
    scratch->newly_flagged.clear();
    return;
  }
  const std::size_t n = job_->task_count();
  const trace::CheckpointView& view = *scratch->view;
  scratch->newly_flagged =
      predictor_->predict_stragglers(view, scratch->candidates);
  for (auto i : scratch->newly_flagged) {
    NURD_CHECK(i < n, "predictor flagged an invalid task id");
    NURD_CHECK(result_.flagged_at[i] == kNeverFlagged,
               "predictor flagged a task twice");
    result_.flagged_at[i] = t;
  }
}

std::span<const std::size_t> OnlineJobRun::flag(std::size_t t,
                                                CheckpointScratch* scratch) {
  NURD_CHECK(t == flagged_through_,
             "flag stages must advance checkpoints in order");
  NURD_CHECK(t < predicted_through_, "flag before predict");
  ++flagged_through_;
  // Cumulative confusion at this checkpoint: every unflagged true straggler
  // counts as a provisional miss. flagged_at entries written by LATER
  // predicts carry indices > t, so the <= t test is stable even while
  // predict(t+1) runs concurrently... except that concurrent writes to
  // other slots are real; the executor's Predict(t+1) ◄─ Flag(t) edge is
  // what rules them out.
  const std::size_t n = job_->task_count();
  Confusion& c = result_.per_checkpoint[t];
  for (std::size_t i = 0; i < n; ++i) {
    const bool flagged_yet = result_.flagged_at[i] <= t;
    if (flagged_yet && labels_[i] == 1) ++c.tp;
    if (flagged_yet && labels_[i] == 0) ++c.fp;
    if (!flagged_yet && labels_[i] == 1) ++c.fn;
    if (!flagged_yet && labels_[i] == 0) ++c.tn;
  }
  if (flagged_through_ == checkpoint_count_) {
    result_.final = result_.per_checkpoint.back();
  }
  return scratch->newly_flagged;
}

std::span<const std::size_t> OnlineJobRun::step() {
  const std::size_t t = next_checkpoint();
  featurize(t, &step_scratch_);
  refit(t, &step_scratch_);
  predict(t, &step_scratch_);
  return flag(t, &step_scratch_);
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
