// The online evaluation harness. Drives a StragglerPredictor over a job's
// checkpoint stream under the paper's protocol (§7.1):
//   * a task predicted positive is flagged permanently and never
//     re-evaluated (Algorithm 1 removes it from Rt);
//   * a task predicted negative is re-evaluated at the next checkpoint while
//     it remains running;
//   * final confusion counts each task once against its true p90 label;
//   * streaming confusion at checkpoint t counts flags made up to t, with
//     every not-yet-flagged true straggler as a (provisional) false negative
//     — this is the cumulative F1 plotted in Figures 2 and 3.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/task_dag.h"
#include "eval/metrics.h"
#include "trace/checkpoint_view.h"
#include "trace/job.h"

namespace nurd::eval {

/// Sentinel for "task never flagged".
inline constexpr std::size_t kNeverFlagged =
    std::numeric_limits<std::size_t>::max();

/// One predictor's run over one job.
struct JobRunResult {
  Confusion final;                        ///< end-of-job confusion
  std::vector<Confusion> per_checkpoint;  ///< cumulative confusion at each t
  std::vector<std::size_t> flagged_at;    ///< per task: checkpoint index or
                                          ///< kNeverFlagged
};

/// The static per-job context run_job hands to initialize() — without the
/// privileged capability, which run_job grants separately by declared
/// privilege. Shared by the parity tests, benches, and examples so every
/// caller mirrors the harness protocol exactly.
core::JobContext make_job_context(const trace::Job& job, double tau_stra);

/// The §7.1 protocol, one checkpoint at a time. OnlineJobRun owns exactly
/// the state run_job used to keep on its stack — the labels, the checkpoint
/// cursors, the growing flag/confusion record — and step() advances one
/// checkpoint: candidates are the running tasks not yet flagged,
/// predict_stragglers decides, flags are recorded permanently, the
/// cumulative confusion is appended. run_job is a loop over this class, and
/// the serving layer (serve::ShardedMonitor) drives the SAME class from its
/// event plan — which is what makes serving bit-identical to the batch
/// harness by construction rather than by parallel maintenance.
///
/// step() is itself the composition of four STAGE methods — featurize,
/// refit, predict, flag — which the serving layer calls one by one to time
/// each; one code path, bit-identical flags.
///
/// Threading: one OnlineJobRun per (job, predictor instance), driven by one
/// thread at a time. The stages of a checkpoint run in order, and the next
/// checkpoint starts only after the previous one's flag stage; a driver may
/// move the run between threads across checkpoints if the hand-off
/// synchronizes.
class OnlineJobRun {
 public:
  /// Binds to a job and a fresh predictor (both must outlive the run) and
  /// performs the harness's initialize() protocol, including the privileged
  /// OfflineSample grant for methods declaring it.
  OnlineJobRun(const trace::Job& job, core::StragglerPredictor& predictor,
               double pct = 90.0);

  /// True once flag() ran for the last checkpoint.
  bool done() const { return checkpoint_ >= checkpoint_count_; }

  /// Processes the next checkpoint — the four stages below, back to back —
  /// and returns the tasks newly flagged at it (valid until the next step()).
  std::span<const std::size_t> step();

  // ---- the pipeline stages ------------------------------------------------
  // Each takes the checkpoint index: the stages of checkpoint t run in the
  // order below, then those of t+1.

  /// Stage 1 — binds the checkpoint view (rebinding in place once bound)
  /// and runs the predictor's featurize hook.
  void featurize(std::size_t t);

  /// Stage 2 — computes the candidate set (running tasks not yet flagged)
  /// and runs the predictor's refit hook with it, replicating the
  /// monolithic skip guards.
  void refit(std::size_t t);

  /// Stage 3 — predict_stragglers on the candidates (a predictor that
  /// refitted in stage 2 only scores here; any other does all its work) and
  /// records the flags permanently.
  void predict(std::size_t t);

  /// Stage 4 — cumulative confusion accounting; populates `final` on the
  /// last checkpoint. Returns the newly flagged tasks (valid until the next
  /// checkpoint's predict).
  std::span<const std::size_t> flag(std::size_t t);

  /// Moves the record out (call once, after done()).
  JobRunResult take_result();

 private:
  /// Checks that stage `stage` of checkpoint `t` is the one due, and moves
  /// on to the next stage.
  void enter(std::size_t t, core::Stage stage);

  const trace::Job* job_;
  core::StragglerPredictor* predictor_;
  std::vector<int> labels_;
  std::optional<core::OfflineSample> offline_;
  std::size_t checkpoint_count_ = 0;
  /// Checkpoint in progress (or next), and the stage it expects next.
  std::size_t checkpoint_ = 0;
  core::Stage next_stage_ = core::Stage::kFeaturize;
  /// The checkpoint's view, bound once and rebound in place, reusing the
  /// partition capacity.
  std::optional<trace::CheckpointView> view_;
  std::vector<std::size_t> candidates_;
  std::vector<std::size_t> newly_flagged_;
  JobRunResult result_;
};

/// Runs `predictor` over `job` (fresh instance expected) with the straggler
/// threshold at latency percentile `pct`.
JobRunResult run_job(const trace::Job& job,
                     core::StragglerPredictor& predictor, double pct = 90.0);

/// A method's metrics macro-averaged over a job set. TPR/FPR/FNR average
/// over all jobs with the zero conventions documented in metrics.h; the F1
/// macro-average (and the per-checkpoint timeline) covers only jobs with at
/// least one true straggler — a positive-free job's F1 is the degenerate 1.0
/// whatever the predictor does, which would inflate the mean (metrics.h
/// documents the policy).
struct MethodResult {
  std::string name;
  double tpr = 0.0;
  double fpr = 0.0;
  double fnr = 0.0;
  double f1 = 0.0;
  std::vector<double> f1_timeline;  ///< mean cumulative F1 per checkpoint
};

/// Evaluates one registry entry over all jobs (a fresh predictor per job).
///
/// Jobs are independent, so they fan out over `threads` pool lanes
/// (0 = hardware concurrency, 1 = fully serial). Each job gets its own
/// predictor instance and writes to its own result slot, and the final
/// aggregation walks jobs in input order — metrics are bit-identical for
/// every thread count.
MethodResult evaluate_method(const core::NamedPredictor& method,
                             std::span<const trace::Job> jobs,
                             double pct = 90.0, std::size_t threads = 0);

/// The aggregation behind evaluate_method, exposed so callers holding
/// per-job runs (run_method output or synthetic vectors) can macro-average
/// without re-running predictors. Walks runs in order; deterministic.
MethodResult aggregate_method(std::string name,
                              std::span<const JobRunResult> runs);

/// Per-job run results for one method (used by the scheduler benches, which
/// need flag times rather than aggregate rates). Same parallelism and
/// determinism contract as evaluate_method; results are in job order.
std::vector<JobRunResult> run_method(const core::NamedPredictor& method,
                                     std::span<const trace::Job> jobs,
                                     double pct = 90.0,
                                     std::size_t threads = 0);

}  // namespace nurd::eval
