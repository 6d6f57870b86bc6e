// The shared featurization layer between CheckpointView and the per-method
// models — one FitSession per predictor instance (so one per job, like the
// predictors themselves).
//
// Every Table-3 method assembles some subset of three design blocks at each
// checkpoint:
//   * the finished block  (x_fin, y_fin)   — latency-model training data;
//   * the membership block (x_member, y_member) — finished(1)/running(0)
//     classification data (NURD's propensity fit, XGBOD's pseudo-labels);
//   * the snapshot        (all n rows, ascending task id) — what the
//     whole-population detectors and censored fits consume.
// Before this layer each adapter hand-rolled its own gathers per checkpoint
// (nurd.cpp and baselines.cpp both repeated the same loops).
// FitSession owns the scratch matrices and assembles each block at most once
// per observed checkpoint. After the first observe of a job the snapshot is
// patched from the view's delta (rows changed since the last observe)
// instead of rewritten, so its per-checkpoint cost tracks the delta size
// rather than the job size.
//
// Policy contract:
//   * Under BOTH policies every block is bitwise what the seed's hand-rolled
//     assembly wrote — same row order, same floating-point accumulation
//     order: the snapshot patch writes exactly the bytes a rebuild writes,
//     and the finished and membership blocks are gathered in the seed's
//     order. This is deliberate and load-bearing: boosted-tree fits are
//     chaotic in their inputs — a 1-ulp difference in one value can flip a
//     split tie and cascade into a visibly different ensemble — and since
//     the tuned configs sit at an F1 optimum, any such perturbation
//     systematically DEGRADES the tuned methods. Every method that refits
//     whole is therefore bit-identical to the pre-FitSession code.
//   * The policy only tells the warm-startable learners (NURD's ht and
//     propensity model, GBTR) whether to continue their models between
//     checkpoints. kFull refits from scratch — the golden-parity reference
//     path. Under kIncremental a full refresh rebuilds the exact kFull
//     model, since the blocks are the same bytes; divergence enters only
//     through warm CONTINUATIONS between geometric refreshes. bench_refit
//     quantifies the residual drift.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/matrix.h"
#include "ml/gbt.h"
#include "trace/checkpoint_view.h"

namespace nurd::core {

/// How a method refits its models as checkpoints stream in.
enum class RefitPolicy {
  kFull,         ///< refit from scratch every checkpoint (Algorithm 1 as
                 ///< published; the bit-identical reference path)
  kIncremental,  ///< warm-started model continuation (NURD, NURD-NC, GBTR)
};

/// True when a warm-started model whose last full fit covered `at_full_fit`
/// training rows should refit from scratch now that the set holds `now` at
/// the observed view: refreshes fire on 12.5% growth past the ensemble's
/// foundation (each lands exactly on the kFull reference model, since the
/// session blocks are bitwise identical) and stop for good once 75% of the
/// job has finished OR 70% of the checkpoint grid has elapsed — the late
/// checkpoints, where a full refit is at its most expensive, always take
/// the cheap active-set continuation instead, whatever the job's completion
/// curve looks like.
bool warm_refresh_due(const trace::CheckpointView& view, std::size_t now,
                      std::size_t at_full_fit);

class FitSession;

/// Bookkeeping for a warm-startable finished-block booster (NURD's ht,
/// GBTR): the model plus the checkpoint whose finished block it last
/// absorbed, so the next continuation can splice exactly the newly finished
/// rows into the cached scores and bins.
struct GbtRefitState {
  std::optional<ml::GradientBoosting> model;
  std::size_t last_fit_checkpoint = trace::kNoCheckpoint;
  std::vector<std::size_t> id_scratch;   ///< newly finished task ids
  std::vector<std::size_t> pos_scratch;  ///< their rows in the finished block

  void reset() {
    model.reset();
    last_fit_checkpoint = trace::kNoCheckpoint;
  }
};

/// The shared "latency model on the finished set" refit used by NURD's ht
/// and GBTR. Under kFull it fits a fresh squared-loss booster every call
/// (the bit-identical reference path).
/// Under kIncremental: full warm-retaining refits while the block is still
/// outgrowing the model's foundation (warm_refresh_due) — each of those
/// rebuilds the EXACT kFull ensemble, since the block is bitwise identical —
/// nothing at all when the block did not grow, and active-set continuation
/// rounds on the spliced-in completions otherwise. Requires a non-empty
/// finished set at the observed checkpoint.
void refit_finished_gbt(FitSession& session, const ml::GbtParams& params,
                        GbtRefitState* state);

/// Per-job featurization session: call observe() once per checkpoint, then
/// read the blocks you need — each is assembled lazily, at most once per
/// checkpoint, into reused capacity.
class FitSession {
 public:
  explicit FitSession(RefitPolicy policy = RefitPolicy::kFull)
      : policy_(policy) {}

  /// True under kIncremental: the warm-startable learners continue their
  /// models between checkpoints. Block assembly does not read it.
  bool incremental() const { return policy_ == RefitPolicy::kIncremental; }

  /// Forgets all per-job state (a predictor's initialize() path).
  void reset();

  /// Observes the next checkpoint. The view must stay alive until the last
  /// block accessor call for this checkpoint (predictors observe and read
  /// within one refit_checkpoint or predict_stragglers call, which satisfies
  /// this by construction). Observing fewer than every checkpoint is fine:
  /// the deltas then span every checkpoint since the last observe.
  void observe(const trace::CheckpointView& view);

  /// Checkpoint index of the last observe.
  std::size_t checkpoint() const { return t_; }

  /// The view observed last (valid through this checkpoint's block reads).
  const trace::CheckpointView& current_view() const { return *view(); }

  /// True when the last observe advanced an already-observed stream (the
  /// deltas below are then a single increment); false on the first observe
  /// of a job, where everything finished counts as new.
  bool advanced() const { return advanced_; }

  /// Tasks that finished since the previously observed view (ascending id).
  std::span<const std::size_t> newly_finished() const {
    return newly_finished_;
  }

  // ---- the finished block -------------------------------------------------
  /// Finished tasks' frozen rows, in ascending task id under BOTH policies —
  /// bitwise identical to the seed's assembly, so a from-scratch refit gives
  /// the same ensemble whichever policy is active. Newly finished tasks
  /// splice in at their id position; continue_fit's inserted_rows parameter
  /// is how warm models follow the splice.
  const Matrix& x_fin();
  /// Revealed latencies aligned with x_fin's rows.
  std::span<const double> y_fin();
  /// Task id of each x_fin row.
  std::span<const std::size_t> fin_ids();

  // ---- the membership block ----------------------------------------------
  /// Finished/running classification design: finished rows then running
  /// rows — the seed's exact propensity assembly under BOTH policies (rows
  /// re-sectioned each checkpoint as tasks finish; see the .cpp for why the
  /// assembly is rebuilt rather than delta-maintained).
  const Matrix& x_member();
  /// Labels aligned with x_member: 1.0 finished, 0.0 running.
  std::span<const double> y_member();

  // ---- the snapshot -------------------------------------------------------
  /// Dense n×d matrix of every task's current row, ascending task id. After
  /// the first observe only the rows the delta reports are rewritten; the
  /// content is bitwise what CheckpointView::snapshot writes.
  const Matrix& snapshot();

 private:
  const trace::CheckpointView* view() const;
  /// Drops every assembled block (a new job, or a rewind).
  void invalidate_blocks();
  void assemble_fin();
  void assemble_member();
  void assemble_snapshot();

  RefitPolicy policy_;
  const trace::CheckpointView* view_ = nullptr;
  const trace::TraceStore* stream_ = nullptr;  ///< job identity for deltas
  std::size_t t_ = trace::kNoCheckpoint;
  bool advanced_ = false;
  std::vector<std::size_t> newly_finished_;

  // The design blocks, each tagged with the checkpoint it reflects. Label
  // scratch is 32-byte aligned: these spans feed straight into kernel-layer
  // batch primitives (loss grad/hess, logistic labels).
  Matrix x_fin_;
  AlignedVector<double> y_fin_;
  std::vector<std::size_t> fin_ids_;
  std::size_t fin_as_of_ = trace::kNoCheckpoint;
  Matrix x_member_;  ///< [finished; running] assembly, both policies
  AlignedVector<double> y_member_;
  std::size_t member_as_of_ = trace::kNoCheckpoint;
  Matrix snapshot_;
  std::size_t snapshot_as_of_ = trace::kNoCheckpoint;
  std::vector<std::size_t> delta_scratch_;
};

}  // namespace nurd::core
