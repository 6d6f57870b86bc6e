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
// FitSession owns the scratch matrices, assembles each block at most once
// per observed checkpoint, and — under RefitPolicy::kIncremental — maintains
// them from the view's delta (tasks newly finished, rows changed) instead of
// rebuilding, so per-checkpoint featurization cost tracks the delta size
// rather than the job size.
//
// Policy contract:
//   * kFull reproduces the seed's assembly EXACTLY — same row order, same
//     floating-point accumulation order — so every method driven through a
//     kFull session is bit-identical to the pre-FitSession code. This is the
//     golden-parity reference path.
//   * kIncremental keeps every block BITWISE identical to kFull's (the
//     snapshot is patched from the delta rather than rewritten; the finished
//     and membership blocks are assembled in the seed's exact order). This
//     is deliberate and load-bearing: boosted-tree fits are chaotic in
//     their inputs — a 1-ulp difference in one value can flip a split tie
//     and cascade into a visibly different ensemble — and since the tuned
//     configs sit at an F1 optimum, any such perturbation systematically
//     DEGRADES the tuned methods. Bitwise-equal blocks mean a full refit
//     under kIncremental rebuilds the exact kFull model; divergence enters
//     only through warm CONTINUATIONS between geometric refreshes.
//     bench_refit quantifies the residual drift.
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
  kIncremental,  ///< delta featurization + warm-started model continuation
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

/// Which design blocks a staged featurization pass should assemble (the
/// predictor's featurize hook knows its own consumption; see
/// FitSession::stage).
enum BlockMask : unsigned {
  kFinishedBlock = 1u << 0,
  kMemberBlock = 1u << 1,
  kSnapshotBlock = 1u << 2,
};

/// Per-job featurization session. Two usage modes:
///
/// Monolithic (the seed path): call observe() once per checkpoint, then read
/// the blocks you need — each is assembled lazily, at most once per
/// checkpoint, into reused capacity.
///
/// Staged (the task-DAG pipeline): the Featurize stage calls
/// stage(view, mask) to assemble blocks AHEAD of the refit that consumes
/// them, and the Refit stage calls promote(view) to adopt them. Storage is
/// double-buffered — checkpoint t stages into slot t % 2 — so staging
/// checkpoint t+1 never touches the blocks checkpoint t's refit is still
/// reading. The executor's Featurize(t) ◄─ Refit(t-2) edge is what makes the
/// slot reuse safe; a FitSession therefore supports featurize_ahead <= 2.
/// Every block a stage/promote pair produces is bitwise identical to what
/// observe() would have assembled (same gathers, same order; the snapshot
/// patches from its own slot's delta), so the policy contract above holds
/// unchanged on the staged path.
class FitSession {
 public:
  explicit FitSession(RefitPolicy policy = RefitPolicy::kFull)
      : policy_(policy) {}

  RefitPolicy policy() const { return policy_; }
  bool incremental() const { return policy_ == RefitPolicy::kIncremental; }

  /// Forgets all per-job state (a predictor's initialize() path).
  void reset();

  /// Observes the next checkpoint. The view must stay alive until the last
  /// block accessor call for this checkpoint (predictors observe and read
  /// within one predict_stragglers call, which satisfies this by
  /// construction).
  void observe(const trace::CheckpointView& view);

  /// (staged pipeline) Assembles the blocks in `mask` for `view` into the
  /// slot for view.index(), leaving whatever the current checkpoint's
  /// readers see untouched — safe to run concurrently with block reads for
  /// a DIFFERENT checkpoint, per the double-buffer contract above. Calls for
  /// one session must themselves be serialized (the executor's Featurize
  /// chain does this). The view must stay alive through the promote/read
  /// cycle for this checkpoint (the serving layer's scratch ring satisfies
  /// this).
  void stage(const trace::CheckpointView& view, unsigned mask);

  /// (staged pipeline) Adopts the slot staged for `view` as the current
  /// checkpoint — the blocks observe(view) would have assembled, already
  /// built — and recomputes the delta markers (advanced / newly_finished /
  /// changed_rows) against the checkpoint actually observed last, which may
  /// be further back than view.index()-1 when intervening refits were
  /// skipped. Falls back to a plain observe(view) when nothing (or a
  /// different checkpoint) is staged in the slot. Must run on the refit
  /// chain, like observe().
  void promote(const trace::CheckpointView& view);

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

  /// Tasks whose observed feature row changed since the previously observed
  /// view (ascending id).
  std::span<const std::size_t> changed_rows() const { return changed_rows_; }

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
  /// Dense n×d matrix of every task's current row, ascending task id. The
  /// content is bitwise identical under both policies; kIncremental merely
  /// patches the rows the delta reports instead of rewriting all n.
  const Matrix& snapshot();

 private:
  // One buffer of assembled design blocks. The session keeps two: the
  // monolithic path only ever touches the current one; the staged path
  // alternates by checkpoint parity. Each block carries the checkpoint it
  // reflects (as_of markers) plus a stream tag, so a slot is valid for reuse
  // exactly when both match.
  struct Blocks {
    const trace::TraceStore* stream_tag = nullptr;
    std::size_t staged_index = trace::kNoCheckpoint;  ///< set by stage()

    // Finished block (fin_as_of = checkpoint the block reflects). Label
    // scratch is 32-byte aligned: these spans feed straight into
    // kernel-layer batch primitives (loss grad/hess, logistic labels).
    Matrix x_fin;
    AlignedVector<double> y_fin;
    std::vector<std::size_t> fin_ids;
    std::size_t fin_as_of = trace::kNoCheckpoint;

    // Membership block ([finished; running] assembly, both policies).
    Matrix x_member;
    AlignedVector<double> y_member;
    std::size_t member_as_of = trace::kNoCheckpoint;

    // Snapshot block.
    Matrix snapshot;
    std::size_t snapshot_as_of = trace::kNoCheckpoint;
    std::vector<std::size_t> delta_scratch;

    void invalidate() {
      stream_tag = nullptr;
      staged_index = trace::kNoCheckpoint;
      fin_as_of = trace::kNoCheckpoint;
      member_as_of = trace::kNoCheckpoint;
      snapshot_as_of = trace::kNoCheckpoint;
    }
  };

  const trace::CheckpointView* view() const;
  Blocks& current() { return slots_[cur_]; }

  /// Retags `slot` for the view's stream, dropping every block that was
  /// assembled for a different job.
  static void ensure_stream(const trace::CheckpointView& view, Blocks* slot);
  void assemble_fin(const trace::CheckpointView& view, Blocks* slot);
  void assemble_member(const trace::CheckpointView& view, Blocks* slot);
  void assemble_snapshot(const trace::CheckpointView& view, Blocks* slot);
  /// Sets the delta markers for adopting `view` after the last observed
  /// checkpoint (shared tail of observe() and promote()).
  void adopt_view(const trace::CheckpointView& view);

  RefitPolicy policy_;
  const trace::CheckpointView* view_ = nullptr;
  const trace::TraceStore* stream_ = nullptr;  ///< job identity for deltas
  std::size_t t_ = trace::kNoCheckpoint;
  bool advanced_ = false;
  std::vector<std::size_t> newly_finished_;
  std::vector<std::size_t> changed_rows_;

  Blocks slots_[2];
  std::size_t cur_ = 0;
};

}  // namespace nurd::core
