#include "core/fit_session.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nurd::core {

bool warm_refresh_due(const trace::CheckpointView& view, std::size_t now,
                      std::size_t at_full_fit) {
  // Trees cannot extrapolate: each batch of completions reveals latencies
  // beyond the last fit's training support, and active-set continuation
  // rounds track the reference refit only approximately, so while the
  // training set is outgrowing the ensemble's from-scratch foundation
  // (+12.5%) the model refits whole — on bitwise-identical blocks, so each
  // refresh lands exactly on the kFull reference model and the accumulated
  // continuation drift resets to zero. The refreshes stop for good once
  // three quarters of the job has finished (the foundation then covers the
  // bulk of the distribution and the remaining completions are the thin
  // tail continuations absorb well) or 70% of the checkpoint grid has
  // elapsed (slow-completing jobs must not refresh late either): the LATE
  // checkpoints are where a full refit is at its most expensive, and
  // keeping refreshes out of that window is what the per-checkpoint cost
  // win is made of.
  const bool early =
      view.finished_fraction() < 0.75 &&
      10 * view.index() < 7 * view.store().checkpoint_count();
  return early && 8 * now >= 9 * at_full_fit;
}

void refit_finished_gbt(FitSession& session, const ml::GbtParams& params,
                        GbtRefitState* state) {
  NURD_CHECK(state != nullptr, "refit_finished_gbt needs a state slot");
  const Matrix& x_fin = session.x_fin();
  const auto y_fin = session.y_fin();
  NURD_CHECK(!x_fin.empty(), "refit_finished_gbt needs finished tasks");
  auto& model = state->model;

  // Geometric refresh (see warm_refresh_due): refit whole while the block
  // is still outgrowing its from-scratch foundation — the block is bitwise
  // the kFull block, so each refresh lands exactly on the reference model —
  // and continue once growth tapers.
  const bool can_continue =
      session.incremental() && model.has_value() && session.advanced() &&
      state->last_fit_checkpoint != trace::kNoCheckpoint &&
      !warm_refresh_due(session.current_view(), x_fin.rows(),
                        model->full_fit_rows());
  if (!can_continue) {
    auto warm = params;
    warm.warm_start = session.incremental();
    model.emplace(ml::GradientBoosting::regressor(warm));
    model->fit(x_fin, y_fin);
  } else if (x_fin.rows() > model->trained_rows()) {
    // Finished rows are frozen: the block changed only by the tasks that
    // finished since the model's last fit, spliced in at their id-ordered
    // positions. Locate them (two sorted walks) and hand continue_fit the
    // insertion map.
    session.current_view().delta_since(state->last_fit_checkpoint,
                                       &state->id_scratch, nullptr);
    const auto ids = session.fin_ids();
    state->pos_scratch.clear();
    state->pos_scratch.reserve(state->id_scratch.size());
    std::size_t next = 0;
    for (std::size_t r = 0; r < ids.size() && next < state->id_scratch.size();
         ++r) {
      if (ids[r] == state->id_scratch[next]) {
        state->pos_scratch.push_back(r);
        ++next;
      }
    }
    NURD_CHECK(next == state->id_scratch.size(),
               "newly finished tasks must appear in the finished block");
    // Full round BUDGET, delta-sized round COST: the continuation boosts
    // n_rounds active-set rounds over just the spliced-in rows (see
    // GradientBoosting::continue_fit) — absorption per round is
    // multiplicative, so fewer rounds would under-fit the fresh tail no
    // matter how small the delta, while active-set rounds make each round
    // cheap instead.
    model->continue_fit(x_fin, y_fin, std::min(24, std::max(1, params.n_rounds / 2)),
                        /*changed_rows=*/{}, state->pos_scratch);
  }
  state->last_fit_checkpoint = session.checkpoint();
}

void FitSession::reset() {
  view_ = nullptr;
  stream_ = nullptr;
  t_ = trace::kNoCheckpoint;
  advanced_ = false;
  newly_finished_.clear();
  changed_rows_.clear();
  invalidate_blocks();
}

void FitSession::invalidate_blocks() {
  fin_as_of_ = trace::kNoCheckpoint;
  member_as_of_ = trace::kNoCheckpoint;
  snapshot_as_of_ = trace::kNoCheckpoint;
}

void FitSession::observe(const trace::CheckpointView& view) {
  const trace::TraceStore* stream = &view.store();
  advanced_ = stream == stream_ && t_ != trace::kNoCheckpoint &&
              view.index() >= t_;
  if (advanced_) {
    // Forward step (or a repeated view, whose delta is empty) of the stream
    // we have been watching: the delta is a true increment, and every block
    // assembled so far is a valid base.
    view.delta_since(t_, &newly_finished_, &changed_rows_);
  } else {
    // First observe, a different job, or a rewind: everything is new.
    view.delta_since(trace::kNoCheckpoint, &newly_finished_, &changed_rows_);
    invalidate_blocks();
  }
  view_ = &view;
  stream_ = stream;
  t_ = view.index();
}

const trace::CheckpointView* FitSession::view() const {
  NURD_CHECK(view_ != nullptr && view_->index() == t_,
             "observe() a view before reading session blocks");
  return view_;
}

void FitSession::assemble_fin() {
  const trace::CheckpointView& view = *this->view();
  if (fin_as_of_ == view.index()) return;
  // The seed's exact assembly under BOTH policies: finished rows gathered in
  // ascending task id. Bitwise-identical blocks are what let an incremental
  // refresh rebuild the exact reference ensemble (boosted-tree fits are
  // chaotic in their inputs; see the header's policy contract). A gather is
  // O(n_fin·d) copy — noise next to any fit on the block — so kIncremental
  // buys nothing by appending here and instead hands warm models the splice
  // positions (refit_finished_gbt).
  view.gather_rows(view.finished(), &x_fin_);
  view.finished_latencies(&y_fin_);
  const auto fin = view.finished();
  fin_ids_.assign(fin.begin(), fin.end());
  fin_as_of_ = view.index();
}

void FitSession::assemble_member() {
  const trace::CheckpointView& view = *this->view();
  if (member_as_of_ == view.index()) return;
  // The seed's exact propensity assembly under BOTH policies: finished rows
  // (label 1) followed by running rows (label 0). An id-ordered design would
  // be cheaper to maintain from the delta, but the assembly is an O(n·d)
  // copy while the logistic fit on it is O(iters·n·d²) — and even though the
  // fit is convex, row order perturbs the Newton path enough (iteration caps,
  // near-degenerate Hessians breaking early) to matter downstream of the
  // chaotic reweighting consumers. Same bytes, same model.
  const auto fin = view.finished();
  const auto run = view.running();
  x_member_.reset(view.feature_count());
  x_member_.reserve_rows(fin.size() + run.size());
  y_member_.clear();
  y_member_.reserve(fin.size() + run.size());
  for (const auto task : fin) {
    x_member_.push_row(view.row(task));
    y_member_.push_back(1.0);
  }
  for (const auto task : run) {
    x_member_.push_row(view.row(task));
    y_member_.push_back(0.0);
  }
  member_as_of_ = view.index();
}

void FitSession::assemble_snapshot() {
  const trace::CheckpointView& view = *this->view();
  if (snapshot_as_of_ == view.index()) return;
  if (incremental() && snapshot_as_of_ != trace::kNoCheckpoint &&
      snapshot_as_of_ < view.index()) {
    // Patch exactly the rows the store change-detected since the checkpoint
    // the snapshot last reflected (several back when a predictor skipped
    // checkpoints); every other row is bitwise what a full rebuild would
    // write.
    view.delta_since(snapshot_as_of_, nullptr, &delta_scratch_);
    for (const auto task : delta_scratch_) {
      const auto src = view.row(task);
      std::copy(src.begin(), src.end(), snapshot_.row(task).begin());
    }
  } else {
    view.snapshot(&snapshot_);
  }
  snapshot_as_of_ = view.index();
}

const Matrix& FitSession::x_fin() {
  assemble_fin();
  return x_fin_;
}

std::span<const double> FitSession::y_fin() {
  assemble_fin();
  return y_fin_;
}

std::span<const std::size_t> FitSession::fin_ids() {
  assemble_fin();
  return fin_ids_;
}

const Matrix& FitSession::x_member() {
  assemble_member();
  return x_member_;
}

std::span<const double> FitSession::y_member() {
  assemble_member();
  return y_member_;
}

const Matrix& FitSession::snapshot() {
  assemble_snapshot();
  return snapshot_;
}

}  // namespace nurd::core
