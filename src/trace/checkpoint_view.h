// The online observation boundary. A CheckpointView is everything a
// predictor may legally see at one horizon τrun_t:
//
//   * the finished/running partition and the horizon itself, both sides
//     enumerated in ascending TASK-ID order. The ordering is part of the
//     discipline: the store internally partitions via a latency-sorted
//     permutation, and handing that order out would present still-running
//     tasks ranked by their unrevealed latencies — a future-information
//     oracle for any order-sensitive predictor. Task-id order is a function
//     of revealed information only (it also matches the seed's enumeration,
//     keeping floating-point accumulation order reproducible);
//   * every task's CURRENT feature row (finished tasks frozen at their
//     completion, running tasks at τrun_t);
//   * the latency of a task ONLY once it has finished — querying a running
//     task's latency throws. This turns the paper's §6 online discipline
//     ("the simulator sends the predictor the features that would be
//     available at each time checkpoint") from a convention into an
//     enforced interface: predictors receive a view, not the job.
//
// A view owns its id-ordered partition (one O(n) pass at construction) and
// otherwise points into the store; construct one per checkpoint, not per
// accessor call. The row accessor is normally backed by the columnar
// TraceStore; the alternate constructor backs it by a dense materialized
// snapshot instead, which is how the golden-parity test proves the columnar
// reconstruction is exact.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/matrix.h"
#include "trace/trace_store.h"

namespace nurd::trace {

class CheckpointView {
 public:
  /// Columnar-backed view of checkpoint `t`. The store must outlive the
  /// view and be finalized.
  CheckpointView(const TraceStore& store, std::size_t t);

  /// Dense-backed view: partition and latencies still come from the store,
  /// rows from `snapshot` (an n×d materialized matrix that must outlive the
  /// view). Used by parity tests and offline tooling.
  CheckpointView(const TraceStore& store, std::size_t t,
                 const Matrix& snapshot);

  std::size_t index() const { return t_; }
  double tau_run() const { return store_->tau_run(t_); }

  /// The backing store — the stream identity an incremental observer (e.g.
  /// core::FitSession) uses to tell "the next view of the same job" from "a
  /// view of some other job".
  const TraceStore& store() const { return *store_; }
  std::size_t task_count() const { return store_->task_count(); }
  std::size_t feature_count() const { return store_->feature_count(); }

  /// Tasks finished by this horizon (ascending task id).
  std::span<const std::size_t> finished() const { return finished_ids_; }

  /// Tasks still running at this horizon (ascending task id — deliberately
  /// NOT latency order, which is unrevealed for running tasks).
  std::span<const std::size_t> running() const { return running_ids_; }

  bool is_finished(std::size_t task) const {
    return store_->is_finished(t_, task);
  }

  double finished_fraction() const;

  /// Task `task`'s observable feature row at this horizon.
  std::span<const double> row(std::size_t task) const;

  /// Latency of a task — ONLY available once it has finished at this
  /// horizon; querying a still-running task throws (the online discipline).
  double revealed_latency(std::size_t task) const;

  /// Gathers the rows of `tasks` into `*out` (|tasks| × d), reusing the
  /// matrix's existing capacity instead of allocating a fresh matrix — the
  /// refit hot path runs this once per model per checkpoint.
  void gather_rows(std::span<const std::size_t> tasks, Matrix* out) const;

  /// Gathers every task's row in task-id order (the dense snapshot the
  /// whole-population detectors fit on), reusing `out`'s capacity.
  void snapshot(Matrix* out) const;

  /// Revealed latencies of the finished set, in finished() order, into the
  /// reused `*out`. Aligned destination: the block feeds kernel-layer batch
  /// primitives downstream (loss gradients, logistic labels).
  void finished_latencies(AlignedVector<double>* out) const;

  /// Delta against a previously observed checkpoint of the same stream:
  /// tasks that finished in (prev, t] and tasks whose observed row changed in
  /// (prev, t], both ascending task id into reused capacity (either pointer
  /// may be null). `prev == kNoCheckpoint` means nothing observed yet;
  /// `prev == index()` yields empty deltas (a repeated view adds nothing).
  /// This is what lets featurization APPEND per checkpoint instead of
  /// rebuilding: the contract `row(t, task) != row(prev, task) ⇒ task ∈
  /// changed_rows` holds for dense-backed views too, since both backings
  /// reconstruct the same observations.
  void delta_since(std::size_t prev, std::vector<std::size_t>* newly_finished,
                   std::vector<std::size_t>* changed_rows) const {
    store_->delta(prev, t_, newly_finished, changed_rows);
  }

  /// Re-points a columnar-backed view at checkpoint `t` of the same store,
  /// reusing the partition vectors' capacity — how a forward walk over a
  /// job's checkpoints avoids reallocating the partition every step.
  void rebind(std::size_t t);

 private:
  const TraceStore* store_;
  const Matrix* dense_ = nullptr;
  std::size_t t_ = 0;
  std::vector<std::size_t> finished_ids_;  ///< ascending task id
  std::vector<std::size_t> running_ids_;   ///< ascending task id
};

}  // namespace nurd::trace
