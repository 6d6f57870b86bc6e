// Columnar per-job trace storage.
//
// The seed data model materialized one dense n×d feature matrix PER
// checkpoint (O(T·n·d) bytes per job). Production traces do not need that:
// a task's observable metrics freeze the moment it completes (its counters
// stop moving), and most running tasks' aggregate counters are temporally
// coherent between adjacent checkpoints. TraceStore exploits both:
//
//   * every task stores ONE base row-version at the first checkpoint (the
//     "base feature block");
//   * a later checkpoint stores a row-version ONLY for tasks whose observed
//     row actually changed (drifting running tasks, and the final frozen
//     observation of a task completing between two checkpoints);
//   * the finished/running partition of EVERY checkpoint is one prefix
//     length ("split") into a single latency-sorted task permutation:
//     finished sets are nested (monotone in τrun), so no per-checkpoint id
//     vectors are stored at all. That permutation is deliberately an
//     internal detail: enumerating running tasks in latency order would
//     rank them by their unrevealed latencies — a future-information oracle
//     — so the public partition accessors emit ascending task-id order
//     (reconstructed on demand), which depends on nothing hidden.
//
// Memory per job is O(n·d + Σ_t |changed_t|·d) — bounded above by
// O(n·d + Σ_t |running_t|·d) since frozen tasks never change — instead of
// O(T·n·d). tests/test_trace_store.cpp checks the ratio on generated jobs.
//
// Build protocol: construct with the true latency vector, call
// append_checkpoint() once per horizon in ascending τ order, then
// finalize(). finalize() compacts the per-task version lists into a
// task-major CSR index; all read accessors require a finalized store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace nurd::trace {

/// Sentinel: task is still running at the last checkpoint.
inline constexpr std::size_t kNeverFrozen =
    std::numeric_limits<std::size_t>::max();

/// Sentinel for delta queries: "no checkpoint observed yet" — everything
/// finished is newly finished and every task's row counts as changed.
inline constexpr std::size_t kNoCheckpoint =
    std::numeric_limits<std::size_t>::max();

class TraceStore {
 public:
  TraceStore() = default;

  /// Starts an empty store for tasks with the given true latencies, each
  /// described by `feature_count` features.
  TraceStore(std::vector<double> latencies, std::size_t feature_count);

  /// Writes task `task`'s observed feature row (length feature_count) into
  /// `row`. Must be a pure function of (task, current horizon).
  using RowWriter =
      std::function<void(std::size_t task, std::span<double> row)>;

  /// Appends the next checkpoint at horizon `tau` (strictly ascending).
  /// The store derives the finished/running partition from the latencies and
  /// invokes `write_row` exactly once per task whose row it may need to
  /// store: every still-running task (its drifting observation at `tau`) and
  /// every task finishing in (prev_tau, tau] (its frozen observation at its
  /// completion time). Tasks frozen at an earlier checkpoint are never asked
  /// again, and a produced row that is bitwise identical to the task's
  /// previous stored version costs no memory.
  void append_checkpoint(double tau, const RowWriter& write_row);

  /// Seals the store: compacts the version index. Idempotent.
  void finalize();
  bool finalized() const { return finalized_; }

  std::size_t task_count() const { return latencies_.size(); }
  std::size_t feature_count() const { return d_; }
  std::size_t checkpoint_count() const { return taus_.size(); }

  /// True per-task latencies (the trace ground truth). Whether a caller may
  /// look at a specific task's latency at a specific horizon is enforced one
  /// layer up, by CheckpointView::revealed_latency.
  std::span<const double> latencies() const { return latencies_; }
  double latency(std::size_t task) const;

  /// Observation horizon τrun of checkpoint `t`.
  double tau_run(std::size_t t) const;

  /// Number of tasks finished by checkpoint `t`.
  std::size_t finished_count(std::size_t t) const;

  /// Fills `*finished` / `*running` with the tasks finished by / still
  /// running at checkpoint `t`, both in ascending task-id order, reusing the
  /// vectors' capacity. Either pointer may be null to skip that side. Task-id
  /// order is part of the online contract: it is the one enumeration that
  /// reveals nothing about the running tasks' unrevealed latencies.
  void partition(std::size_t t, std::vector<std::size_t>* finished,
                 std::vector<std::size_t>* running) const;

  /// Convenience copies of the two partition sides (ascending task id).
  std::vector<std::size_t> finished(std::size_t t) const;
  std::vector<std::size_t> running(std::size_t t) const;

  /// True iff `task` has finished by checkpoint `t`.
  bool is_finished(std::size_t t, std::size_t task) const;

  /// Incremental-observer delta between two checkpoints of the same stream:
  /// fills `*newly_finished` with the tasks finishing in (prev, t] and
  /// `*changed_rows` with the tasks whose observed row at `t` differs from
  /// their row at `prev` (i.e. tasks with a change-detected overlay version
  /// stamped in (prev, t] — a task completing with a bitwise-unchanged row is
  /// newly finished but NOT a changed row). Both sides come back in ascending
  /// task-id order, reuse the vectors' capacity, and may be null to skip.
  /// `prev == kNoCheckpoint` means nothing was observed yet: every finished
  /// task is newly finished and every task's row is new. `prev == t` yields
  /// empty deltas. Requires prev <= t (or the sentinel) — the store only
  /// streams forward.
  void delta(std::size_t prev, std::size_t t,
             std::vector<std::size_t>* newly_finished,
             std::vector<std::size_t>* changed_rows) const;

  /// Checkpoint at which `task`'s row froze (first checkpoint where it is
  /// finished), or kNeverFrozen.
  std::size_t freeze_checkpoint(std::size_t task) const;

  /// Task `task`'s observed feature row at checkpoint `t`: its latest stored
  /// version at or before `t` (the frozen row once the task has finished).
  std::span<const double> row(std::size_t t, std::size_t task) const;

  /// Dense n×d snapshot of checkpoint `t` (benches, CSV export, parity
  /// tests) — the seed's per-checkpoint matrix, reconstructed on demand.
  Matrix materialize(std::size_t t) const;

  /// Total stored row-versions (n base rows + overlay rows).
  std::size_t version_count() const;

  /// Bytes held by the sealed store (payload of every internal array).
  std::size_t memory_bytes() const;

  /// Bytes the seed's fully-materialized representation of the same trace
  /// would occupy: T dense n×d matrices plus per-checkpoint partition index
  /// vectors. The reference tests/test_trace_store.cpp holds memory_bytes()
  /// against.
  std::size_t materialized_bytes() const;

 private:
  void check_finalized() const;

  std::size_t d_ = 0;
  std::vector<double> latencies_;
  std::vector<std::size_t> by_latency_;  ///< task ids sorted by (latency, id)
  std::vector<std::uint32_t> rank_;      ///< task -> position in by_latency_
  std::vector<double> taus_;
  std::vector<std::uint32_t> split_;     ///< finished prefix length per cp

  // Version storage during building: one (checkpoint, slot) list per task,
  // rows appended checkpoint-major into build_data_.
  struct BuildVersion {
    std::uint32_t checkpoint;
    std::uint32_t slot;
  };
  std::vector<std::vector<BuildVersion>> build_versions_;
  std::vector<double> build_data_;
  std::vector<double> scratch_row_;

  // Sealed CSR index (task-major): task i's versions occupy
  // [version_offset_[i], version_offset_[i+1]) in version_cp_ (checkpoint
  // stamps, ascending per task) and version_data_ (rows).
  bool finalized_ = false;
  std::vector<std::uint32_t> version_offset_;
  std::vector<std::uint16_t> version_cp_;
  std::vector<double> version_data_;

  // Checkpoint-major inverse of the CSR index (also built by finalize): the
  // tasks with a version stamped at checkpoint t occupy
  // [cp_offset_[t], cp_offset_[t+1]) of cp_task_, in ascending task id. This
  // is what makes delta()'s changed-rows side O(|changed|) instead of a scan
  // over every task's version list.
  std::vector<std::uint32_t> cp_offset_;
  std::vector<std::uint32_t> cp_task_;
};

}  // namespace nurd::trace
