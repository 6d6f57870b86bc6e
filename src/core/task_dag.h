// The checkpoint executor: a dependency-graph scheduler that overlaps the
// STAGES of different checkpoints of one job, instead of running each
// checkpoint's featurize → refit → predict → flag as one monolithic task.
// It owns its execution lanes: with `lanes` > 0 it spawns and joins that many
// threads; with 0 lanes the thread that admits a checkpoint runs every stage
// the admission makes ready before admit() returns.
//
// Tasks are keyed by (job, checkpoint, stage) with the stage pipeline
//
//        Featurize(j,t) ──► Refit(j,t) ──► Predict(j,t) ──► Flag(j,t)
//
// and the cross-checkpoint edges that encode what ACTUALLY depends on what:
//
//   Featurize(j,t) ◄─ Featurize(j,t-1)        stream/delta state advances in
//                                             checkpoint order
//   Featurize(j,t) ◄─ Refit(j,t-A)            featurization runs at most A-1
//                                             checkpoints ahead of the refit
//                                             consuming its blocks (A =
//                                             kFeaturizeAhead = 2, what the
//                                             FitSession double buffer needs)
//   Featurize(j,t) ◄─ Flag(j,t-W)             the per-job in-flight WINDOW:
//                                             at most W checkpoints of one
//                                             job live at once (W =
//                                             kDagWindow = 4; bounds the
//                                             scratch-cell ring)
//   Refit(j,t)     ◄─ Refit(j,t-1)            the model chain — checkpoint
//                                             t's refit never observes state
//                                             newer than t-1's model
//   Refit(j,t)     ◄─ Predict(j,t-1)          a refit must not mutate models
//                                             a predict is still scoring with
//   Predict(j,t)   ◄─ Flag(j,t-1)             predict writes the flag record
//                                             the previous flag stage reads
//   Flag(j,t)      ◄─ Flag(j,t-1)             per-job flag emission order
//
// Note what is NOT an edge: Refit(j,t+1) does not wait for Flag(j,t) — flag
// emission (confusion accounting + sink delivery, e.g. a live cluster feed)
// never blocks the next fit — and Featurize(j,t+1) does not wait for
// Refit(j,t), which is the overlap the executor exists for. Checkpoints of
// DIFFERENT jobs share no edges at all.
//
// Scheduling: ready tasks go to per-lane deques — a completing task pushes
// the dependents it unlocks onto ITS lane's deque (the next stage of the
// same checkpoint stays cache-warm), lanes pop their own deque LIFO and
// steal FIFO from the others when empty. Graph bookkeeping (dependency
// counts, admission, retirement) runs under one registry mutex: stage bodies
// are model fits and O(n) scans, microseconds to milliseconds, so the
// bookkeeping lock is noise — the deques exist for locality and steal order,
// not lock avoidance. Each lane holds a ThreadPool::SerialScope, so a
// parallel_for inside a stage (a tree fit's feature fan-out) stays on its
// lane.
//
// Cancellation: every job carries an epoch (generation) counter. cancel_job
// bumps it and drops the job's queued tasks; a task popped with a stale
// epoch is discarded, and a task already RUNNING when its job is cancelled
// completes harmlessly — its completion bookkeeping sees the stale epoch and
// is ignored. The error path uses exactly this: a stage that throws reports
// through on_error and cancels its job, surfacing every dropped checkpoint
// through on_retire(completed=false) so the caller's in-flight accounting
// still drains.
//
// Determinism: the executor decides only WHEN tasks run, never what they
// compute. Any schedule that honors the edges above yields bit-identical
// per-checkpoint results — the serving layer's flag-set determinism contract
// rests on the edges, not on timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>

namespace nurd::core {

/// The four pipeline stages of one checkpoint, in execution order.
enum class Stage : std::uint8_t {
  kFeaturize = 0,  ///< bind the view, assemble feature blocks
  kRefit = 1,      ///< consume the blocks, update the models
  kPredict = 2,    ///< score candidates, record flags
  kFlag = 3,       ///< confusion accounting + sink emission
};

inline constexpr std::size_t kStageCount = 4;

/// Per-job in-flight window W: Featurize(j,t) waits for Flag(j,t-W), so at
/// most W checkpoints of one job are live at once. Callers size their
/// per-checkpoint scratch ring by it.
inline constexpr std::size_t kDagWindow = 4;

/// Featurize-ahead bound A: Featurize(j,t) waits for Refit(j,t-A). A = 2
/// matches the FitSession double buffer (featurization runs at most one
/// checkpoint ahead of the refit consuming its blocks).
inline constexpr std::size_t kFeaturizeAhead = 2;
static_assert(kDagWindow >= kFeaturizeAhead,
              "the window must cover the featurize-ahead bound");

const char* stage_name(Stage stage);

/// One schedulable task: stage `stage` of checkpoint `checkpoint` of job
/// `job`, tagged with the job epoch it was admitted under.
struct TaskKey {
  std::size_t job = 0;
  std::size_t checkpoint = 0;
  Stage stage = Stage::kFeaturize;
  std::uint64_t epoch = 0;
};

/// Dependency-graph executor over the four-stage checkpoint pipeline.
///
/// Lifecycle: construct (the lanes start) → admit() checkpoints (any
/// thread, ascending per job) → close() → wait() → destroy (the lanes
/// join). The runner callback executes stage bodies on the lanes, or on the
/// admitting thread at 0 lanes; on_retire fires once per admitted
/// checkpoint (completed or cancelled); on_error fires at most once per job
/// epoch, after which the job is cancelled. Neither callback may throw: on a
/// lane there is no caller to rethrow to.
class TaskDag {
 public:
  /// Executes the work of one task. Calls for the same job are ordered by
  /// the pipeline edges; calls for different jobs are concurrent when the
  /// dag has more than one lane. An exception cancels the task's job (see
  /// on_error).
  using StageFn = std::function<void(const TaskKey&)>;
  /// Called after checkpoint (job, checkpoint) leaves the graph — its Flag
  /// stage completed (completed=true) or its job was cancelled mid-flight
  /// (completed=false). Runs outside the registry lock; callbacks for a
  /// job's consecutive checkpoints may therefore interleave out of order
  /// (per-job ORDER guarantees belong to the stage bodies — the Flag chain —
  /// not to retirement notification).
  using RetireFn =
      std::function<void(std::size_t job, std::size_t checkpoint,
                         bool completed)>;
  /// Called with the exception a stage threw, before the job's remaining
  /// checkpoints retire as cancelled. Runs outside the registry lock.
  using ErrorFn = std::function<void(std::size_t job, std::exception_ptr)>;

  /// Spawns `lanes` executor threads (0 = run stages inline in admit()).
  TaskDag(std::size_t jobs, std::size_t lanes, StageFn run,
          RetireFn on_retire = nullptr, ErrorFn on_error = nullptr);
  /// Drops any work still queued (without callbacks) and joins the lanes.
  ~TaskDag();

  TaskDag(const TaskDag&) = delete;
  TaskDag& operator=(const TaskDag&) = delete;

  /// Admits checkpoint `checkpoint` of job `job` — all four stage tasks with
  /// their edges. Per job, checkpoints must be admitted in ascending order
  /// with no gaps; admissions for different jobs may interleave from any
  /// thread. Returns false (admitting nothing) when the job was cancelled.
  /// At 0 lanes the calling thread then runs every ready stage, callbacks
  /// included, before returning: on a single admitting thread each admitted
  /// checkpoint has retired when admit() returns.
  bool admit(std::size_t job, std::size_t checkpoint);

  /// Declares that job `job`'s first admission will be checkpoint
  /// `first_checkpoint` rather than 0: every earlier checkpoint counts as
  /// already complete, so cross-checkpoint edges reaching below the boundary
  /// are satisfied immediately. This is the migration hook the sharded
  /// serving layer uses — when a drained shard hands a job off mid-stream,
  /// the receiving executor starts the job's pipeline at the handoff
  /// boundary instead of replaying its history. Call before the job's first
  /// admit(); the job must have no admission history in THIS dag.
  void begin_job_at(std::size_t job, std::size_t first_checkpoint);

  /// Bumps the job's epoch and drops its queued/live checkpoints, retiring
  /// each through on_retire(completed=false). Stages of the job already
  /// running complete harmlessly (stale-epoch completions are ignored).
  /// Returns the new epoch.
  std::uint64_t cancel_job(std::size_t job);

  /// Declares admission finished: once the graph drains, the lanes exit
  /// (the destructor joins them).
  void close();

  /// Blocks until close() was called and every admitted checkpoint has
  /// retired.
  void wait();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nurd::core
