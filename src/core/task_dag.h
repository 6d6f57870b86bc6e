// The checkpoint executor: runs per-job checkpoint CHAINS on lanes of its
// own. NURD's Algorithm 1 is sequential within a job — checkpoint t's models
// are trained on what finished by t and the next checkpoint continues from
// them — so the executor never overlaps two checkpoints of one job. A shard
// serves many jobs at once, and that is where the parallelism comes from:
// jobs run concurrently across lanes, each job one checkpoint at a time.
//
// A checkpoint is one task: the runner callback executes its four stages —
// featurize → refit → predict → flag — back to back on one lane. Per job the
// executor keeps a FIFO of admitted checkpoints plus `running` and
// `cancelled` flags; lanes pop JOBS from one ready queue. A job enters the
// queue's newest end when it becomes ready — on admission, or when a lane
// finishes one of its checkpoints and it has more admitted. Lanes pop the
// newest end, so a checkpoint admitted while a lane is free starts at once
// (the median decision latency is one checkpoint's run time), and every
// fourth pop takes the oldest end instead, so no job waits until
// admissions pause.
//
// It owns its execution lanes: with `lanes` > 0 it spawns and joins that
// many threads; with 0 lanes the thread that admits a checkpoint runs it
// before admit() returns. Each lane holds a ThreadPool::SerialScope, so a
// parallel_for inside a checkpoint (a tree fit's feature fan-out) stays on
// its lane. Bookkeeping (admission, ready queue, retirement) runs under one
// mutex; checkpoint bodies are model fits, milliseconds long, so the lock is
// noise.
//
// Errors: a checkpoint that throws reports through on_error and cancels its
// job for good — the job's remaining admitted checkpoints (the failing one
// included) retire through on_retire(completed=false), so the caller's
// in-flight accounting still drains, and later admits of the job are
// refused. Other jobs are untouched.
//
// Determinism: the executor decides only WHEN checkpoints run, never what
// they compute. A job's checkpoints run in admission order, one at a time,
// so any schedule yields bit-identical per-checkpoint results — the serving
// layer's flag-set determinism contract rests on that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>

namespace nurd::core {

/// The four pipeline stages of one checkpoint, in execution order. The
/// executor runs them as one task; the serving layer times each.
enum class Stage : std::uint8_t {
  kFeaturize = 0,  ///< bind the checkpoint view
  kRefit = 1,      ///< compute the candidates, update the models
  kPredict = 2,    ///< score candidates, record flags
  kFlag = 3,       ///< confusion accounting + sink emission
};

inline constexpr std::size_t kStageCount = 4;

const char* stage_name(Stage stage);

/// Per-job checkpoint-chain executor.
///
/// Lifecycle: construct (the lanes start) → admit() checkpoints (any
/// thread) → close() → wait() → destroy (the lanes join). The runner
/// callback executes whole checkpoints on the lanes, or on the admitting
/// thread at 0 lanes; on_retire fires once per admitted checkpoint
/// (completed or cancelled); on_error fires at most once per job, after
/// which the job is cancelled. Neither callback may throw: on a lane there
/// is no caller to rethrow to.
class TaskDag {
 public:
  /// Executes checkpoint `checkpoint` of job `job`. Calls for one job never
  /// overlap and follow admission order; calls for different jobs are
  /// concurrent when the dag has more than one lane. An exception cancels
  /// the job (see on_error).
  using CheckpointFn =
      std::function<void(std::size_t job, std::size_t checkpoint)>;
  /// Called after checkpoint (job, checkpoint) leaves the executor — it ran
  /// (completed=true) or its job was cancelled (completed=false). Runs
  /// outside the executor lock. A completed checkpoint retires before the
  /// job's next checkpoint starts, so a job's retirements arrive in order.
  using RetireFn =
      std::function<void(std::size_t job, std::size_t checkpoint,
                         bool completed)>;
  /// Called with the exception a checkpoint threw, before the job's
  /// remaining checkpoints retire as cancelled. Runs outside the lock.
  using ErrorFn = std::function<void(std::size_t job, std::exception_ptr)>;

  /// Spawns `lanes` executor threads (0 = run checkpoints inline in
  /// admit()).
  TaskDag(std::size_t jobs, std::size_t lanes, CheckpointFn run,
          RetireFn on_retire = nullptr, ErrorFn on_error = nullptr);
  /// Drops any work still queued (without callbacks) and joins the lanes.
  ~TaskDag();

  TaskDag(const TaskDag&) = delete;
  TaskDag& operator=(const TaskDag&) = delete;

  /// Admits checkpoint `checkpoint` of job `job`. A job's first admission
  /// may be at any checkpoint (a job handed off mid-stream starts at its
  /// boundary); after that its admissions must be consecutive. Admissions
  /// for different jobs may interleave from any thread. Returns false
  /// (admitting nothing) when the job was cancelled. At 0 lanes the calling
  /// thread then runs every queued checkpoint, callbacks included, before
  /// returning: on a single admitting thread each admitted checkpoint has
  /// retired when admit() returns.
  bool admit(std::size_t job, std::size_t checkpoint);

  /// Declares admission finished: once every admitted checkpoint retired,
  /// the lanes exit (the destructor joins them).
  void close();

  /// Blocks until close() was called and every admitted checkpoint has
  /// retired.
  void wait();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nurd::core
