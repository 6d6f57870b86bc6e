// The per-shard serving engine: the execution core behind each shard of a
// ShardedMonitor (serve/shard_pool.h).
//
// A ShardEngine owns NO policy. It is handed a finished plan — the job
// sessions to drive, the admission-ordered event list (each event optionally
// marked shed or handoff-gated) — and executes it: admits events under a
// bounded in-flight window, runs the four pipeline stages per checkpoint
// (on its private ThreadPool through the task-DAG executor when it has more
// than one worker, or inline on the calling thread, in event order, when it
// has one), emits flags through the hook sink, and reports wall-clock stats.
// Everything that DECIDES — arrival draws, placement, tenant quotas, shed
// selection, drain boundaries — lives in the frontend, computed in
// simulated time before execution starts, so engine scheduling can never
// feed back into the decision plane. That one-way split is what makes the
// serving layer's determinism contract (flag-set identity at any shard count
// x thread count) hold by construction rather than by testing alone.
//
// Sessions are owned by the caller and handed in by span: in the sharded
// fleet a job's session outlives the engine that started it — a drained
// shard's jobs migrate, sessions intact, to another engine, which resumes
// the per-checkpoint protocol exactly where the source stopped (the
// wait_boundary handshake below orders the two engines).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/predictor.h"
#include "eval/harness.h"
#include "trace/job.h"

namespace nurd::serve {

/// One flag decision, as handed to the sink at emission time.
struct FlagDecision {
  std::size_t job = 0;         ///< job input index
  std::size_t task = 0;        ///< task id within the job
  std::size_t checkpoint = 0;  ///< checkpoint the predictor flagged at
  double time = 0.0;           ///< simulated admission time of the event
  std::size_t shard = 0;       ///< serving shard
  std::size_t tenant = 0;      ///< tenant id
};

/// Flag sink. Invoked from pool workers (inside the Flag stage) while run()
/// is in progress: calls for one job arrive in checkpoint order; calls for
/// different jobs may be concurrent — implementations synchronize (see
/// serve::LiveClusterFeed).
using FlagSink = std::function<void(const FlagDecision&)>;

/// A job's managed serving session: predictor + harness stepper + the
/// per-checkpoint scratch ring the DAG stages hand off through (cell
/// t % ring.size(); reuse is safe under the executor's window edge). Owned
/// by the frontend so it survives engine handoffs.
struct JobSession {
  std::unique_ptr<core::StragglerPredictor> predictor;
  std::optional<eval::OnlineJobRun> run;
  std::vector<eval::CheckpointScratch> ring;
};

/// "This event waits for no handoff."
inline constexpr std::size_t kNoHandoff = std::numeric_limits<std::size_t>::max();

/// One admission-plan entry: checkpoint `checkpoint` of job `job` becomes
/// observable at simulated time `time`. The list handed to an engine is the
/// shard's slice of the global plan, ascending in plan admission order
/// (which preserves each job's checkpoint order).
struct EngineEvent {
  double time = 0.0;
  std::uint32_t job = 0;
  std::uint32_t checkpoint = 0;
  /// Load-shed: the checkpoint's model work is skipped (cursors advance,
  /// confusion carries forward, no new flags). Decided by the plan, never
  /// by the engine.
  bool shed = false;
  /// != kNoHandoff: the job migrated here from another engine, and this is
  /// its first event on this one. Admission blocks in hooks.wait_handoff
  /// until the source engine retired every checkpoint below the boundary.
  std::size_t wait_boundary = kNoHandoff;
};

struct EngineConfig {
  /// Stage workers: 1 (default) = fully serialized on the calling thread in
  /// event order — the bit-parity reference; 0 = hardware concurrency;
  /// N = a private pool of N workers running the task-DAG executor.
  std::size_t threads = 1;
  /// Admission bound: at most this many checkpoint events in flight
  /// (admitted, not yet retired). 0 = 4 workers' worth.
  std::size_t max_inflight = 0;
  /// Per-job in-flight window of the DAG executor (>= 2 to overlap).
  std::size_t window = 4;
};

/// Frontend callbacks. `sink` may be null; ShardedMonitor always installs
/// the handoff hooks.
struct EngineHooks {
  /// Flag delivery (outside every engine lock, before the event retires).
  FlagSink sink;
  /// Blocks until the event's job may start here: its previous engine has
  /// retired every checkpoint below `boundary`. Returns false to abandon
  /// (fleet abort) — the engine then drops the job's remaining events.
  /// Called on the admission thread, outside engine locks.
  std::function<bool(std::size_t job, std::size_t boundary)> wait_handoff;
  /// Checkpoint (job, checkpoint) fully retired: stages done, flags
  /// delivered. Called outside engine locks; per job, calls arrive in
  /// checkpoint order for COMPLETED checkpoints (error-path abandonment may
  /// skip). The fleet uses this to release handoff waiters.
  std::function<void(std::size_t job, std::size_t checkpoint)> retired;
};

/// Wall-clock execution stats of one engine run. Latencies stay raw (and
/// job-attributed) so frontends can aggregate per-fleet and per-tenant.
struct EngineStats {
  std::size_t processed = 0;  ///< checkpoint events completed
  std::size_t flags = 0;      ///< decisions emitted
  std::size_t shed = 0;       ///< shed events executed (skipped model work)
  std::size_t workers = 0;    ///< stage workers used
  std::size_t peak_backlog = 0;
  double wall_seconds = 0.0;
  struct Latency {
    std::uint32_t job = 0;
    double seconds = 0.0;  ///< admission -> checkpoint retired
  };
  std::vector<Latency> latencies;
  /// Cumulative busy seconds per pipeline stage (indexed by core::Stage).
  std::array<double, 4> stage_seconds{};
};

/// Executes one shard's slice of a serving plan. Single-use: construct,
/// run() once (from any one thread — the fleet runs one driver thread per
/// engine), read stats. `jobs` and `sessions` are fleet-wide and indexed by
/// EngineEvent::job; sessions of jobs never appearing in `events` are
/// untouched.
class ShardEngine {
 public:
  ShardEngine(std::span<const trace::Job> jobs, std::span<JobSession> sessions,
              std::vector<EngineEvent> events, EngineConfig config,
              EngineHooks hooks);
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Stream low watermark: every event with time strictly below it has been
  /// fully processed (flags emitted). Safe from any thread mid-run.
  double low_watermark() const;

  /// Runs the plan slice to completion. Call once. Throws the first stage
  /// error after draining.
  void run();

  const EngineStats& stats() const;  ///< valid after run()

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nurd::serve
