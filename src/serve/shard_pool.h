// The serving module: many jobs' checkpoint streams served concurrently, the
// regime the paper's Algorithm 1 is written for — a monitor watching MANY
// jobs stream checkpoints against shared compute. ShardedMonitor is the one
// serving frontend: N shards, each with its own task-DAG executor, behind
// seeded hash placement of jobs onto shards, per-tenant admission quotas,
// and graceful shard drain/rebalance. Every planned checkpoint runs the full
// protocol. One shard with one worker runs each checkpoint to completion
// before admitting the next, in plan order.
//
// Every job gets a managed session: a fresh predictor from the method's
// factory (callers serve the registry's RefitPolicy::kIncremental methods —
// a serving session maintains its models between checkpoints) plus an
// eval::OnlineJobRun stepper, the exact per-checkpoint protocol run_job
// uses, labelling stragglers at p90 like eval::run_method. Each checkpoint
// event runs its four stages — featurize → refit → predict → flag — back to
// back on one executor lane, one checkpoint of a job at a time, and every
// flag decision is pushed to the FlagSink installed with set_sink() the
// moment it is emitted.
// Mitigation is measured after run(): FleetResult::runs is the flag table
// sched::simulate_cluster takes, with ShardPlan::arrivals replayed through
// sched::fixed_arrivals as the cluster's timeline.
//
// Two planes, strictly one-way:
//
//   PLAN (simulated time, deterministic)        EXECUTE (wall clock)
//   ─────────────────────────────────────       ─────────────────────────
//   arrival draws → per-tenant GCRA quota   →   one driver thread per
//   deferral → placement (+ drain           →   shard admits its slice of
//   re-placement)                           →   the plan into its TaskDag;
//                                               handoff waits order
//                                               migrated jobs
//
// Every DECISION — which shard a job serves on, when a tenant's event is
// admitted, where a drained shard's jobs go — is computed in the plan plane
// as a pure function of (jobs, arrival process, seeds, config) before any
// worker exists. A shard executes the plan events it is given and decides
// nothing: its driver thread admits them into one core::TaskDag, with at
// most 4 × workers events admitted and not yet retired. With more than one
// worker the dag runs jobs' checkpoint chains on that many lanes of its
// own, different jobs in parallel; with one, it has no lanes and the driver
// runs each admitted checkpoint inline before admitting the next.
// Execution timing can reorder WHEN checkpoints of different jobs run,
// never WHAT they compute. Consequences, pinned by
// tests/test_shard_pool.cpp:
//
//   * flag-set identity across shard count × thread count: the per-job
//     records (and therefore the flag set) are bit-identical at shards ∈
//     {1, 2, 4} × workers ∈ {1, 4} (and at 16 workers on one shard) — and
//     equal to eval::run_method — because each job's session runs the same
//     per-checkpoint protocol wherever it is placed, and the executor runs
//     a job's checkpoints one at a time, in order;
//   * every FlagDecision carries its plan event's shard, tenant and
//     admission time, and the sink receives exactly the flags recorded in
//     FleetResult::runs, each once;
//   * quotas never change decisions: GCRA deferral shifts an event's
//     ADMISSION time, and per-tenant token times are monotone, so each
//     job's checkpoint order is preserved — an over-quota tenant queues
//     behind its own budget, it does not starve others, and nobody's flags
//     change;
//   * drain/rebalance preserves the per-job checkpoint serial lane: a
//     drained shard finishes its admitted work, its jobs re-place onto open
//     shards, and a job's first event on its new shard waits until the
//     source retired every checkpoint below it — the flag set is
//     bit-identical to the undrained run. Handoffs only ever leave drained
//     shards and drained shards never reopen, so handoff waits cannot form
//     a cycle;
//   * the wall-clock stats (latency percentiles, backlog, throughput) are
//     run-dependent; everything else is reproducible from the seeds.
//
// Thread-safety: a ShardedMonitor is driven by one caller thread
// (construct, run(), collect). The FlagSink is the one callback that
// crosses threads: calls for a single job arrive in checkpoint order, calls
// for different jobs arrive concurrently — the sink synchronizes
// internally and must not call back into the monitor.
//
// Lock ordering (see common/sync.h): each shard's shard_mutex_ and the
// fleet's handoff mutex_ are leaves — no code holds one while taking the
// other or calling out of the module; the sink runs with both released.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fit_session.h"
#include "core/predictor.h"
#include "eval/harness.h"
#include "sched/cluster.h"
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

/// Flag sink: the monitor's online output. Invoked from shard workers
/// (inside the Flag stage) while run() is in progress: calls for one job
/// arrive in checkpoint order; calls for different jobs may be concurrent —
/// implementations synchronize. Every decision the sink receives is also
/// recorded in FleetResult::runs.
using FlagSink = std::function<void(const FlagDecision&)>;

/// QoS class of a tenant's traffic, lowest first. A label only: no serving
/// decision reads it. It is kept because the repository benchmark's tenant
/// table sets TenantSpec::qos.
enum class QoS : std::uint8_t {
  kBatch = 0,
  kStandard = 1,
  kInteractive = 2,
};

/// One tenant of the fleet. Jobs map to tenants via
/// ShardedMonitorConfig::tenant_of.
struct TenantSpec {
  std::string name = "default";
  QoS qos = QoS::kStandard;  ///< label only; nothing reads it
  /// Admission quota: sustained checkpoint events per simulated second a
  /// tenant may admit (GCRA token bucket, burst allowance of 8 events).
  /// 0 = unmetered.
  double quota_rate = 0.0;
};

/// Scheduled drain: shard `shard` stops accepting placements at simulated
/// time `time`; its jobs re-place at their next planned event. Drained
/// shards never reopen.
struct DrainEvent {
  double time = 0.0;
  std::size_t shard = 0;
};

struct ShardedMonitorConfig {
  /// Shard count.
  std::size_t shards = 1;
  /// Stage workers PER SHARD (0 = hardware concurrency). Above 1, each
  /// shard's TaskDag runs that many lanes; at 1 it has none, and the
  /// shard's driver thread runs every checkpoint to retirement before
  /// admitting the next. A shard admits at most 4 × workers checkpoint
  /// events at once.
  std::size_t threads = 1;
  /// Per-job arrival offsets (null = batch), finite and non-negative.
  /// Drawn once from arrival_seed.
  sched::ArrivalProcess arrivals;
  std::uint64_t arrival_seed = 0;
  /// Placement seed. A job lands on splitmix64(placement_seed, job) over
  /// the shards still open, at its first planned event and again when its
  /// shard drains; no other job's placement changes it.
  std::uint64_t placement_seed = 0;
  /// Fleet tenants (empty = one unmetered kStandard "default" tenant).
  std::vector<TenantSpec> tenants;
  /// Tenant index per job (empty = every job tenant 0). Values index
  /// `tenants`.
  std::vector<std::size_t> tenant_of;
  /// Scheduled shard drains (simulated time, finite).
  std::vector<DrainEvent> drains;
  /// Read by nothing in src/: the monitor serves the method it is given.
  /// Kept only because the repository benchmark's fleet config
  /// (nurd_bench.cpp) sets it.
  core::RefitPolicy refit = core::RefitPolicy::kIncremental;
};

/// The deterministic admission plan — inspectable before run() (tests and
/// the bench assert against it directly).
struct ShardPlan {
  struct Event {
    double eligible = 0.0;   ///< arrival + τrun: when the event exists
    double admission = 0.0;  ///< eligible + quota deferral
    std::uint32_t job = 0;
    std::uint32_t checkpoint = 0;
    std::uint32_t shard = 0;
    std::uint32_t tenant = 0;
    bool deferred = false;  ///< admission > eligible (quota held it)
  };
  /// Every checkpoint event, ascending (admission, job, checkpoint).
  std::vector<Event> events;
  /// Absolute arrival offset per job (the draw fixed_arrivals can replay).
  std::vector<double> arrivals;
  /// Tenant index per job (resolved).
  std::vector<std::size_t> tenant_of;
  /// First-placement shard per job.
  std::vector<std::size_t> home_shard;
  struct Handoff {
    std::uint32_t job = 0;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    /// First checkpoint served by `to`; `from` retired everything below.
    std::uint32_t boundary = 0;
  };
  std::vector<Handoff> handoffs;
  std::size_t deferred_events = 0;
};

/// Wall-clock serving statistics for one run().
struct ServeStats {
  std::size_t jobs = 0;
  std::size_t checkpoints = 0;  ///< events processed
  std::size_t flags = 0;        ///< decisions emitted
  std::size_t lanes = 0;        ///< executor workers used
  std::size_t peak_backlog = 0;  ///< max events in flight at once
  double wall_seconds = 0.0;
  double checkpoints_per_sec = 0.0;
  /// Decision latency: admission of a checkpoint event to its checkpoint
  /// retiring (queue wait + all four stages, flags emitted), per event.
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Cumulative busy time per pipeline stage (featurize, refit, predict,
  /// flag — indexed by core::Stage), summed across workers. Together with
  /// wall_seconds this is the stage share of the run: with S workers,
  /// sum(stage_seconds) / (S * wall_seconds) is executor utilization.
  std::array<double, 4> stage_seconds{};
};

/// Per-shard wall-clock stats of one fleet run.
struct ShardStats {
  std::size_t shard = 0;
  std::size_t jobs = 0;  ///< jobs that served ≥ 1 event here
  std::size_t checkpoints = 0;
  std::size_t flags = 0;
  std::size_t peak_backlog = 0;
  double wall_seconds = 0.0;
  double checkpoints_per_sec = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

/// Per-tenant stats: wall-clock latency plus the plan-plane deferral
/// metrics the fairness contract is asserted on — plan numbers are exactly
/// reproducible, wall numbers are not.
struct TenantStats {
  std::string name;
  std::size_t jobs = 0;
  std::size_t checkpoints = 0;
  std::size_t deferred = 0;  ///< events the quota held back
  double max_deferral_s = 0.0;  ///< simulated seconds
  double p50_latency_ms = 0.0;  ///< wall clock
  double p99_latency_ms = 0.0;
};

/// Outcome of one fleet run.
struct FleetResult {
  /// Per-job records in job input order — bit-identical to
  /// eval::run_method at any shard × thread count.
  std::vector<eval::JobRunResult> runs;
  /// Fleet-wide totals (peak_backlog sums the per-shard peaks; lanes is
  /// shards × threads).
  ServeStats totals;
  std::vector<ShardStats> shards;
  std::vector<TenantStats> tenants;
  std::size_t handoffs = 0;  ///< drain migrations executed
};

/// The fleet frontend. Lifecycle: construct (plan is computed here) →
/// inspect plan() → set_sink() → run() once → FleetResult.
class ShardedMonitor {
 public:
  ShardedMonitor(std::span<const trace::Job> jobs,
                 core::NamedPredictor method, ShardedMonitorConfig config);

  ~ShardedMonitor();
  ShardedMonitor(const ShardedMonitor&) = delete;
  ShardedMonitor& operator=(const ShardedMonitor&) = delete;

  /// The deterministic admission plan (valid from construction).
  const ShardPlan& plan() const;

  /// Installs (or replaces) the flag sink before run(); without one,
  /// decisions are counted but not delivered.
  void set_sink(FlagSink sink);

  /// Serves the whole plan. Call once.
  FleetResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nurd::serve
