// Event-driven cluster scheduler simulation.
//
// The per-job schedulers in scheduler.h evaluate mitigation one job at a
// time on a checkpoint-quantized clock. This module generalizes them to a
// shared cluster: many jobs run concurrently against ONE spare-machine pool,
// jobs arrive over continuous time under a pluggable arrival process, and
// every state change is an event on a global priority queue:
//
//   kJobArrival     a job's tasks start on their own machines; its
//                   task-finish and flag events enter the queue
//   kTaskFinish     a task (original or relaunched copy) completes; emits a
//                   machine-release at the same instant
//   kMachineRelease a machine is freed (a natural completion donates its
//                   machine to the pool — or the cluster reclaims it under
//                   ClusterConfig::reclaim_releases; a finished relaunch
//                   copy returns the pool machine it borrowed) and a pooled
//                   machine immediately serves the FIFO queue head — no
//                   waiting for a checkpoint boundary
//   kRelaunch       a flagged task's original is terminated and its copy
//                   starts on the granted machine
//   kFlag           the predictor flags a task (at the flagging checkpoint's
//                   absolute time); the task relaunches now if a machine is
//                   free, otherwise joins the cluster-wide FIFO queue
//   kMachineFail    a pool machine dies (scenario injection): a free machine
//                   leaves the pool, a busy one kills the copy it was running
//                   and the task re-enters the relaunch path immediately
//   kPreempt        the cluster preempts a task's ORIGINAL execution
//                   (scenario injection): the original is terminated and the
//                   task re-enters the relaunch path, exactly as if flagged —
//                   but without a predictor decision behind it
//
// Algorithms 2 and 3 are the single-job special cases: with
// machines = kUnlimitedMachines and batch arrivals the simulation reproduces
// schedule_unlimited bit-identically, and with a finite pool it is the
// continuous-time refinement of schedule_limited (relaunches fire at release
// instants instead of the next checkpoint, and releases after the last
// checkpoint still drain the queue — the artifacts the checkpoint-quantized
// loop used to exhibit by construction).
//
// Determinism contract: ALL randomness is consumed in a canonical setup
// order — arrival times in job input order; then (heterogeneous pools only)
// one machine-class draw per initial pool machine in machine-id order; then
// per task, in job input order and task-id order: the relaunch-latency draw
// (per validly flagged task in precomputed mode, per task in live mode),
// the heterogeneity draws (machine class + straggler luck, iff
// machine_classes is non-empty), the machine-failure offset (iff
// machine_mtbf > 0), and the preemption draws (iff preemption_rate > 0).
// The event loop itself draws nothing, so the RNG stream consumed is a
// function of (jobs, flags, arrival process, injection config) only:
// sweeping machine counts or observing events never perturbs the draws, and
// every injection knob consumes ZERO draws when disabled — legacy streams
// are bit-identical. simulate_cluster_replicated fans replications out over
// the ThreadPool with per-replication Rng::fork streams and is bit-identical
// at any thread count, matching the evaluate_method contract.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/harness.h"
#include "trace/job.h"

namespace nurd::sched {

/// Pool size meaning "a machine is always free" (Algorithm 2 semantics).
inline constexpr std::size_t kUnlimitedMachines =
    std::numeric_limits<std::size_t>::max();

/// Event kinds, in processing order at equal timestamps. Finishes (and the
/// releases they emit) precede flags at the same instant, so a machine freed
/// exactly when a task is flagged can serve that task — the same tie rule as
/// the checkpoint-quantized schedule_limited.
enum class EventKind : int {
  kJobArrival = 0,
  kTaskFinish = 1,
  kMachineRelease = 2,
  kRelaunch = 3,
  kFlag = 4,
  // Scenario-injection events sort AFTER flags at the same instant: a task
  // finishing (or being granted a machine) exactly when disaster strikes
  // still counts as having made it.
  kMachineFail = 5,  ///< `task` field carries the pool machine id
  kPreempt = 6,
};

/// One entry of the global event queue. Events order by (time, kind, job,
/// task, seq) — a deterministic total order.
struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kJobArrival;
  std::uint32_t job = 0;
  std::uint32_t task = 0;  ///< 0 for kJobArrival
  std::uint64_t seq = 0;   ///< queue insertion order (final tiebreak)
};

/// Shared-pool accounting, exposed to the event observer. For a finite pool
/// the conservation invariant
///     free + in_use + failed == initial machines + released
/// holds after every event (relaunch grants move free -> in_use, copy
/// returns move in_use -> free, natural-completion donations grow both sides
/// by one, a machine failure moves exactly one machine from free or in_use
/// into failed; reclaimed releases touch neither side).
struct PoolState {
  std::size_t free = 0;       ///< spare machines available (finite pools)
  std::size_t in_use = 0;     ///< pool machines running relaunched copies
  std::size_t released = 0;   ///< natural completions donated to the pool
  std::size_t reclaimed = 0;  ///< natural completions taken back by the
                              ///< cluster (reclaim_releases mode)
  std::size_t failed = 0;     ///< pool machines lost to injected failures
  std::size_t waiting = 0;   ///< queued FIFO entries (tasks that finish
                             ///< while queued are pruned lazily at dispatch)
  bool unlimited = false;    ///< free is meaningless when set
};

/// Job arrival process: absolute arrival times, one per job in input order.
using ArrivalProcess =
    std::function<std::vector<double>(std::size_t job_count, Rng& rng)>;

/// All jobs arrive at t = 0 (consumes no randomness).
ArrivalProcess batch_arrivals();

/// Replays the given absolute arrival times verbatim (consumes no
/// randomness; `times.size()` must equal the simulated job count). This is
/// how the serving layer hands the SAME draws to both sides of a live run:
/// the ShardedMonitor draws its arrival offsets once, and the cluster engine
/// replays them instead of re-drawing.
ArrivalProcess fixed_arrivals(std::vector<double> times);

/// Poisson process with the given rate (jobs per unit time): arrival times
/// are cumulative sums of Exponential(rate) inter-arrival gaps.
ArrivalProcess poisson_arrivals(double rate);

/// One segment of a piecewise-constant arrival-rate schedule: `rate` applies
/// from `begin` until the next segment's begin (the last segment extends
/// forever). Segments must be in strictly ascending `begin` order and the
/// first must begin at 0.
struct RateSegment {
  double begin = 0.0;
  double rate = 1.0;
};

/// Piecewise-constant Poisson schedule. Each inter-arrival gap is drawn at
/// the rate in force when it starts (a gap straddling a boundary is not
/// re-split) — one exponential per job, so the RNG consumption order never
/// depends on where the boundaries fall. A two-segment schedule such as
/// {{0, 4.0}, {100, 0.02}} is an arrival burst followed by a trickle.
ArrivalProcess piecewise_poisson_arrivals(std::vector<RateSegment> schedule);

/// Diurnal Poisson schedule: rate(t) = base * (1 + amplitude * sin(2*pi *
/// t / period)), evaluated at the start of each inter-arrival gap (one
/// exponential per job). `amplitude` must lie in [0, 1) so the rate stays
/// positive through the trough.
ArrivalProcess diurnal_poisson_arrivals(double base_rate, double amplitude,
                                        double period);

/// One class of a heterogeneous machine pool. A relaunched copy inherits the
/// class of the machine it lands on: its resampled execution time is divided
/// by `speed`, and with probability `straggler_propensity` the copy itself
/// straggles (multiplied by `straggler_factor`). Slow classes carrying high
/// propensity is what makes heterogeneity a scenario axis instead of a
/// constant rescaling — a relaunch can land somewhere worse than the
/// machine it fled.
struct MachineClass {
  std::string name = "standard";
  double weight = 1.0;  ///< sampling weight for class assignment
  double speed = 1.0;   ///< copies run resample / speed on this class
  double straggler_propensity = 0.0;  ///< P(copy straggles on this class)
  double straggler_factor = 3.0;      ///< latency multiplier when it does
};

/// Called after every processed event with the post-event pool state.
/// Stale queue entries (e.g. the natural finish of a task whose original was
/// already terminated) are skipped without observation.
using EventObserver = std::function<void(const Event&, const PoolState&)>;

struct ClusterConfig {
  /// Spare machines shared by all jobs at t = 0 (kUnlimitedMachines for
  /// Algorithm 2 semantics).
  std::size_t machines = 0;
  /// Pool policy for machines freed by natural completions. False (default,
  /// Algorithm 3 semantics): every finishing task donates its machine to the
  /// relaunch pool — with whole batches finishing, donations quickly dwarf
  /// the initial spares. True (dedicated-pool semantics): the cluster
  /// reclaims naturally freed machines for other work, so only the
  /// `machines` reserved spares (recycled as copies finish) serve
  /// relaunches — the regime where spare-count sweeps actually bind.
  bool reclaim_releases = false;
  /// Null means batch_arrivals().
  ArrivalProcess arrivals;
  /// Heterogeneous pool: classes machines are drawn from (by `weight`).
  /// Empty (default) means a homogeneous speed-1 pool and consumes no
  /// randomness. When set, every pool machine — initial spares in machine-id
  /// order, then donated machines through the per-task draws — gets a class,
  /// and relaunch copies run at the speed (and straggler risk) of the
  /// machine they are granted. With kUnlimitedMachines, the per-task class
  /// draw is the class of the fresh machine that task's relaunch lands on.
  std::vector<MachineClass> machine_classes;
  /// Mean time between failures per POOL machine (exponential; absolute for
  /// initial spares, from the donation instant for donated machines).
  /// 0 (default) disables failure injection and consumes no randomness.
  /// Failures are scoped to the relaunch pool — a free machine leaves the
  /// pool, a busy one kills its copy and the task is requeued; originals
  /// running outside the pool are disrupted via `preemption_rate` instead.
  /// Requires a finite pool.
  double machine_mtbf = 0.0;
  /// Per-task probability that the cluster preempts the task's ORIGINAL
  /// execution once, at a uniform point of its lifetime. A preempted task
  /// re-enters the relaunch path (FIFO queue if no machine is free) exactly
  /// as if flagged. 0 (default) disables and consumes no randomness.
  double preemption_rate = 0.0;
  /// Optional event hook (tests, tracing). Must be thread-safe when the
  /// config is shared by simulate_cluster_replicated lanes.
  EventObserver observer;
};

/// Per-job outcome, mirroring ScheduleResult plus cluster timing.
struct ClusterJobStats {
  double arrival = 0.0;         ///< absolute arrival time
  double completion = 0.0;      ///< absolute time the last task finished
  double original_jct = 0.0;    ///< completion time without intervention
  double mitigated_jct = 0.0;   ///< completion - arrival
  std::size_t relaunched = 0;   ///< tasks actually relaunched
  std::size_t waited = 0;       ///< relaunches granted after the flag instant
  std::size_t noop_flags = 0;   ///< flags at/after the task's completion
  std::size_t preempted = 0;    ///< originals killed by injected preemption

  double reduction_pct() const {
    return original_jct > 0.0
               ? 100.0 * (original_jct - mitigated_jct) / original_jct
               : 0.0;
  }
};

/// Outcome of one cluster simulation.
struct ClusterResult {
  std::vector<ClusterJobStats> jobs;  ///< input job order
  double makespan = 0.0;              ///< last completion across the cluster
  std::size_t relaunched = 0;
  std::size_t waited = 0;
  std::size_t noop_flags = 0;
  std::size_t preempted = 0;         ///< injected preemptions that fired
  std::size_t machine_failures = 0;  ///< injected pool-machine deaths
  std::size_t stranded = 0;     ///< tasks still queued when the event queue
                                ///< drained (every pool machine died) —
                                ///< their jobs report no completion
  std::size_t peak_waiting = 0;  ///< FIFO backlog high-water mark
  std::size_t events = 0;        ///< processed (non-stale) events

  /// Mean per-job JCT reduction, percent.
  double mean_reduction_pct() const;
};

/// The event loop behind simulate_cluster, exposed incrementally so callers
/// can interleave simulation with flag PRODUCTION — the serving layer
/// (serve::ShardedMonitor) posts each flag the moment its predictor emits it
/// and advances the cluster behind the stream's low watermark, so relaunch
/// decisions are driven live instead of from a precomputed flag table.
///
/// Two modes, differing only in when flags (and therefore relaunch-latency
/// draws) are known:
///   * Precomputed (jobs + runs): exactly simulate_cluster's semantics and
///     RNG stream — one pre-drawn relaunch latency per VALIDLY flagged task.
///     post_flag is forbidden.
///   * Live (jobs only): flags arrive later through post_flag, so the
///     canonical draw order cannot depend on them; the engine pre-draws one
///     relaunch latency per task (job input order, task-id order). The
///     stream is a function of (jobs, arrivals) alone — identical whatever
///     order flags arrive in, which is what makes a concurrent serving run
///     deterministic. Note the live stream therefore differs from the
///     precomputed one (it draws for never-flagged tasks too); the two modes
///     agree event-for-event when fed the same flags AND the same per-task
///     draws, which is what the live parity test pins.
///
/// Ordering contract: advance_to(w) processes every queued event with
/// time < w. A flag must be posted before the watermark passes its
/// checkpoint time (the engine checks); the serving layer guarantees this by
/// advancing only behind its ingestion low watermark. finish() drains
/// everything and returns the result. Not thread-safe — callers serialize
/// (serve::LiveClusterFeed wraps the engine in a mutex).
class ClusterEngine {
 public:
  /// Precomputed mode (the simulate_cluster path). `jobs` and `config` must
  /// outlive the engine; `rng` is consumed during construction only.
  ClusterEngine(std::span<const trace::Job> jobs,
                std::span<const eval::JobRunResult> runs,
                const ClusterConfig& config, Rng& rng);

  /// Live mode: flags arrive via post_flag (see above for the draw order).
  ClusterEngine(std::span<const trace::Job> jobs, const ClusterConfig& config,
                Rng& rng);

  ~ClusterEngine();
  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  /// Absolute arrival time per job (input order), as drawn at construction.
  std::span<const double> arrivals() const;

  /// Live mode only: the predictor flagged `task` of `job` at checkpoint
  /// `cp`. Flags at/after the task's completion count as no-ops (exactly the
  /// precomputed filter); valid flags enqueue a kFlag event at the
  /// checkpoint's absolute time, which must not lie below the watermark
  /// already advanced past.
  void post_flag(std::size_t job, std::size_t task, std::size_t cp);

  /// Processes every queued event with time strictly below `watermark`
  /// (monotone; a lower watermark than already reached is a no-op).
  void advance_to(double watermark);

  /// Drains the remaining events and returns the result. Call once.
  ClusterResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Simulates `jobs` sharing one cluster. `runs[j].flagged_at` supplies each
/// job's predictor flags (checkpoint indices relative to the job's arrival).
/// Flags whose checkpoint time is at or after the task's completion are
/// counted as no-ops, not relaunched.
ClusterResult simulate_cluster(std::span<const trace::Job> jobs,
                               std::span<const eval::JobRunResult> runs,
                               const ClusterConfig& config, Rng& rng);

/// `replications` independent simulations, each on its own Rng forked
/// deterministically from `seed` in replication order, fanned out over
/// `threads` pool lanes (0 = hardware concurrency, 1 = serial). Results are
/// in replication order and bit-identical for every thread count.
std::vector<ClusterResult> simulate_cluster_replicated(
    std::span<const trace::Job> jobs, std::span<const eval::JobRunResult> runs,
    const ClusterConfig& config, std::size_t replications, std::uint64_t seed,
    std::size_t threads = 0);

/// Replication-averaged headline numbers for the scenario sweeps.
struct ClusterSummary {
  double mean_reduction_pct = 0.0;
  double mean_makespan = 0.0;
  double mean_relaunched = 0.0;
  double mean_waited = 0.0;
  std::size_t max_peak_waiting = 0;
};

ClusterSummary summarize_replications(std::span<const ClusterResult> results);

}  // namespace nurd::sched
