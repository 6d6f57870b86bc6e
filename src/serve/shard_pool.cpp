#include "serve/shard_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/sync.h"
#include "core/predictor.h"
#include "core/task_dag.h"

namespace nurd::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kUnplaced = std::numeric_limits<std::size_t>::max();

// GCRA burst allowance of a metered tenant, in events at its quota_rate (the
// bucket limit is kQuotaBurst / quota_rate seconds).
constexpr double kQuotaBurst = 8.0;

// Fixed-constant splitmix64, so a job's shard is reproducible from
// (placement_seed, job) alone on every platform.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double percentile_ms(std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const auto n = sorted_seconds.size();
  auto idx = static_cast<std::size_t>(q * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted_seconds[idx] * 1e3;
}

/// A job's managed serving session: predictor + harness stepper + the
/// per-checkpoint scratch ring the DAG stages hand off through (cell
/// t % ring.size(); reuse is safe under the executor's window edge, and a
/// one-cell ring is safe at 0 lanes, where each checkpoint retires before
/// the next is admitted).
/// Fleet-wide, so it survives a drain handoff between shards.
struct JobSession {
  std::unique_ptr<core::StragglerPredictor> predictor;
  std::optional<eval::OnlineJobRun> run;
  std::vector<eval::CheckpointScratch> ring;
};

}  // namespace

struct ShardedMonitor::Impl {
  Impl(std::span<const trace::Job> jobs, core::NamedPredictor method,
       ShardedMonitorConfig config)
      : jobs_(jobs), method_(std::move(method)), config_(std::move(config)) {
    NURD_CHECK(!jobs.empty(), "no jobs to serve");
    NURD_CHECK(method_.make != nullptr, "method has no factory");
    NURD_CHECK(config_.shards >= 1, "need at least one shard");
    if (config_.tenants.empty()) config_.tenants.push_back(TenantSpec{});
    for (const TenantSpec& t : config_.tenants) {
      NURD_CHECK(t.quota_rate >= 0.0, "tenant quota must be non-negative");
    }
    if (config_.tenant_of.empty()) {
      config_.tenant_of.assign(jobs.size(), 0);
    }
    NURD_CHECK(config_.tenant_of.size() == jobs.size(),
               "tenant_of must map every job");
    for (const std::size_t t : config_.tenant_of) {
      NURD_CHECK(t < config_.tenants.size(), "tenant_of index out of range");
    }
    NURD_CHECK(config_.drains.size() < config_.shards,
               "cannot drain every shard");
    {
      std::vector<std::uint8_t> seen(config_.shards, 0);
      for (const DrainEvent& d : config_.drains) {
        NURD_CHECK(std::isfinite(d.time), "drain time must be finite");
        NURD_CHECK(d.shard < config_.shards, "drain shard out of range");
        NURD_CHECK(!seen[d.shard], "shard drained twice");
        seen[d.shard] = 1;
      }
    }
    build_plan();
  }

  // ---- the plan plane ------------------------------------------------------
  // Everything here runs in simulated time at construction, single-threaded:
  // the plan is a pure function of (jobs, arrival process, seeds, config).
  void build_plan() {
    // 1. Arrival draw: one draw, up front, from its own seed — the
    // ingestion schedule never depends on serving dynamics.
    Rng rng(config_.arrival_seed);
    plan_.arrivals = config_.arrivals
                         ? config_.arrivals(jobs_.size(), rng)
                         : sched::batch_arrivals()(jobs_.size(), rng);
    NURD_CHECK(plan_.arrivals.size() == jobs_.size(),
               "arrival process returned wrong count");
    plan_.tenant_of = config_.tenant_of;

    // 2. Eligible events, ascending (eligible, job, checkpoint).
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      NURD_CHECK(std::isfinite(plan_.arrivals[j]) && plan_.arrivals[j] >= 0.0,
                 "arrival times must be finite and non-negative");
      for (std::size_t t = 0; t < jobs_[j].checkpoint_count(); ++t) {
        ShardPlan::Event e;
        e.eligible = plan_.arrivals[j] + jobs_[j].trace.tau_run(t);
        e.admission = e.eligible;
        e.job = static_cast<std::uint32_t>(j);
        e.checkpoint = static_cast<std::uint32_t>(t);
        e.tenant = static_cast<std::uint32_t>(config_.tenant_of[j]);
        plan_.events.push_back(e);
      }
    }
    auto by_eligible = [](const ShardPlan::Event& a,
                          const ShardPlan::Event& b) {
      return std::tie(a.eligible, a.job, a.checkpoint) <
             std::tie(b.eligible, b.job, b.checkpoint);
    };
    std::sort(plan_.events.begin(), plan_.events.end(), by_eligible);

    // 3. Per-tenant admission quotas: the GCRA token bucket in simulated
    // time. Emission interval I = 1/rate, limit L = kQuotaBurst * I; an event
    // conforming at its eligible time admits immediately, otherwise it
    // queues behind ITS OWN tenant's budget until the bucket conforms.
    // Other tenants' admissions are untouched — that is the whole fairness
    // mechanism. Per-tenant theoretical-arrival times are monotone, so a
    // job's admission order equals its checkpoint order and flags cannot
    // change.
    {
      std::vector<double> tat(config_.tenants.size(), 0.0);
      for (ShardPlan::Event& e : plan_.events) {
        const TenantSpec& spec = config_.tenants[e.tenant];
        if (spec.quota_rate <= 0.0) continue;
        const double interval = 1.0 / spec.quota_rate;
        const double limit = kQuotaBurst * interval;
        double& t = tat[e.tenant];
        const double earliest = t - limit;
        e.admission = std::max(e.eligible, earliest);
        e.deferred = e.admission > e.eligible;
        if (e.deferred) ++plan_.deferred_events;
        t = std::max(t, e.admission) + interval;
      }
    }
    auto by_admission = [](const ShardPlan::Event& a,
                           const ShardPlan::Event& b) {
      return std::tie(a.admission, a.job, a.checkpoint) <
             std::tie(b.admission, b.job, b.checkpoint);
    };
    std::sort(plan_.events.begin(), plan_.events.end(), by_admission);

    // 4. One admission-ordered sweep: drains open/close shards, and
    // placement picks a home at each job's first event (and again when its
    // shard has drained — the rebalance).
    auto drains = config_.drains;
    std::sort(drains.begin(), drains.end(),
              [](const DrainEvent& a, const DrainEvent& b) {
                return std::tie(a.time, a.shard) < std::tie(b.time, b.shard);
              });
    std::size_t next_drain = 0;
    std::vector<std::uint8_t> open(config_.shards, 1);
    std::vector<std::size_t> open_shards(config_.shards);
    std::iota(open_shards.begin(), open_shards.end(), std::size_t{0});
    // Hash placement: splitmix64(placement_seed, job) over the open shards,
    // in index order. A job's shard depends on no other job, and a drained
    // shard can never be chosen.
    auto place = [&](std::size_t job) {
      NURD_CHECK(!open_shards.empty(), "placement with every shard drained");
      const std::uint64_t h = splitmix64(
          config_.placement_seed ^
          (0x517cc1b727220a95ULL * static_cast<std::uint64_t>(job + 1)));
      return open_shards[h % open_shards.size()];
    };
    std::vector<std::size_t> job_shard(jobs_.size(), kUnplaced);
    plan_.home_shard.assign(jobs_.size(), kUnplaced);

    for (ShardPlan::Event& e : plan_.events) {
      while (next_drain < drains.size() &&
             drains[next_drain].time <= e.admission) {
        const std::size_t drained = drains[next_drain].shard;
        open[drained] = 0;
        open_shards.erase(
            std::find(open_shards.begin(), open_shards.end(), drained));
        ++next_drain;
      }
      if (job_shard[e.job] == kUnplaced) {
        const std::size_t s = place(e.job);
        job_shard[e.job] = s;
        plan_.home_shard[e.job] = s;
      } else if (!open[job_shard[e.job]]) {
        // The job's shard drained: re-place at this checkpoint boundary.
        const auto from = static_cast<std::uint32_t>(job_shard[e.job]);
        const std::size_t to = place(e.job);
        job_shard[e.job] = to;
        plan_.handoffs.push_back({e.job, from, static_cast<std::uint32_t>(to),
                                  e.checkpoint});
      }
      e.shard = static_cast<std::uint32_t>(job_shard[e.job]);
    }
  }

  // ---- the execution plane -------------------------------------------------

  // One shard's execution core. It decides nothing: it executes its slice of
  // the plan (indices into plan_.events, in admission order), admitting
  // events under a bounded in-flight window into a TaskDag that runs the
  // four pipeline stages per checkpoint — on the dag's own lanes when the
  // shard has more than one worker, or inline on this driver thread (0
  // lanes) when it has one, each checkpoint retiring before the next is
  // admitted. Flags go to the fleet's sink; retired checkpoints go to the
  // fleet's handoff ledger.
  struct ShardEngine {
    ShardEngine(Impl& fleet, std::vector<std::uint32_t> events,
                std::size_t workers)
        : fleet_(fleet), events_(std::move(events)), workers_(workers) {}

    // Waits for a free in-flight slot (at most 4 × workers) and accounts
    // the admit. Returns false once a stage error is recorded: admission
    // stops and run() rethrows after the drain.
    bool admit_locked() NURD_REQUIRES(shard_mutex_) {
      while (!(inflight_ < 4 * workers_ || error_ != nullptr)) {
        cv_.wait(shard_mutex_);
      }
      if (error_) return false;
      ++inflight_;
      peak_backlog_ = std::max(peak_backlog_, inflight_);
      return true;
    }

    // Executes ONE pipeline stage of checkpoint `t` of `job` — the DAG's
    // stage runner — timing its body into the per-stage busy counters. The
    // Flag stage is where decisions leave the shard: the sink runs here,
    // OUTSIDE shard_mutex_.
    void run_stage(std::size_t job, std::size_t t, core::Stage stage)
        NURD_EXCLUDES(shard_mutex_) {
      JobSession& session = fleet_.sessions_[job];
      eval::CheckpointScratch& cell = session.ring[t % session.ring.size()];
      const auto began = Clock::now();
      switch (stage) {
        case core::Stage::kFeaturize:
          session.run->featurize(t, &cell);
          break;
        case core::Stage::kRefit:
          session.run->refit(t, &cell);
          break;
        case core::Stage::kPredict:
          session.run->predict(t, &cell);
          break;
        case core::Stage::kFlag: {
          const auto flagged = session.run->flag(t, &cell);
          if (!flagged.empty()) {
            if (fleet_.sink_) {
              const ShardPlan::Event& event = fleet_.event_of(job, t);
              for (auto task : flagged) {
                fleet_.sink_({job, task, t, event.admission, event.shard,
                              event.tenant});
              }
            }
            MutexLock lock(shard_mutex_);
            flags_ += flagged.size();
          }
          break;
        }
      }
      stage_nanos_[static_cast<std::size_t>(stage)].fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - began)
                  .count()),
          std::memory_order_relaxed);
    }

    // Both _locked helpers require shard_mutex_ held (compiler-enforced).
    void retire_locked() NURD_REQUIRES(shard_mutex_) {
      --inflight_;
      cv_.notify_all();
    }

    void record_latency_locked(std::size_t job, double seconds)
        NURD_REQUIRES(shard_mutex_) {
      latencies_.push_back({static_cast<std::uint32_t>(job), seconds});
      ++processed_;
    }

    // Migration handshake: a job's first event after a handoff blocks
    // until the source shard retired every checkpoint below it. False =
    // fleet abort; the caller then drops the job's remaining events.
    bool handoff_ready(const ShardPlan::Event& e) const {
      return !fleet_.waits_for_handoff(e) ||
             fleet_.wait_handoff(e.job, e.checkpoint);
    }

    // Runs the slice to completion on the calling (driver) thread, which
    // admits events into the DAG. The event accounting runs under
    // shard_mutex_, the executor admit OUTSIDE it (the executor's callbacks
    // take shard_mutex_ themselves, on this thread too at 0 lanes). A
    // refused admit — the job was cancelled by an earlier stage error —
    // retires the event immediately so the in-flight count still drains to
    // zero. Throws the first stage error after draining.
    void run() NURD_EXCLUDES(shard_mutex_) {
      const auto start = Clock::now();
      {
        MutexLock lock(shard_mutex_);  // preamble, but the field is annotated
        admitted_at_.resize(fleet_.jobs_.size());
        for (const std::uint32_t i : events_) {
          const std::size_t job = fleet_.plan_.events[i].job;
          if (admitted_at_[job].empty()) {
            admitted_at_[job].resize(fleet_.jobs_[job].checkpoint_count());
          }
        }
      }
      core::TaskDag dag(
          fleet_.jobs_.size(), workers_ > 1 ? workers_ : 0,
          [this](const core::TaskKey& k) {
            run_stage(k.job, k.checkpoint, k.stage);
          },
          [this](std::size_t job, std::size_t ckpt, bool completed) {
            {
              MutexLock lock(shard_mutex_);
              if (completed) {
                record_latency_locked(job,
                                      seconds_since(admitted_at_[job][ckpt]));
              }
              retire_locked();
            }
            if (completed) fleet_.note_retired(job, ckpt);
          },
          [this](std::size_t, std::exception_ptr e) {
            MutexLock lock(shard_mutex_);
            if (!error_) error_ = e;
            cv_.notify_all();
          });
      // Migrated-in jobs start their pipeline at the handoff boundary; the
      // executor treats everything below it as already complete.
      for (const std::uint32_t i : events_) {
        const ShardPlan::Event& e = fleet_.plan_.events[i];
        if (fleet_.waits_for_handoff(e)) dag.begin_job_at(e.job, e.checkpoint);
      }

      // `dead` (handoff-abandoned jobs) is touched only on this thread.
      std::vector<std::uint8_t> dead(fleet_.jobs_.size(), 0);
      for (const std::uint32_t i : events_) {
        const ShardPlan::Event& e = fleet_.plan_.events[i];
        if (dead[e.job]) continue;
        if (!handoff_ready(e)) {
          dead[e.job] = 1;
          continue;
        }
        {
          MutexLock lock(shard_mutex_);
          if (!admit_locked()) break;
          admitted_at_[e.job][e.checkpoint] = Clock::now();
        }
        const bool accepted = dag.admit(e.job, e.checkpoint);
        MutexLock lock(shard_mutex_);
        if (!accepted) retire_locked();
        if (error_) break;
      }
      dag.close();
      {
        MutexLock lock(shard_mutex_);
        while (inflight_ != 0) cv_.wait(shard_mutex_);
      }
      dag.wait();
      MutexLock lock(shard_mutex_);
      wall_seconds_ = seconds_since(start);
      if (error_) std::rethrow_exception(error_);
    }

    // ---- owner state, fixed at construction. Sessions are driven without
    // a lock — exactly one stage task of a job runs at a time (the DAG's
    // edges).
    Impl& fleet_;
    const std::vector<std::uint32_t> events_;  ///< plan_.events indices
    const std::size_t workers_;

    Mutex shard_mutex_;
    CondVar cv_;
    /// Admitted, not yet retired.
    std::size_t inflight_ NURD_GUARDED_BY(shard_mutex_) = 0;
    std::exception_ptr error_ NURD_GUARDED_BY(shard_mutex_);
    /// Admission wall-clock per (job, checkpoint), stamped at admit and read
    /// at retire.
    std::vector<std::vector<Clock::time_point>> admitted_at_
        NURD_GUARDED_BY(shard_mutex_);

    // ---- the shard's stats, read by assemble() under shard_mutex_.
    std::size_t peak_backlog_ NURD_GUARDED_BY(shard_mutex_) = 0;
    std::size_t processed_ NURD_GUARDED_BY(shard_mutex_) = 0;
    std::size_t flags_ NURD_GUARDED_BY(shard_mutex_) = 0;
    double wall_seconds_ NURD_GUARDED_BY(shard_mutex_) = 0.0;
    struct Latency {
      std::uint32_t job = 0;
      double seconds = 0.0;  ///< admission -> checkpoint retired
    };
    std::vector<Latency> latencies_ NURD_GUARDED_BY(shard_mutex_);
    /// Cumulative busy nanoseconds per pipeline stage, across all workers.
    std::array<std::atomic<std::uint64_t>, core::kStageCount> stage_nanos_{};
  };

  /// The plan event of checkpoint `t` of `job`.
  const ShardPlan::Event& event_of(std::size_t job, std::size_t t) const {
    return plan_.events[event_index_[slot_begin_[job] + t]];
  }

  /// A job waits for a handoff at the first event it has on a shard exactly
  /// when its previous checkpoint was planned on another shard; the
  /// boundary is that event's checkpoint.
  bool waits_for_handoff(const ShardPlan::Event& e) const {
    return e.checkpoint > 0 &&
           event_of(e.job, e.checkpoint - 1).shard != e.shard;
  }

  // Handoff handshake state. ShardedMonitor::mutex_ is a leaf: taken by
  // shards holding no shard_mutex_, and nothing is called while it is held
  // (see common/sync.h).
  bool wait_handoff(std::size_t job, std::size_t boundary)
      NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (retired_through_[job] < boundary && !abort_) cv_.wait(mutex_);
    return !abort_;
  }

  void note_retired(std::size_t job, std::size_t ckpt)
      NURD_EXCLUDES(mutex_) {
    if (!handoff_job_[job]) return;  // nobody will ever wait on this job
    MutexLock lock(mutex_);
    retired_through_[job] = std::max(retired_through_[job], ckpt + 1);
    cv_.notify_all();
  }

  FleetResult run() NURD_EXCLUDES(mutex_) {
    NURD_CHECK(!ran_, "ShardedMonitor::run() called twice");
    ran_ = true;

    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t workers =
        config_.threads == 0 ? std::max(1u, hw) : config_.threads;

    // Fleet-wide sessions: a job's session survives handoffs — the
    // receiving shard resumes the same OnlineJobRun where the source
    // stopped. The stepper is the run_job protocol itself, so serving is
    // bit-identical to the batch harness by construction. DAG lanes need
    // one scratch cell per in-flight checkpoint of a job (the window edge
    // makes cell t % kDagWindow reuse-safe); at 0 lanes one checkpoint runs
    // at a time and reuses a single cell.
    sessions_.resize(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      sessions_[j].predictor = method_.make();
      sessions_[j].run.emplace(jobs_[j], *sessions_[j].predictor);
      sessions_[j].ring.resize(workers > 1 ? core::kDagWindow : 1);
    }

    // Index the plan by (job, checkpoint) and slice it per shard, in plan
    // (admission) order. Deadlock-freedom of the handoff waits: handoffs
    // only originate from DRAINED shards, drained shards never reopen (so
    // never receive), and two shards cannot both have drained before
    // handing to each other — the wait graph follows drain times and is
    // acyclic.
    slot_begin_.resize(jobs_.size());
    std::size_t slots = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      slot_begin_[j] = slots;
      slots += jobs_[j].checkpoint_count();
    }
    event_index_.resize(slots);
    std::vector<std::size_t> next_checkpoint(jobs_.size(), 0);
    std::vector<std::vector<std::uint32_t>> slices(config_.shards);
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
      const ShardPlan::Event& e = plan_.events[i];
      NURD_CHECK(e.checkpoint == next_checkpoint[e.job]++,
                 "the plan must keep each job's checkpoint order");
      event_index_[slot_begin_[e.job] + e.checkpoint] =
          static_cast<std::uint32_t>(i);
      slices[e.shard].push_back(static_cast<std::uint32_t>(i));
    }
    handoff_job_.assign(jobs_.size(), 0);
    for (const ShardPlan::Handoff& h : plan_.handoffs) {
      handoff_job_[h.job] = 1;
    }
    {
      MutexLock lock(mutex_);  // preamble, but the field is lock-annotated
      retired_through_.assign(jobs_.size(), 0);
    }

    engines_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
      engines_.push_back(
          std::make_unique<ShardEngine>(*this, std::move(slices[s]), workers));
    }

    // One driver thread per shard. A failing shard records the first error
    // and aborts every pending handoff wait; surviving shards finish their
    // own slices, then run() rethrows.
    const auto start = Clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
      drivers.emplace_back([this, s] {
        try {
          engines_[s]->run();
        } catch (...) {
          MutexLock lock(mutex_);
          if (!error_) error_ = std::current_exception();
          abort_ = true;
          cv_.notify_all();
        }
      });
    }
    for (auto& d : drivers) d.join();
    {
      MutexLock lock(mutex_);
      if (error_) std::rethrow_exception(error_);
    }
    const double wall = seconds_since(start);

    return assemble(workers, wall);
  }

  FleetResult assemble(std::size_t workers, double wall) {
    FleetResult result;
    result.runs.reserve(jobs_.size());
    for (auto& session : sessions_) {
      result.runs.push_back(session.run->take_result());
    }
    result.handoffs = plan_.handoffs.size();

    // Per-shard jobs-served counts come from the plan (distinct jobs with
    // ≥ 1 event on the shard).
    std::vector<std::vector<std::uint8_t>> served(
        config_.shards, std::vector<std::uint8_t>(jobs_.size(), 0));
    for (const ShardPlan::Event& e : plan_.events) {
      served[e.shard][e.job] = 1;
    }

    // Each shard's counters are read under its own lock: every writer is
    // done (the drivers joined), but reading through the lock they were
    // written under makes the happens-before a compiler-checked fact.
    std::vector<double> all_latencies;
    std::vector<std::vector<double>> tenant_latencies(
        config_.tenants.size());
    for (std::size_t s = 0; s < config_.shards; ++s) {
      ShardEngine& engine = *engines_[s];
      MutexLock lock(engine.shard_mutex_);
      ShardStats stats;
      stats.shard = s;
      stats.jobs = static_cast<std::size_t>(
          std::count(served[s].begin(), served[s].end(), 1));
      stats.checkpoints = engine.processed_;
      stats.flags = engine.flags_;
      stats.peak_backlog = engine.peak_backlog_;
      stats.wall_seconds = engine.wall_seconds_;
      stats.checkpoints_per_sec =
          engine.wall_seconds_ > 0.0
              ? static_cast<double>(engine.processed_) / engine.wall_seconds_
              : 0.0;
      std::vector<double> shard_lat;
      shard_lat.reserve(engine.latencies_.size());
      for (const auto& l : engine.latencies_) {
        shard_lat.push_back(l.seconds);
        all_latencies.push_back(l.seconds);
        tenant_latencies[plan_.tenant_of[l.job]].push_back(l.seconds);
      }
      std::sort(shard_lat.begin(), shard_lat.end());
      stats.p50_latency_ms = percentile_ms(shard_lat, 0.50);
      stats.p99_latency_ms = percentile_ms(shard_lat, 0.99);
      result.shards.push_back(stats);

      result.totals.checkpoints += engine.processed_;
      result.totals.flags += engine.flags_;
      result.totals.peak_backlog += engine.peak_backlog_;
      for (std::size_t i = 0; i < core::kStageCount; ++i) {
        result.totals.stage_seconds[i] +=
            static_cast<double>(
                engine.stage_nanos_[i].load(std::memory_order_relaxed)) *
            1e-9;
      }
    }
    result.totals.jobs = jobs_.size();
    result.totals.lanes = config_.shards * workers;
    result.totals.wall_seconds = wall;
    result.totals.checkpoints_per_sec =
        wall > 0.0 ? static_cast<double>(result.totals.checkpoints) / wall
                   : 0.0;
    std::sort(all_latencies.begin(), all_latencies.end());
    result.totals.p50_latency_ms = percentile_ms(all_latencies, 0.50);
    result.totals.p99_latency_ms = percentile_ms(all_latencies, 0.99);

    // Tenant stats: plan-plane deferrals are exactly reproducible; wall
    // percentiles are not.
    std::vector<std::vector<std::uint8_t>> tenant_jobs(
        config_.tenants.size(),
        std::vector<std::uint8_t>(jobs_.size(), 0));
    result.tenants.resize(config_.tenants.size());
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      result.tenants[t].name = config_.tenants[t].name;
    }
    for (const ShardPlan::Event& e : plan_.events) {
      TenantStats& ts = result.tenants[e.tenant];
      ++ts.checkpoints;
      tenant_jobs[e.tenant][e.job] = 1;
      if (e.deferred) {
        ++ts.deferred;
        ts.max_deferral_s =
            std::max(ts.max_deferral_s, e.admission - e.eligible);
      }
    }
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      TenantStats& ts = result.tenants[t];
      ts.jobs = static_cast<std::size_t>(std::count(
          tenant_jobs[t].begin(), tenant_jobs[t].end(), 1));
      auto& lat = tenant_latencies[t];
      std::sort(lat.begin(), lat.end());
      ts.p50_latency_ms = percentile_ms(lat, 0.50);
      ts.p99_latency_ms = percentile_ms(lat, 0.99);
    }
    return result;
  }

  // ---- owner state (plan plane + construction): written before any driver
  // thread exists.
  std::span<const trace::Job> jobs_;
  core::NamedPredictor method_;
  ShardedMonitorConfig config_;
  FlagSink sink_;
  ShardPlan plan_;
  std::vector<JobSession> sessions_;
  /// The fleet-wide (job, checkpoint) -> plan event table: slot
  /// slot_begin_[job] + checkpoint holds the event's plan_.events index.
  std::vector<std::size_t> slot_begin_;
  std::vector<std::uint32_t> event_index_;
  /// One per shard; built in run() before any driver thread starts and
  /// read by assemble() after they joined.
  std::vector<std::unique_ptr<ShardEngine>> engines_;
  /// 1 where the job appears in some handoff (only those need cv wakeups).
  std::vector<std::uint8_t> handoff_job_;
  bool ran_ = false;

  // ---- handoff handshake (the only cross-shard synchronization).
  mutable Mutex mutex_;
  CondVar cv_;
  /// Per job: every checkpoint below this retired on its serving shard.
  std::vector<std::size_t> retired_through_ NURD_GUARDED_BY(mutex_);
  bool abort_ NURD_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ NURD_GUARDED_BY(mutex_);
};

ShardedMonitor::ShardedMonitor(std::span<const trace::Job> jobs,
                               core::NamedPredictor method,
                               ShardedMonitorConfig config)
    : impl_(std::make_unique<Impl>(jobs, std::move(method),
                                   std::move(config))) {}

ShardedMonitor::ShardedMonitor(std::span<const trace::Job> jobs,
                               const std::string& method,
                               core::RegistryConfig registry,
                               ShardedMonitorConfig config) {
  registry.refit = config.refit;
  impl_ = std::make_unique<Impl>(
      jobs, core::predictor_by_name(method, registry), std::move(config));
}

ShardedMonitor::~ShardedMonitor() = default;

const ShardPlan& ShardedMonitor::plan() const { return impl_->plan_; }

void ShardedMonitor::set_sink(FlagSink sink) {
  NURD_CHECK(!impl_->ran_, "set_sink after run()");
  impl_->sink_ = std::move(sink);
}

FleetResult ShardedMonitor::run() { return impl_->run(); }

}  // namespace nurd::serve
