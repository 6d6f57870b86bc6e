#include "serve/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/task_dag.h"

namespace nurd::serve {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
}  // namespace

struct ShardEngine::Impl {
  Impl(std::span<const trace::Job> jobs, std::span<JobSession> sessions,
       std::vector<EngineEvent> events, EngineConfig config,
       EngineHooks hooks)
      : jobs_(jobs),
        sessions_(sessions),
        events_(std::move(events)),
        config_(config),
        hooks_(std::move(hooks)) {
    NURD_CHECK(sessions_.size() == jobs_.size(),
               "one session per job, fleet-wide");
    shed_.resize(jobs_.size());
    event_time_.resize(jobs_.size());
    // The plan slice must preserve each job's checkpoint order (ascending,
    // possibly gapped only at the FRONT for migrated-in jobs) — the session
    // protocol admits no other order.
    std::vector<std::size_t> next_seen(jobs_.size(),
                                       std::numeric_limits<std::size_t>::max());
    for (const EngineEvent& ev : events_) {
      NURD_CHECK(ev.job < jobs_.size(), "event job out of range");
      NURD_CHECK(sessions_[ev.job].run.has_value() &&
                     !sessions_[ev.job].ring.empty(),
                 "event for a job with no session");
      if (next_seen[ev.job] == std::numeric_limits<std::size_t>::max()) {
        first_checkpoint_.push_back({ev.job, ev.checkpoint});
      } else {
        NURD_CHECK(ev.checkpoint == next_seen[ev.job],
                   "engine events must follow checkpoint order per job");
      }
      next_seen[ev.job] = ev.checkpoint + 1;
      auto& times = event_time_[ev.job];
      if (times.empty()) times.resize(jobs_[ev.job].checkpoint_count(), 0.0);
      times[ev.checkpoint] = ev.time;
      if (ev.shed) {
        auto& bits = shed_[ev.job];
        if (bits.empty()) bits.resize(jobs_[ev.job].checkpoint_count(), 0);
        bits[ev.checkpoint] = 1;
      }
    }
    next_ingest_time_ = events_.empty()
                            ? std::numeric_limits<double>::infinity()
                            : events_.front().time;
  }

  double low_watermark() const NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return inflight_times_.empty() ? next_ingest_time_
                                   : *inflight_times_.begin();
  }

  // Waits for a free in-flight slot and accounts the admit. Returns false
  // once a stage error is recorded: admission stops and run() rethrows
  // after the drain.
  bool admit_locked(const EngineEvent& ev) NURD_REQUIRES(mutex_) {
    while (!(inflight_ < cap_ || error_ != nullptr)) cv_.wait(mutex_);
    if (error_) return false;
    ++inflight_;
    inflight_times_.insert(ev.time);
    peak_backlog_ = std::max(peak_backlog_, inflight_);
    ++next_event_;
    next_ingest_time_ = next_event_ < events_.size()
                            ? events_[next_event_].time
                            : std::numeric_limits<double>::infinity();
    return true;
  }

  bool is_shed(std::size_t job, std::size_t t) const {
    return !shed_[job].empty() && shed_[job][t] != 0;
  }

  // Executes ONE pipeline stage of checkpoint `t` of `job`, timing its body
  // into the per-stage busy counters. Both execution paths funnel through
  // here — the serialized loop runs the four stages back to back, the DAG
  // runs them as separate tasks — so the stage breakdown is populated
  // identically everywhere. The Flag stage is where decisions leave the
  // engine: the sink runs here, OUTSIDE the engine mutex and BEFORE the
  // event's time leaves the in-flight set, so low_watermark() cannot pass a
  // flag that is still being delivered.
  void run_stage(std::size_t job, std::size_t t, core::Stage stage)
      NURD_EXCLUDES(mutex_) {
    JobSession& session = sessions_[job];
    eval::CheckpointScratch& cell = session.ring[t % session.ring.size()];
    const bool shed = is_shed(job, t);
    const auto began = Clock::now();
    switch (stage) {
      case core::Stage::kFeaturize:
        session.run->featurize(t, &cell, shed);
        break;
      case core::Stage::kRefit:
        session.run->refit(t, &cell, shed);
        break;
      case core::Stage::kPredict:
        session.run->predict(t, &cell, shed);
        break;
      case core::Stage::kFlag: {
        const auto flagged = session.run->flag(t, &cell);
        if (!flagged.empty()) {
          if (hooks_.sink) {
            const double time = event_time_[job][t];
            for (auto task : flagged) hooks_.sink({job, task, t, time, 0, 0});
          }
          MutexLock lock(mutex_);
          flags_ += flagged.size();
        }
        if (shed) {
          MutexLock lock(mutex_);
          ++shed_count_;
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

  // Both _locked helpers require mutex_ held (compiler-enforced).
  void retire_locked(double time) NURD_REQUIRES(mutex_) {
    --inflight_;
    inflight_times_.erase(inflight_times_.find(time));
    cv_.notify_all();
  }

  void record_latency_locked(std::size_t job, double seconds)
      NURD_REQUIRES(mutex_) {
    latencies_.push_back({static_cast<std::uint32_t>(job), seconds});
    ++processed_;
  }

  // Migration handshake: blocks until the source engine retired every
  // checkpoint below the boundary. False = fleet abort; the caller then
  // drops the job's remaining events.
  bool handoff_ready(const EngineEvent& ev) const {
    return ev.wait_boundary == kNoHandoff ||
           (hooks_.wait_handoff &&
            hooks_.wait_handoff(ev.job, ev.wait_boundary));
  }

  // workers == 1: the bit-parity reference. Each event is admitted and its
  // four stages run back to back on this thread, in plan order. On a stage
  // error the event retires, admission stops, and run() rethrows.
  void run_serialized() NURD_EXCLUDES(mutex_) {
    std::vector<std::uint8_t> dead(jobs_.size(), 0);
    for (const EngineEvent& ev : events_) {
      if (dead[ev.job]) continue;
      if (!handoff_ready(ev)) {
        dead[ev.job] = 1;
        continue;
      }
      {
        MutexLock lock(mutex_);
        if (!admit_locked(ev)) break;
      }
      const auto admitted_at = Clock::now();
      try {
        for (std::size_t s = 0; s < core::kStageCount; ++s) {
          run_stage(ev.job, ev.checkpoint, static_cast<core::Stage>(s));
        }
      } catch (...) {
        MutexLock lock(mutex_);
        error_ = std::current_exception();
        retire_locked(ev.time);
        break;
      }
      {
        MutexLock lock(mutex_);
        record_latency_locked(ev.job, seconds_since(admitted_at));
        retire_locked(ev.time);
      }
      if (hooks_.retired) hooks_.retired(ev.job, ev.checkpoint);
    }
  }

  // workers > 1: a private pool runs the stage work as pipelined TaskDag
  // tasks and this thread only admits. The event accounting runs under the
  // mutex, the executor admit OUTSIDE it (the executor's callbacks take
  // mutex_ themselves). A refused admit — the job was cancelled by an
  // earlier stage error — retires the event immediately so the in-flight
  // count still drains to zero.
  void run_dag(std::size_t workers) NURD_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);  // preamble, but the field is lock-annotated
      admitted_at_.resize(jobs_.size());
      for (const auto& fc : first_checkpoint_) {
        admitted_at_[fc.first].resize(jobs_[fc.first].checkpoint_count());
      }
    }
    // The dag is declared after the pool so it is destroyed FIRST (its
    // pumps run on the pool).
    ThreadPool pool(workers);
    core::TaskDagConfig dag_config;
    dag_config.workers = workers;
    dag_config.window = config_.window;
    dag_config.featurize_ahead = std::min<std::size_t>(2, config_.window);
    core::TaskDag dag(
        jobs_.size(), dag_config,
        [this](const core::TaskKey& k) {
          run_stage(k.job, k.checkpoint, k.stage);
        },
        [this](std::size_t job, std::size_t ckpt, bool completed) {
          {
            MutexLock lock(mutex_);
            if (completed) {
              record_latency_locked(job,
                                    seconds_since(admitted_at_[job][ckpt]));
            }
            retire_locked(event_time_[job][ckpt]);
          }
          if (completed && hooks_.retired) hooks_.retired(job, ckpt);
        },
        [this](std::size_t, std::exception_ptr e) {
          MutexLock lock(mutex_);
          if (!error_) error_ = e;
          cv_.notify_all();
        });
    // Migrated-in jobs start their pipeline at the handoff boundary; the
    // executor treats everything below it as already complete.
    for (const auto& fc : first_checkpoint_) {
      if (fc.second > 0) dag.begin_job_at(fc.first, fc.second);
    }
    dag.start(pool);

    // `dead` (handoff-abandoned jobs) is touched only on this thread.
    std::vector<std::uint8_t> dead(jobs_.size(), 0);
    for (const EngineEvent& ev : events_) {
      if (dead[ev.job]) continue;
      if (!handoff_ready(ev)) {
        dead[ev.job] = 1;
        continue;
      }
      {
        MutexLock lock(mutex_);
        if (!admit_locked(ev)) break;
        admitted_at_[ev.job][ev.checkpoint] = Clock::now();
      }
      const bool accepted = dag.admit(ev.job, ev.checkpoint);
      MutexLock lock(mutex_);
      if (!accepted) retire_locked(ev.time);
      if (error_) break;
    }
    dag.close();
    {
      MutexLock lock(mutex_);
      while (inflight_ != 0) cv_.wait(mutex_);
    }
    dag.wait();
  }

  void run() NURD_EXCLUDES(mutex_) {
    NURD_CHECK(!ran_, "ShardEngine::run() called twice");
    ran_ = true;

    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t workers =
        config_.threads == 0 ? std::max(1u, hw) : config_.threads;
    cap_ = config_.max_inflight == 0 ? 4 * workers : config_.max_inflight;

    const auto start = Clock::now();
    if (workers > 1) {
      run_dag(workers);
    } else {
      run_serialized();
    }
    const double wall = seconds_since(start);

    // Stats assembly holds mutex_: the drain above already guarantees every
    // writer is done (in-flight count zero, DAG pumps exited), but reading
    // the guarded counters through the same lock they were written under
    // makes the happens-before a compiler-checked fact instead of an
    // argument about pool teardown order.
    {
      MutexLock lock(mutex_);
      if (error_) std::rethrow_exception(error_);
      stats_.processed = processed_;
      stats_.flags = flags_;
      stats_.shed = shed_count_;
      stats_.workers = workers;
      stats_.peak_backlog = peak_backlog_;
      stats_.wall_seconds = wall;
      stats_.latencies = std::move(latencies_);
    }
    for (std::size_t i = 0; i < core::kStageCount; ++i) {
      stats_.stage_seconds[i] =
          static_cast<double>(
              stage_nanos_[i].load(std::memory_order_relaxed)) *
          1e-9;
    }
  }

  // ---- owner state: written at construction or in run()'s preamble, before
  // any worker exists; read-only once stage tasks are in flight. Sessions
  // are driven without a lock — exactly one stage task of a job runs at a
  // time (the DAG's edges / the serialized loop).
  std::span<const trace::Job> jobs_;
  std::span<JobSession> sessions_;
  std::vector<EngineEvent> events_;  ///< the plan slice, in admission order
  EngineConfig config_;
  EngineHooks hooks_;
  /// Per job: 1 where the checkpoint is shed (empty = none shed).
  std::vector<std::vector<std::uint8_t>> shed_;
  /// Per job: simulated event time per checkpoint (filled for plan events).
  std::vector<std::vector<double>> event_time_;
  /// (job, first checkpoint in this engine's slice) per appearing job.
  std::vector<std::pair<std::size_t, std::size_t>> first_checkpoint_;
  bool ran_ = false;
  std::size_t cap_ = 1;
  EngineStats stats_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::size_t inflight_ NURD_GUARDED_BY(mutex_) = 0;
  /// Admitted, not yet processed.
  std::multiset<double> inflight_times_ NURD_GUARDED_BY(mutex_);
  /// Next events_ index to admit.
  std::size_t next_event_ NURD_GUARDED_BY(mutex_) = 0;
  double next_ingest_time_ NURD_GUARDED_BY(mutex_) = 0.0;
  std::size_t peak_backlog_ NURD_GUARDED_BY(mutex_) = 0;
  std::size_t processed_ NURD_GUARDED_BY(mutex_) = 0;
  std::size_t flags_ NURD_GUARDED_BY(mutex_) = 0;
  std::size_t shed_count_ NURD_GUARDED_BY(mutex_) = 0;
  /// Seconds, unsorted; moved into stats_ when run() ends.
  std::vector<EngineStats::Latency> latencies_ NURD_GUARDED_BY(mutex_);
  std::exception_ptr error_ NURD_GUARDED_BY(mutex_);

  /// DAG path: admission wall-clock per (job, checkpoint), stamped under
  /// mutex_ at admit and read under mutex_ at retire.
  std::vector<std::vector<Clock::time_point>> admitted_at_
      NURD_GUARDED_BY(mutex_);
  /// Cumulative busy nanoseconds per pipeline stage, across all workers.
  std::array<std::atomic<std::uint64_t>, core::kStageCount> stage_nanos_{};
};

ShardEngine::ShardEngine(std::span<const trace::Job> jobs,
                         std::span<JobSession> sessions,
                         std::vector<EngineEvent> events, EngineConfig config,
                         EngineHooks hooks)
    : impl_(std::make_unique<Impl>(jobs, sessions, std::move(events), config,
                                   std::move(hooks))) {}

ShardEngine::~ShardEngine() = default;

double ShardEngine::low_watermark() const { return impl_->low_watermark(); }

void ShardEngine::run() { impl_->run(); }

const EngineStats& ShardEngine::stats() const { return impl_->stats_; }

}  // namespace nurd::serve
