#include "sched/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "sched/scheduler.h"

namespace nurd::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sentinel for "this task's copy is not bound to a tracked pool machine"
/// (homogeneous pools, unlimited pools, or no copy granted yet).
constexpr std::uint32_t kNoMachine = 0xffffffffu;

// Min-heap order: (time, kind, job, task, seq).
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.time, a.kind, a.job, a.task, a.seq) >
           std::tie(b.time, b.kind, b.job, b.task, b.seq);
  }
};

// Per-task simulation state. `completion` is the task's effective finish
// time; a pending kTaskFinish event is live iff its timestamp still equals
// it (relaunching a task strands the original's finish event, which is then
// skipped as stale; injected preemptions and machine failures strand the
// killed execution the same way by setting completion to infinity).
struct TaskState {
  double completion = 0.0;
  double flag_time = 0.0;  ///< absolute; meaningful iff `flagged`
  double pending_since = 0.0;  ///< when the task last entered the relaunch
                               ///< path (flag, preemption, or failure requeue)
  double resample = 0.0;   ///< pre-drawn relaunch latency, iff `flagged`
  double straggler_u = 1.0;  ///< heterogeneity luck, drawn iff classes set
  double fail_offset = kInf;  ///< failure offset of the machine this task
                              ///< donates, drawn iff machine_mtbf > 0
  std::uint32_t own_class = 0;  ///< class of the machine this task donates
                                ///< (finite pools) or its relaunch lands on
                                ///< (unlimited pools), iff classes set
  std::uint32_t machine = kNoMachine;  ///< pool machine running its copy
  bool flagged = false;    ///< has a valid (pre-completion) flag
  bool pending = false;    ///< in the relaunch path (queued or copy granted)
  bool relaunched = false;
  bool done = false;
};

// One tracked pool machine (heterogeneous or failure-injected pools only;
// homogeneous, failure-free pools keep the counter-only fast path).
struct MachineRec {
  enum State : std::uint8_t { kFree, kBusy, kGone };
  State state = kFree;
  std::uint32_t cls = 0;   ///< index into ClusterConfig::machine_classes
  std::uint32_t job = 0;   ///< copy owner, valid iff kBusy
  std::uint32_t task = 0;
  double fail_at = kInf;   ///< absolute injected death time
};

// The event loop behind simulate_cluster. The constructor consumes all the
// randomness and seeds the queue; run() drains it and returns the result.
class Simulation {
 public:
  Simulation(std::span<const trace::Job> jobs,
             std::span<const eval::JobRunResult> runs,
             const ClusterConfig& config, Rng& rng)
      : jobs_(jobs), config_(config) {
    const std::size_t J = jobs.size();
    NURD_CHECK(runs.size() == J, "jobs/runs length mismatch");
    NURD_CHECK(!jobs.empty(), "no jobs");
    unlimited_ = config.machines == kUnlimitedMachines;
    hetero_ = !config.machine_classes.empty();
    granular_ = !unlimited_ && (hetero_ || config.machine_mtbf > 0.0);
    NURD_CHECK(config.machine_mtbf >= 0.0, "machine_mtbf must be >= 0");
    NURD_CHECK(!(config.machine_mtbf > 0.0 && unlimited_),
               "machine-failure injection requires a finite pool");
    NURD_CHECK(
        config.preemption_rate >= 0.0 && config.preemption_rate <= 1.0,
        "preemption_rate must lie in [0, 1]");
    if (hetero_) {
      for (const auto& cls : config.machine_classes) {
        NURD_CHECK(cls.weight > 0.0, "machine-class weight must be positive");
        NURD_CHECK(cls.speed > 0.0, "machine-class speed must be positive");
        NURD_CHECK(cls.straggler_propensity >= 0.0 &&
                       cls.straggler_propensity <= 1.0,
                   "straggler propensity must lie in [0, 1]");
        NURD_CHECK(cls.straggler_factor >= 1.0,
                   "straggler factor must be >= 1");
        class_weight_total_ += cls.weight;
      }
    }

    result_.jobs.resize(J);
    tasks_.resize(J);
    remaining_.resize(J);

    // --- Canonical-order randomness (see the header contract): arrivals
    // first (job input order); then initial pool machines in machine-id
    // order (class, failure offset — tracked pools only); then per task in
    // job input order and task-id order: relaunch-latency draw (per VALIDLY
    // flagged task), then the heterogeneity, failure-offset, and preemption
    // draws, each consumed ONLY when its knob is enabled. Nothing after this
    // touches the RNG, so the stream is independent of pool sizes and event
    // dynamics.
    const std::vector<double> arrivals =
        config.arrivals ? config.arrivals(J, rng) : batch_arrivals()(J, rng);
    NURD_CHECK(arrivals.size() == J, "arrival process returned wrong count");

    if (granular_) {
      machines_.resize(config.machines);
      for (std::size_t m = 0; m < config.machines; ++m) {
        MachineRec& rec = machines_[m];
        if (hetero_) rec.cls = draw_class(rng);
        if (config.machine_mtbf > 0.0) {
          rec.fail_at = rng.exponential(1.0 / config.machine_mtbf);
          push(rec.fail_at, EventKind::kMachineFail, 0, m);
        }
        free_heap_.push(static_cast<std::uint32_t>(m));
      }
    }

    for (std::size_t j = 0; j < J; ++j) {
      const trace::Job& job = jobs[j];
      NURD_CHECK(std::isfinite(arrivals[j]) && arrivals[j] >= 0.0,
                 "arrival times must be finite and non-negative");

      ClusterJobStats& stats = result_.jobs[j];
      stats.arrival = arrivals[j];
      stats.original_jct = job.completion_time();
      remaining_[j] = job.task_count();

      const auto& flagged_at = runs[j].flagged_at;
      NURD_CHECK(flagged_at.size() == job.task_count(),
                 "flag vector length mismatch");
      auto& tasks = tasks_[j];
      tasks.resize(job.task_count());
      for (std::size_t i = 0; i < job.task_count(); ++i) {
        TaskState& task = tasks[i];
        task.completion = arrivals[j] + job.latency(i);
        if (flagged_at[i] != eval::kNeverFlagged) {
          NURD_CHECK(flagged_at[i] < job.checkpoint_count(),
                     "flag checkpoint out of range");
          const double tau = job.trace.tau_run(flagged_at[i]);
          if (tau >= job.latency(i)) {
            // The flag lands at or after the task's completion: relaunching
            // would be a phantom intervention on a finished task.
            ++stats.noop_flags;
          } else {
            task.flagged = true;
            task.flag_time = arrivals[j] + tau;
            task.resample = resample_latency(job, rng);
          }
        }
        if (hetero_) {
          task.own_class = draw_class(rng);
          task.straggler_u = rng.uniform();
        }
        if (config.machine_mtbf > 0.0) {
          task.fail_offset = rng.exponential(1.0 / config.machine_mtbf);
        }
        if (config.preemption_rate > 0.0) {
          const double hit = rng.uniform();
          const double frac = rng.uniform();
          if (hit < config.preemption_rate) {
            push(arrivals[j] + frac * job.latency(i), EventKind::kPreempt, j,
                 i);
          }
        }
      }
    }

    pool_.unlimited = unlimited_;
    pool_.free = unlimited_ ? 0 : config.machines;

    for (std::size_t j = 0; j < J; ++j) {
      push(arrivals[j], EventKind::kJobArrival, j, 0);
    }
  }

  // Processes every event in (time, kind, job, task, seq) order until the
  // queue drains.
  ClusterResult run() {
    while (!queue_.empty()) {
      const Event event = queue_.top();
      queue_.pop();
      if (!process(event)) continue;  // stale
      ++result_.events;
      if (config_.observer) config_.observer(event, pool_);
    }
    for (std::size_t j = 0; j < result_.jobs.size(); ++j) {
      if (remaining_[j] > 0) {
        // Stranded: injection killed executions the pool could never
        // replace (every machine died). Report the honest infinity rather
        // than a bogus 100% reduction.
        result_.stranded += remaining_[j];
        result_.jobs[j].completion = kInf;
        result_.jobs[j].mitigated_jct = kInf;
      }
    }
    for (const auto& stats : result_.jobs) {
      result_.makespan = std::max(result_.makespan, stats.completion);
      result_.relaunched += stats.relaunched;
      result_.waited += stats.waited;
      result_.noop_flags += stats.noop_flags;
      result_.preempted += stats.preempted;
    }
    return std::move(result_);
  }

 private:
  // Weighted machine-class pick; consumes exactly one uniform.
  std::uint32_t draw_class(Rng& rng) const {
    double u = rng.uniform(0.0, class_weight_total_);
    const auto& classes = config_.machine_classes;
    for (std::size_t c = 0; c + 1 < classes.size(); ++c) {
      u -= classes[c].weight;
      if (u < 0.0) return static_cast<std::uint32_t>(c);
    }
    return static_cast<std::uint32_t>(classes.size() - 1);
  }

  void push(double time, EventKind kind, std::size_t job, std::size_t task) {
    queue_.push(Event{time, kind, static_cast<std::uint32_t>(job),
                      static_cast<std::uint32_t>(task), seq_++});
  }

  bool machine_free() const { return unlimited_ || pool_.free > 0; }

  // Reserves a machine for (job, task) and schedules its relaunch at `time`.
  void grant(double time, std::size_t job, std::size_t task) {
    if (!unlimited_) {
      if (granular_) {
        const std::uint32_t id = pop_free_machine();
        MachineRec& m = machines_[id];
        m.state = MachineRec::kBusy;
        m.job = static_cast<std::uint32_t>(job);
        m.task = static_cast<std::uint32_t>(task);
        tasks_[job][task].machine = id;
      }
      --pool_.free;
    }
    ++pool_.in_use;
    push(time, EventKind::kRelaunch, job, task);
  }

  // Lowest-id free machine (recycled machines keep their identity and
  // class). Lazy invalidation: entries of machines that died while free are
  // skipped on the way out.
  std::uint32_t pop_free_machine() {
    while (true) {
      NURD_CHECK(!free_heap_.empty(), "pool accounting out of sync");
      const std::uint32_t id = free_heap_.top();
      free_heap_.pop();
      if (machines_[id].state == MachineRec::kFree) return id;
    }
  }

  // A copy no longer occupies its machine (finished, or its grant raced the
  // task's natural finish): the machine rejoins the free side.
  void return_machine(TaskState& task) {
    --pool_.in_use;
    if (unlimited_) return;
    if (granular_ && task.machine != kNoMachine) {
      MachineRec& m = machines_[task.machine];
      m.state = MachineRec::kFree;
      free_heap_.push(task.machine);
      task.machine = kNoMachine;
    }
    ++pool_.free;
  }

  // A natural completion donates the finishing task's own machine to the
  // pool (tracked pools mint a new machine record carrying the class and
  // failure clock drawn for that task).
  void donate_machine(double time, const TaskState& task) {
    if (granular_) {
      const auto id = static_cast<std::uint32_t>(machines_.size());
      MachineRec rec;
      rec.cls = task.own_class;
      if (task.fail_offset < kInf) {
        rec.fail_at = time + task.fail_offset;
        push(rec.fail_at, EventKind::kMachineFail, 0, id);
      }
      machines_.push_back(rec);
      free_heap_.push(id);
    }
    ++pool_.free;
  }

  // (Re-)enters the relaunch path at `time`: granted now if a machine is
  // free, queued FIFO otherwise.
  void requeue(double time, std::size_t job, std::size_t task) {
    TaskState& t = tasks_[job][task];
    t.pending = true;
    t.pending_since = time;
    if (machine_free()) {
      grant(time, job, task);
    } else {
      waiting_.emplace_back(job, task);
      pool_.waiting = waiting_.size();
      result_.peak_waiting = std::max(result_.peak_waiting, waiting_.size());
    }
  }

  // A machine became free at `time`: hand it to the first queued task that
  // is still running. Tasks that finished (or were relaunched) while queued
  // are dropped on the way.
  void dispatch(double time) {
    while (machine_free() && !waiting_.empty()) {
      const auto [job, task] = waiting_.front();
      waiting_.pop_front();
      pool_.waiting = waiting_.size();
      if (tasks_[job][task].done) continue;
      grant(time, job, task);
    }
  }

  // Effective latency of a copy granted to `task`, on the machine it landed
  // on (tracked pools) or on a fresh machine of the task's own class
  // (unlimited heterogeneous pools).
  double copy_latency(const TaskState& task) const {
    double lat = task.resample;
    if (hetero_) {
      const std::uint32_t cls = task.machine != kNoMachine
                                    ? machines_[task.machine].cls
                                    : task.own_class;
      const MachineClass& spec = config_.machine_classes[cls];
      lat /= spec.speed;
      if (task.straggler_u < spec.straggler_propensity) {
        lat *= spec.straggler_factor;
      }
    }
    return lat;
  }

  bool process(const Event& e) {
    switch (e.kind) {
      case EventKind::kJobArrival: {
        const trace::Job& job = jobs_[e.job];
        const auto& tasks = tasks_[e.job];
        for (std::size_t i = 0; i < job.task_count(); ++i) {
          push(tasks[i].completion, EventKind::kTaskFinish, e.job, i);
          if (tasks[i].flagged) {
            push(tasks[i].flag_time, EventKind::kFlag, e.job, i);
          }
        }
        return true;
      }
      case EventKind::kTaskFinish: {
        TaskState& task = tasks_[e.job][e.task];
        // Stale: the original of a relaunched task, or (FP-tie paranoia) a
        // duplicate timestamp match after the task already finished.
        if (task.done || e.time != task.completion) return false;
        task.done = true;
        if (--remaining_[e.job] == 0) {
          ClusterJobStats& stats = result_.jobs[e.job];
          stats.completion = e.time;
          stats.mitigated_jct = e.time - stats.arrival;
        }
        push(e.time, EventKind::kMachineRelease, e.job, e.task);
        return true;
      }
      case EventKind::kMachineRelease: {
        TaskState& task = tasks_[e.job][e.task];
        if (task.relaunched) {
          // A finished copy returns the pool machine it borrowed.
          return_machine(task);
        } else if (config_.reclaim_releases) {
          // Dedicated-pool policy: the cluster takes the machine back.
          ++pool_.reclaimed;
        } else {
          // A natural completion donates its own machine to the pool.
          ++pool_.released;
          if (!unlimited_) donate_machine(e.time, task);
        }
        dispatch(e.time);
        return true;
      }
      case EventKind::kRelaunch: {
        TaskState& task = tasks_[e.job][e.task];
        if (task.done) {
          // Defensive: the grant instant coincided with the task's finish.
          return_machine(task);
          dispatch(e.time);
          return false;
        }
        const bool first = !task.relaunched;
        task.relaunched = true;
        task.completion = e.time + copy_latency(task);
        push(task.completion, EventKind::kTaskFinish, e.job, e.task);
        ClusterJobStats& stats = result_.jobs[e.job];
        if (first) ++stats.relaunched;
        if (e.time > task.pending_since) ++stats.waited;
        return true;
      }
      case EventKind::kFlag: {
        TaskState& task = tasks_[e.job][e.task];
        if (task.done) {
          // Only reachable through floating-point timestamp collisions
          // (flag and finish at the same instant): treat as a no-op flag.
          ++result_.jobs[e.job].noop_flags;
          return false;
        }
        if (task.pending) {
          // Injection beat the predictor to it: the task is already in the
          // relaunch path (preempted, or its copy's machine died).
          ++result_.jobs[e.job].noop_flags;
          return false;
        }
        requeue(e.time, e.job, e.task);
        return true;
      }
      case EventKind::kMachineFail: {
        MachineRec& m = machines_[e.task];
        if (m.state == MachineRec::kGone) return false;  // defensive
        ++result_.machine_failures;
        ++pool_.failed;
        if (m.state == MachineRec::kFree) {
          m.state = MachineRec::kGone;
          --pool_.free;  // its heap entry is skipped lazily
          return true;
        }
        // Busy: the copy it was running dies with it; the task re-enters
        // the relaunch path immediately. Exactly one in_use slot is lost —
        // the machine is gone, not freed.
        m.state = MachineRec::kGone;
        --pool_.in_use;
        TaskState& task = tasks_[m.job][m.task];
        task.machine = kNoMachine;
        if (!task.done) {
          task.completion = kInf;  // strand the dead copy's finish event
          requeue(e.time, m.job, m.task);
        }
        return true;
      }
      case EventKind::kPreempt: {
        TaskState& task = tasks_[e.job][e.task];
        // Nothing left to preempt: the draw targeted the ORIGINAL
        // execution, which already finished or was already terminated by a
        // relaunch grant.
        if (task.done || task.relaunched) return false;
        ++result_.jobs[e.job].preempted;
        task.completion = kInf;  // strand the original's finish event
        // If the task is already queued (flagged, waiting for a machine) the
        // preemption just killed the original it was racing; it keeps its
        // queue position.
        if (!task.pending) requeue(e.time, e.job, e.task);
        return true;
      }
    }
    return false;  // unreachable
  }

  std::span<const trace::Job> jobs_;
  const ClusterConfig& config_;
  bool unlimited_ = false;
  bool hetero_ = false;    ///< machine classes configured
  bool granular_ = false;  ///< per-machine records tracked (finite pools
                           ///< with classes or failure injection)
  double class_weight_total_ = 0.0;

  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  std::uint64_t seq_ = 0;
  std::vector<std::vector<TaskState>> tasks_;
  std::vector<std::size_t> remaining_;
  std::deque<std::pair<std::size_t, std::size_t>> waiting_;
  std::vector<MachineRec> machines_;  ///< granular mode only
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      free_heap_;  ///< free machine ids, lowest first (granular mode only)
  PoolState pool_;
  ClusterResult result_;
};

}  // namespace

ArrivalProcess batch_arrivals() {
  return [](std::size_t job_count, Rng&) {
    return std::vector<double>(job_count, 0.0);
  };
}

ArrivalProcess fixed_arrivals(std::vector<double> times) {
  return [times = std::move(times)](std::size_t job_count, Rng&) {
    NURD_CHECK(times.size() == job_count,
               "fixed_arrivals size does not match the job count");
    return times;
  };
}

ArrivalProcess poisson_arrivals(double rate) {
  NURD_CHECK(rate > 0.0, "Poisson arrival rate must be positive");
  return [rate](std::size_t job_count, Rng& rng) {
    std::vector<double> arrivals(job_count);
    double t = 0.0;
    for (auto& a : arrivals) {
      t += rng.exponential(rate);
      a = t;
    }
    return arrivals;
  };
}

ArrivalProcess piecewise_poisson_arrivals(std::vector<RateSegment> schedule) {
  NURD_CHECK(!schedule.empty(), "piecewise schedule needs >= 1 segment");
  NURD_CHECK(schedule.front().begin == 0.0,
             "the first rate segment must begin at 0");
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    NURD_CHECK(schedule[s].rate > 0.0, "piecewise rates must be positive");
    NURD_CHECK(s == 0 || schedule[s].begin > schedule[s - 1].begin,
               "rate segments must begin in strictly ascending order");
  }
  return [schedule = std::move(schedule)](std::size_t job_count, Rng& rng) {
    std::vector<double> arrivals(job_count);
    double t = 0.0;
    for (auto& a : arrivals) {
      double rate = schedule.front().rate;
      for (const auto& seg : schedule) {
        if (t < seg.begin) break;
        rate = seg.rate;
      }
      t += rng.exponential(rate);
      a = t;
    }
    return arrivals;
  };
}

ArrivalProcess diurnal_poisson_arrivals(double base_rate, double amplitude,
                                        double period) {
  NURD_CHECK(base_rate > 0.0, "diurnal base rate must be positive");
  NURD_CHECK(amplitude >= 0.0 && amplitude < 1.0,
             "diurnal amplitude must lie in [0, 1)");
  NURD_CHECK(period > 0.0, "diurnal period must be positive");
  return [=](std::size_t job_count, Rng& rng) {
    constexpr double kTwoPi = 6.283185307179586476925287;
    std::vector<double> arrivals(job_count);
    double t = 0.0;
    for (auto& a : arrivals) {
      const double rate =
          base_rate * (1.0 + amplitude * std::sin(kTwoPi * t / period));
      t += rng.exponential(rate);
      a = t;
    }
    return arrivals;
  };
}

double ClusterResult::mean_reduction_pct() const {
  if (jobs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& stats : jobs) total += stats.reduction_pct();
  return total / static_cast<double>(jobs.size());
}

ClusterResult simulate_cluster(std::span<const trace::Job> jobs,
                               std::span<const eval::JobRunResult> runs,
                               const ClusterConfig& config, Rng& rng) {
  return Simulation(jobs, runs, config, rng).run();
}

std::vector<ClusterResult> simulate_cluster_replicated(
    std::span<const trace::Job> jobs, std::span<const eval::JobRunResult> runs,
    const ClusterConfig& config, std::size_t replications, std::uint64_t seed,
    std::size_t threads) {
  NURD_CHECK(replications > 0, "need at least one replication");
  // Serial fork prefix: replication r's stream depends only on (seed, r), so
  // results are bit-identical at any thread count and prefix-stable when
  // `replications` grows.
  Rng master(seed);
  std::vector<Rng> rngs;
  rngs.reserve(replications);
  for (std::size_t r = 0; r < replications; ++r) rngs.push_back(master.fork());

  std::vector<ClusterResult> out(replications);
  ThreadPool::run_indexed(replications, threads, [&](std::size_t r) {
    out[r] = simulate_cluster(jobs, runs, config, rngs[r]);
  });
  return out;
}

ClusterSummary summarize_replications(std::span<const ClusterResult> results) {
  ClusterSummary summary;
  if (results.empty()) return summary;
  for (const auto& r : results) {
    summary.mean_reduction_pct += r.mean_reduction_pct();
    summary.mean_makespan += r.makespan;
    summary.mean_relaunched += static_cast<double>(r.relaunched);
    summary.mean_waited += static_cast<double>(r.waited);
    summary.max_peak_waiting =
        std::max(summary.max_peak_waiting, r.peak_waiting);
  }
  const double n = static_cast<double>(results.size());
  summary.mean_reduction_pct /= n;
  summary.mean_makespan /= n;
  summary.mean_relaunched /= n;
  summary.mean_waited /= n;
  return summary;
}

}  // namespace nurd::sched
