#include "core/task_dag.h"

#include <algorithm>
#include <array>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "common/thread_pool.h"

namespace nurd::core {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kFeaturize:
      return "featurize";
    case Stage::kRefit:
      return "refit";
    case Stage::kPredict:
      return "predict";
    case Stage::kFlag:
      return "flag";
  }
  return "?";
}

namespace {
constexpr auto kF = Stage::kFeaturize;
constexpr auto kR = Stage::kRefit;
constexpr auto kP = Stage::kPredict;
constexpr auto kFl = Stage::kFlag;

std::size_t idx(Stage s) { return static_cast<std::size_t>(s); }
}  // namespace

// Lock discipline (compiler-checked): mutex_ is the single registry lock and
// a LEAF — the stage runner and the on_retire/on_error callbacks always run
// with it released (see run_one/cancel_job), so callbacks may re-enter admit
// or cancel_job freely (at 0 lanes a re-entered admit drains inline too).
// Helpers named *_locked plus the bookkeeping queries carry
// NURD_REQUIRES(mutex_) and cannot be called unlocked any more.
struct TaskDag::Impl {
  // One live checkpoint of one job: four stages with outstanding-dependency
  // counts. A stage becomes ready when its count reaches zero; the whole
  // node retires when its Flag stage completes.
  struct Node {
    std::size_t checkpoint = 0;
    std::uint64_t epoch = 0;
    std::array<int, kStageCount> deps{};
    std::array<bool, kStageCount> done{};
  };

  struct JobState {
    std::uint64_t epoch = 0;
    bool cancelled = false;
    std::size_t next_admit = 0;  ///< ascending-admission cursor
    std::size_t base = 0;        ///< checkpoint index of live.front()
    /// Admitted, not yet retired (ascending). A vector, not a deque: it
    /// allocates nothing until the job's first admission, and every shard
    /// holds a JobState for every job of the fleet.
    std::vector<Node> live;
  };

  Impl(std::size_t jobs, std::size_t lanes, StageFn run, RetireFn retire,
       ErrorFn error)
      : run_(std::move(run)),
        on_retire_(std::move(retire)),
        on_error_(std::move(error)),
        jobs_(jobs),
        ready_(std::max<std::size_t>(lanes, 1)) {
    NURD_CHECK(run_ != nullptr, "TaskDag needs a stage runner");
    // Every field a lane reads is initialized above. A lane holds a
    // SerialScope for its lifetime: it is one core of the executor, so a
    // parallel_for inside a stage body stays on it.
    try {
      lanes_.reserve(lanes);
      for (std::size_t w = 0; w < lanes; ++w) {
        lanes_.emplace_back([this, w] {
          const ThreadPool::SerialScope serial;
          pump(w, /*block=*/true);
        });
      }
    } catch (...) {
      shutdown();  // join the lanes already started before unwinding
      throw;
    }
  }

  // ---- completion queries --------------------------------------------------
  // Stage `s` of checkpoint `t` complete? Retired checkpoints (t < base) are
  // complete in every stage; live ones carry their flags.
  bool stage_done(const JobState& js, std::size_t t, Stage s) const
      NURD_REQUIRES(mutex_) {
    if (t < js.base) return true;
    const std::size_t off = t - js.base;
    NURD_CHECK(off < js.live.size(), "dependency on an unadmitted checkpoint");
    return js.live[off].done[idx(s)];
  }

  Node* node_at(JobState& js, std::size_t t) NURD_REQUIRES(mutex_) {
    if (t < js.base) return nullptr;
    const std::size_t off = t - js.base;
    return off < js.live.size() ? &js.live[off] : nullptr;
  }

  // ---- ready-queue plumbing ------------------------------------------------
  void push_ready(std::size_t worker, const TaskKey& task)
      NURD_REQUIRES(mutex_) {
    ready_[worker % ready_.size()].push_back(task);
    ++ready_count_;
    cv_.notify_one();
  }

  // Own deque LIFO (the stage just unlocked stays cache-warm), steal FIFO
  // from the left neighbour onward (the oldest waiting work elsewhere).
  bool pop_any(std::size_t wid, TaskKey* out) NURD_REQUIRES(mutex_) {
    auto& own = ready_[wid];
    if (!own.empty()) {
      *out = own.back();
      own.pop_back();
      --ready_count_;
      return true;
    }
    for (std::size_t k = 1; k < ready_.size(); ++k) {
      auto& victim = ready_[(wid + k) % ready_.size()];
      if (!victim.empty()) {
        *out = victim.front();
        victim.pop_front();
        --ready_count_;
        return true;
      }
    }
    return false;
  }

  // ---- graph construction -------------------------------------------------
  // With no lanes, the admitting thread runs whatever the admission made
  // ready (and everything that unlocks in turn) before returning.
  bool admit(std::size_t job, std::size_t checkpoint) NURD_EXCLUDES(mutex_) {
    if (!insert_checkpoint(job, checkpoint)) return false;
    if (lanes_.empty()) pump(0, /*block=*/false);
    return true;
  }

  bool insert_checkpoint(std::size_t job, std::size_t checkpoint)
      NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    NURD_CHECK(job < jobs_.size(), "admit: job out of range");
    JobState& js = jobs_[job];
    if (js.cancelled) return false;
    NURD_CHECK(checkpoint == js.next_admit,
               "checkpoints must be admitted in ascending order per job");
    NURD_CHECK(!closed_, "admit after close()");
    ++js.next_admit;

    Node node;
    node.checkpoint = checkpoint;
    node.epoch = js.epoch;
    const std::size_t t = checkpoint;
    constexpr std::size_t A = kFeaturizeAhead;
    constexpr std::size_t W = kDagWindow;

    // Outstanding-dependency counts: each predecessor not yet complete adds
    // one. Same-checkpoint predecessors are created right here, so they
    // always count. (The lambda runs under mutex_ — it is called only on
    // this line-sequence where the MutexLock above is live — but the
    // analysis cannot see a lambda's caller, hence the assert.)
    auto need = [&](std::size_t pt, Stage ps) {
      mutex_.assert_held();
      return !stage_done(js, pt, ps) ? 1 : 0;
    };
    auto& d = node.deps;
    if (t > 0) d[idx(kF)] += need(t - 1, kF);
    if (t >= A) d[idx(kF)] += need(t - A, kR);
    if (t >= W) d[idx(kF)] += need(t - W, kFl);
    d[idx(kR)] += 1;  // Featurize(t)
    if (t > 0) d[idx(kR)] += need(t - 1, kR);
    if (t > 0) d[idx(kR)] += need(t - 1, kP);
    d[idx(kP)] += 1;  // Refit(t)
    if (t > 0) d[idx(kP)] += need(t - 1, kFl);
    d[idx(kFl)] += 1;  // Predict(t)
    if (t > 0) d[idx(kFl)] += need(t - 1, kFl);

    js.live.push_back(node);
    ++live_count_;
    if (node.deps[idx(kF)] == 0) {
      push_ready(inject_next_++, {job, t, kF, node.epoch});
    }
    return true;
  }

  // Mid-stream start (migration handoff): checkpoints below the boundary are
  // treated as retired — stage_done() already answers true for t < base, so
  // rebasing the admission cursor is the whole mechanism.
  void begin_job_at(std::size_t job, std::size_t first) NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    NURD_CHECK(job < jobs_.size(), "begin_job_at: job out of range");
    JobState& js = jobs_[job];
    NURD_CHECK(js.next_admit == 0 && js.live.empty() && !js.cancelled,
               "begin_job_at on a job with admission history");
    js.next_admit = first;
    js.base = first;
  }

  // ---- completion bookkeeping ---------------------------------------------
  // Called on the lane that finished (job, t, s). Decrements dependents,
  // pushes the newly ready onto this lane's deque, retires the checkpoint
  // when its Flag stage completed. Returns the retired checkpoint (== t) or
  // SIZE_MAX when nothing retired.
  std::size_t complete(std::size_t wid, const TaskKey& task)
      NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    JobState& js = jobs_[task.job];
    if (js.epoch != task.epoch) return SIZE_MAX;  // cancelled mid-run
    Node* node = node_at(js, task.checkpoint);
    NURD_CHECK(node != nullptr, "completed a task with no live node");
    node->done[idx(task.stage)] = true;

    const std::size_t t = task.checkpoint;
    // Runs only under the MutexLock above; see admit() for why the lambda
    // needs the assert.
    auto unlock_dep = [&](std::size_t dt, Stage ds) {
      mutex_.assert_held();
      Node* dep = node_at(js, dt);
      if (dep == nullptr) return;  // not admitted yet; admit() will see done
      if (--dep->deps[idx(ds)] == 0) {
        push_ready(wid, {task.job, dt, ds, dep->epoch});
      }
    };
    switch (task.stage) {
      case kF:
        unlock_dep(t, kR);
        unlock_dep(t + 1, kF);
        break;
      case kR:
        unlock_dep(t, kP);
        unlock_dep(t + 1, kR);
        unlock_dep(t + kFeaturizeAhead, kF);
        break;
      case kP:
        unlock_dep(t, kFl);
        unlock_dep(t + 1, kR);
        break;
      case kFl:
        unlock_dep(t + 1, kP);
        unlock_dep(t + 1, kFl);
        unlock_dep(t + kDagWindow, kF);
        // Flag stages complete in checkpoint order, so the retiring node is
        // always the oldest live one.
        NURD_CHECK(!js.live.empty() && js.live.front().checkpoint == t,
                   "flag stage retired out of order");
        // O(live nodes): the caller bounds its in-flight admissions.
        js.live.erase(js.live.begin());
        ++js.base;
        // live_count_ stays up until finish_retire(): wait() must not return
        // while the on_retire callback is still running.
        return t;
    }
    return SIZE_MAX;
  }

  // Counterpart of the node removals in complete()/cancel_locked(): the
  // retired checkpoints leave the live count only AFTER their on_retire
  // callbacks returned, so wait() covers the callbacks too.
  void finish_retire(std::size_t n) NURD_EXCLUDES(mutex_) {
    if (n == 0) return;
    MutexLock lock(mutex_);
    live_count_ -= n;
    if (live_count_ == 0) cv_.notify_all();
  }

  // Drops a job's queued and live work under a fresh epoch; returns the
  // checkpoints abandoned so the caller can retire them outside the lock.
  std::uint64_t cancel_locked(std::size_t job,
                              std::vector<std::size_t>* dropped)
      NURD_REQUIRES(mutex_) {
    JobState& js = jobs_[job];
    ++js.epoch;
    js.cancelled = true;
    for (const auto& node : js.live) dropped->push_back(node.checkpoint);
    js.live.clear();
    js.base = js.next_admit;
    for (auto& deque : ready_) {
      const auto stale = std::remove_if(
          deque.begin(), deque.end(),
          [&](const TaskKey& k) { return k.job == job; });
      ready_count_ -= static_cast<std::size_t>(deque.end() - stale);
      deque.erase(stale, deque.end());
    }
    cv_.notify_all();
    return js.epoch;
  }

  std::uint64_t cancel_job(std::size_t job, bool notify_retire)
      NURD_EXCLUDES(mutex_) {
    std::vector<std::size_t> dropped;
    std::uint64_t epoch;
    {
      MutexLock lock(mutex_);
      epoch = cancel_locked(job, &dropped);
    }
    if (notify_retire && on_retire_) {
      for (const auto t : dropped) on_retire_(job, t, /*completed=*/false);
    }
    finish_retire(dropped.size());
    return epoch;
  }

  // ---- the pump loop ------------------------------------------------------
  // Pops and runs ready tasks on the calling thread. A lane (block) sleeps
  // while nothing is ready and returns once close()d and drained, or at
  // shutdown; an inline drain (0 lanes) returns as soon as nothing is ready.
  void pump(std::size_t wid, bool block) NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (;;) {
      TaskKey task;
      if (pop_any(wid, &task)) {
        if (jobs_[task.job].epoch != task.epoch) continue;  // stale epoch
        lock.unlock();
        run_one(wid, task);
        lock.lock();
        continue;
      }
      if (!block || (closed_ && live_count_ == 0) || stopping_) return;
      cv_.wait(mutex_);
    }
  }

  void run_one(std::size_t wid, const TaskKey& task) NURD_EXCLUDES(mutex_) {
    try {
      run_(task);
    } catch (...) {
      const auto error = std::current_exception();
      {
        MutexLock lock(mutex_);
        if (jobs_[task.job].epoch != task.epoch) return;  // already cancelled
      }
      if (on_error_) on_error_(task.job, error);
      cancel_job(task.job, /*notify_retire=*/true);
      return;
    }
    const std::size_t retired = complete(wid, task);
    if (retired != SIZE_MAX) {
      if (on_retire_) on_retire_(task.job, retired, /*completed=*/true);
      finish_retire(1);
    }
  }

  void close() NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }

  void wait() NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!(closed_ && live_count_ == 0)) cv_.wait(mutex_);
  }

  ~Impl() { shutdown(); }

  // Drops all remaining work WITHOUT callbacks (normal callers close() and
  // wait() first; otherwise the owning layer is mid-teardown) and joins the
  // lanes; a stage already running finishes first.
  void shutdown() NURD_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
      closed_ = true;
      for (auto& deque : ready_) deque.clear();
      ready_count_ = 0;
      cv_.notify_all();
    }
    for (auto& lane : lanes_) lane.join();
  }

  StageFn run_;
  RetireFn on_retire_;
  ErrorFn on_error_;

  Mutex mutex_;
  CondVar cv_;
  std::vector<JobState> jobs_ NURD_GUARDED_BY(mutex_);
  /// Per-lane ready deques (one when the dag has no lanes).
  std::vector<std::deque<TaskKey>> ready_ NURD_GUARDED_BY(mutex_);
  std::size_t ready_count_ NURD_GUARDED_BY(mutex_) = 0;
  /// Round-robin target for admit() pushes.
  std::size_t inject_next_ NURD_GUARDED_BY(mutex_) = 0;
  /// Admitted checkpoints not yet retired.
  std::size_t live_count_ NURD_GUARDED_BY(mutex_) = 0;
  bool closed_ NURD_GUARDED_BY(mutex_) = false;
  bool stopping_ NURD_GUARDED_BY(mutex_) = false;
  /// The executor threads, started last in the constructor (they read
  /// every field above) and joined by shutdown(); empty at 0 lanes.
  std::vector<std::thread> lanes_;
};

TaskDag::TaskDag(std::size_t jobs, std::size_t lanes, StageFn run,
                 RetireFn on_retire, ErrorFn on_error)
    : impl_(std::make_unique<Impl>(jobs, lanes, std::move(run),
                                   std::move(on_retire),
                                   std::move(on_error))) {}

TaskDag::~TaskDag() = default;

bool TaskDag::admit(std::size_t job, std::size_t checkpoint) {
  return impl_->admit(job, checkpoint);
}

void TaskDag::begin_job_at(std::size_t job, std::size_t first_checkpoint) {
  impl_->begin_job_at(job, first_checkpoint);
}

std::uint64_t TaskDag::cancel_job(std::size_t job) {
  return impl_->cancel_job(job, /*notify_retire=*/true);
}

void TaskDag::close() { impl_->close(); }

void TaskDag::wait() { impl_->wait(); }

}  // namespace nurd::core
