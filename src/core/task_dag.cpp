#include "core/task_dag.h"

#include <algorithm>
#include <array>
#include <deque>
#include <exception>
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
// or cancel_job freely. Helpers named *_locked plus the bookkeeping queries
// carry NURD_REQUIRES(mutex_) and cannot be called unlocked any more.
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
    std::deque<Node> live;       ///< admitted, not yet retired (ascending)
  };

  Impl(std::size_t jobs, TaskDagConfig config, StageFn run, RetireFn retire,
       ErrorFn error)
      : config_(config),
        run_(std::move(run)),
        on_retire_(std::move(retire)),
        on_error_(std::move(error)),
        jobs_(jobs) {
    NURD_CHECK(run_ != nullptr, "TaskDag needs a stage runner");
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
  bool admit(std::size_t job, std::size_t checkpoint) NURD_EXCLUDES(mutex_) {
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
  // Called on the worker that finished (job, t, s). Decrements dependents,
  // pushes the newly ready onto this worker's deque, retires the checkpoint
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
        js.live.pop_front();
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
  void pump(std::size_t wid) NURD_EXCLUDES(mutex_) {
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
      if ((closed_ && live_count_ == 0) || stopping_) break;
      cv_.wait(mutex_);
    }
    if (--active_pumps_ == 0) cv_.notify_all();
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

  void start(ThreadPool& pool) NURD_EXCLUDES(mutex_) {
    NURD_CHECK(pool.size() >= 1,
               "TaskDag needs a pool with at least one worker");
    // One pump per pool worker at most: a pump holds its worker for the
    // whole run, so surplus pumps would never be scheduled (their deques are
    // still reachable through stealing, but there is no point creating
    // them). The guarded setup runs under mutex_ (pumps launched below read
    // these fields under it); the pump submissions happen OUTSIDE so this
    // never holds the registry lock while taking the pool's — every lock in
    // the stack stays a leaf (see common/sync.h).
    const std::size_t n =
        std::max<std::size_t>(1, std::min(config_.workers, pool.size()));
    {
      MutexLock lock(mutex_);
      NURD_CHECK(ready_.empty(), "TaskDag started twice");
      ready_.resize(n);
      active_pumps_ = n;
    }
    for (std::size_t w = 0; w < n; ++w) {
      pool.submit([this, w] { pump(w); });
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

  ~Impl() {
    // Emergency shutdown (normal callers close()+wait() first): drop all
    // remaining work WITHOUT callbacks — the owning layer is mid-teardown —
    // and wait for every pump to leave before the state is freed.
    {
      MutexLock lock(mutex_);
      stopping_ = true;
      closed_ = true;
      for (auto& deque : ready_) deque.clear();
      ready_count_ = 0;
      cv_.notify_all();
      while (active_pumps_ != 0) cv_.wait(mutex_);
    }
  }

  TaskDagConfig config_;
  StageFn run_;
  RetireFn on_retire_;
  ErrorFn on_error_;

  Mutex mutex_;
  CondVar cv_;
  std::vector<JobState> jobs_ NURD_GUARDED_BY(mutex_);
  /// Per-worker ready deques.
  std::vector<std::deque<TaskKey>> ready_ NURD_GUARDED_BY(mutex_);
  std::size_t ready_count_ NURD_GUARDED_BY(mutex_) = 0;
  /// Round-robin target for admit() pushes.
  std::size_t inject_next_ NURD_GUARDED_BY(mutex_) = 0;
  /// Admitted checkpoints not yet retired.
  std::size_t live_count_ NURD_GUARDED_BY(mutex_) = 0;
  std::size_t active_pumps_ NURD_GUARDED_BY(mutex_) = 0;
  bool closed_ NURD_GUARDED_BY(mutex_) = false;
  bool stopping_ NURD_GUARDED_BY(mutex_) = false;
};

TaskDag::TaskDag(std::size_t jobs, TaskDagConfig config, StageFn run,
                 RetireFn on_retire, ErrorFn on_error)
    : impl_(std::make_unique<Impl>(jobs, config, std::move(run),
                                   std::move(on_retire),
                                   std::move(on_error))) {}

TaskDag::~TaskDag() = default;

void TaskDag::start(ThreadPool& pool) { impl_->start(pool); }

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
