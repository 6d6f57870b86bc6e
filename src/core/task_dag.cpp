#include "core/task_dag.h"

#include <deque>
#include <exception>
#include <thread>
#include <utility>
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

// Lock discipline (compiler-checked): mutex_ is the executor lock and a
// LEAF — the checkpoint runner and the on_retire/on_error callbacks always
// run with it released (see run_one), so callbacks may call admit() freely.
// Helpers named *_locked carry NURD_REQUIRES(mutex_) and cannot be called
// unlocked.
struct TaskDag::Impl {
  static constexpr std::size_t kOldestEvery = 4;

  // One job's chain. Admissions are consecutive, so the FIFO of admitted,
  // not yet started checkpoints is the range [next_run, next_admit). A job
  // sits in ready_ exactly when it is neither running nor cancelled and
  // that range is non-empty.
  struct JobState {
    bool started = false;  ///< first admission seen (it sets the cursors)
    bool running = false;
    bool cancelled = false;
    std::size_t next_run = 0;
    std::size_t next_admit = 0;
  };

  Impl(std::size_t jobs, std::size_t lanes, CheckpointFn run, RetireFn retire,
       ErrorFn error)
      : run_(std::move(run)),
        on_retire_(std::move(retire)),
        on_error_(std::move(error)),
        jobs_(jobs) {
    NURD_CHECK(run_ != nullptr, "TaskDag needs a checkpoint runner");
    // Every field a lane reads is initialized above. A lane holds a
    // SerialScope for its lifetime: it is one core of the executor, so a
    // parallel_for inside a checkpoint stays on it.
    try {
      lanes_.reserve(lanes);
      for (std::size_t w = 0; w < lanes; ++w) {
        lanes_.emplace_back([this] {
          const ThreadPool::SerialScope serial;
          pump(/*block=*/true);
        });
      }
    } catch (...) {
      shutdown();  // join the lanes already started before unwinding
      throw;
    }
  }

  // With no lanes, the admitting thread runs what the admission queued
  // before returning.
  bool admit(std::size_t job, std::size_t checkpoint) NURD_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      NURD_CHECK(job < jobs_.size(), "admit: job out of range");
      NURD_CHECK(!closed_, "admit after close()");
      JobState& js = jobs_[job];
      if (js.cancelled) return false;
      if (!js.started) {
        js.started = true;
        js.next_run = js.next_admit = checkpoint;
      }
      NURD_CHECK(checkpoint == js.next_admit,
                 "a job's checkpoints must be admitted consecutively");
      ++js.next_admit;
      ++live_count_;
      // The range was empty before this admission: the job was idle.
      if (!js.running && js.next_run + 1 == js.next_admit) {
        ready_.push_back(job);
        cv_.notify_one();
      }
    }
    if (lanes_.empty()) pump(/*block=*/false);
    return true;
  }

  // Pops jobs off the ready queue and runs one checkpoint of each on the
  // calling thread. A lane (block) sleeps while nothing is ready and returns
  // once close()d and drained, or at shutdown; an inline drain (0 lanes)
  // returns as soon as nothing is ready.
  void pump(bool block) NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (;;) {
      if (!ready_.empty()) {
        // Newest ready job first: a checkpoint admitted while a lane is free
        // starts at once, so the median decision latency stays one
        // checkpoint's run time. Every kOldestEvery-th pop serves the oldest
        // instead, so a job pushed down the queue waits a bounded number of
        // pops rather than until admissions pause.
        const bool oldest = ++pops_ % kOldestEvery == 0;
        const std::size_t job = oldest ? ready_.front() : ready_.back();
        if (oldest) {
          ready_.pop_front();
        } else {
          ready_.pop_back();
        }
        JobState& js = jobs_[job];
        js.running = true;
        const std::size_t checkpoint = js.next_run++;
        lock.unlock();
        run_one(job, checkpoint);
        lock.lock();
        continue;
      }
      if (!block || (closed_ && live_count_ == 0) || stopping_) return;
      cv_.wait(mutex_);
    }
  }

  void run_one(std::size_t job, std::size_t checkpoint)
      NURD_EXCLUDES(mutex_) {
    try {
      run_(job, checkpoint);
    } catch (...) {
      fail(job, checkpoint, std::current_exception());
      return;
    }
    if (on_retire_) on_retire_(job, checkpoint, /*completed=*/true);
    MutexLock lock(mutex_);
    JobState& js = jobs_[job];
    js.running = false;
    if (js.next_run < js.next_admit) {
      ready_.push_back(job);  // more admitted: back of the queue
      cv_.notify_one();
    }
    retired_locked(1);
  }

  // The error path: cancels the job for good, reports the error, then
  // retires the failing checkpoint and every admitted one after it.
  void fail(std::size_t job, std::size_t checkpoint, std::exception_ptr error)
      NURD_EXCLUDES(mutex_) {
    std::size_t end = 0;
    {
      MutexLock lock(mutex_);
      JobState& js = jobs_[job];
      js.cancelled = true;
      js.running = false;
      end = js.next_admit;
      js.next_run = end;  // running, so it is not in ready_
    }
    if (on_error_) on_error_(job, error);
    if (on_retire_) {
      for (std::size_t t = checkpoint; t < end; ++t) {
        on_retire_(job, t, /*completed=*/false);
      }
    }
    MutexLock lock(mutex_);
    retired_locked(end - checkpoint);
  }

  // Retired checkpoints leave the live count only AFTER their on_retire
  // callbacks returned, so wait() covers the callbacks too.
  void retired_locked(std::size_t n) NURD_REQUIRES(mutex_) {
    live_count_ -= n;
    if (live_count_ == 0) cv_.notify_all();
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

  // Drops all queued work WITHOUT callbacks (normal callers close() and
  // wait() first; otherwise the owning layer is mid-teardown) and joins the
  // lanes; a checkpoint already running finishes first.
  void shutdown() NURD_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
      closed_ = true;
      ready_.clear();
      cv_.notify_all();
    }
    for (auto& lane : lanes_) lane.join();
  }

  CheckpointFn run_;
  RetireFn on_retire_;
  ErrorFn on_error_;

  Mutex mutex_;
  CondVar cv_;
  std::vector<JobState> jobs_ NURD_GUARDED_BY(mutex_);
  /// Jobs with a checkpoint ready to run, oldest first.
  std::deque<std::size_t> ready_ NURD_GUARDED_BY(mutex_);
  std::size_t pops_ NURD_GUARDED_BY(mutex_) = 0;
  /// Admitted checkpoints not yet retired.
  std::size_t live_count_ NURD_GUARDED_BY(mutex_) = 0;
  bool closed_ NURD_GUARDED_BY(mutex_) = false;
  bool stopping_ NURD_GUARDED_BY(mutex_) = false;
  /// The executor threads, started last in the constructor (they read
  /// every field above) and joined by shutdown(); empty at 0 lanes.
  std::vector<std::thread> lanes_;
};

TaskDag::TaskDag(std::size_t jobs, std::size_t lanes, CheckpointFn run,
                 RetireFn on_retire, ErrorFn on_error)
    : impl_(std::make_unique<Impl>(jobs, lanes, std::move(run),
                                   std::move(on_retire),
                                   std::move(on_error))) {}

TaskDag::~TaskDag() = default;

bool TaskDag::admit(std::size_t job, std::size_t checkpoint) {
  return impl_->admit(job, checkpoint);
}

void TaskDag::close() { impl_->close(); }

void TaskDag::wait() { impl_->wait(); }

}  // namespace nurd::core
