#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace nurd {

namespace {
// True while this thread is executing a parallel_for task (worker or
// participating caller) or holds a SerialScope; parallel_for calls then
// degrade to serial.
thread_local bool g_in_pool_task = false;
}  // namespace

ThreadPool::SerialScope::SerialScope() : saved_(g_in_pool_task) {
  g_in_pool_task = true;
}

ThreadPool::SerialScope::~SerialScope() { g_in_pool_task = saved_; }

// Shared by the caller and every enqueued worker share of one parallel_for.
// Indices are claimed through a single atomic counter, so each index runs
// exactly once no matter how many shares end up executing. The error slot is
// guarded by the state's own mutex end to end: shares record under the lock,
// the caller reads under the lock after the completion wait — the exception
// hand-off is an annotated happens-before, not an inferred one.
struct ThreadPool::LoopState {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  Mutex mutex;
  CondVar cv;
  std::exception_ptr error NURD_GUARDED_BY(mutex);
};

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::run_share(const std::shared_ptr<LoopState>& state) {
  const SerialScope serial;
  for (;;) {
    const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->count) break;
    if (!state->failed.load(std::memory_order_relaxed)) {
      try {
        (*state->fn)(i);
      } catch (...) {
        MutexLock lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
        state->failed.store(true, std::memory_order_relaxed);
      }
    }
    if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->count) {
      // Last index finished: wake the caller (it may be sleeping on cv).
      MutexLock lock(state->mutex);
      state->cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1 || g_in_pool_task) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->count = count;
  state->fn = &fn;

  // One share per worker (capped at the index count); the caller is the
  // final share. A share that wakes up after the loop drained exits without
  // touching fn, so stale queue entries are harmless.
  const std::size_t shares = std::min(workers_.size(), count - 1);
  {
    MutexLock lock(mutex_);
    for (std::size_t s = 0; s < shares; ++s) {
      queue_.emplace_back([state] { run_share(state); });
    }
  }
  if (shares == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }

  run_share(state);
  // The completion wait and the error read share one locked region: a share
  // that threw recorded state->error under state->mutex before its final
  // done increment, so reading it here (same lock held) is an annotated
  // happens-before. The error is MOVED out, so the exception is owned by
  // this thread alone: a worker that drops the last LoopState reference
  // later frees an empty slot, never the exception being rethrown here.
  std::exception_ptr error;
  {
    MutexLock lock(state->mutex);
    while (state->done.load(std::memory_order_acquire) != count) {
      state->cv.wait(state->mutex);
    }
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_indexed(std::size_t count, std::size_t threads,
                             const std::function<void(std::size_t)>& fn) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? hw : 1;
  }
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(threads, count) - 1);
  pool.parallel_for(count, fn);
}

ThreadPool& ThreadPool::global() {
  // Leaked intentionally: joining workers during static destruction can
  // deadlock with other atexit handlers, and the OS reclaims the threads.
  static ThreadPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return new ThreadPool(hw > 1 ? hw - 1 : 0);
  }();
  return *pool;
}

}  // namespace nurd
