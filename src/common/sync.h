// Capability-annotated synchronization primitives: the repo-wide replacements
// for bare std::mutex / std::condition_variable, carrying Clang Thread Safety
// Analysis annotations so lock discipline is PROVEN at compile time (the
// `-Wthread-safety -Werror` CI leg) instead of sampled at runtime by TSan.
// On GCC (and any compiler without the capability attributes) every
// annotation macro expands to nothing and the wrappers compile down to the
// std primitives they hold — zero overhead, zero behavior change.
//
// Usage pattern (see common/thread_pool.cpp for the canonical example):
//
//   Mutex mutex_;
//   CondVar cv_;
//   std::deque<Task> queue_ NURD_GUARDED_BY(mutex_);
//   bool stop_ NURD_GUARDED_BY(mutex_) = false;
//
//   void wait_for_work() {
//     MutexLock lock(mutex_);
//     while (!stop_ && queue_.empty()) cv_.wait(mutex_);   // NOT a lambda
//     ...
//   }
//
// Conventions that keep the analysis exact:
//   * condition-variable predicates are written as explicit `while (!pred)
//     cv_.wait(mutex_);` loops, never wait(lock, lambda) — a lambda body is
//     analyzed as a separate function and loses the caller's lock set;
//   * helpers that are only called with a lock held are annotated
//     NURD_REQUIRES(mutex_) (the `_locked` suffix convention becomes a
//     compiler-checked contract);
//   * a lambda that provably runs under a lock the analysis cannot see
//     through (e.g. called back from a std::function) begins with
//     `mutex_.assert_held()` — an NURD_ASSERT_CAPABILITY no-op that injects
//     the fact, with the justification in a comment at the call site.
//
// ---------------------------------------------------------------------------
// LOCK ORDERING ACROSS THE CONCURRENT LAYERS (pool → DAG → serving fleet)
// ---------------------------------------------------------------------------
// Every lock in src/ is LEAF-SCOPED by design: no layer calls into another
// layer while holding its own lock, because all cross-layer transfer happens
// through callbacks invoked AFTER the lock is released.
//
// This table is the authoritative inventory: every `Mutex` declared under
// src/ has a `[mutex] <path-under-src>::<field>` entry here, and
// scripts/nurd_lint.py fails the build when a declaration and the table
// drift apart (missing entry OR stale entry).
//
//   [mutex] common/thread_pool.h::mutex_
//       ThreadPool. Leaf. Workers pop a parallel_for share under the lock
//       and run it unlocked; parallel_for() enqueues its shares under the
//       lock and notifies after it.
//   [mutex] common/thread_pool.cpp::mutex
//       ThreadPool LoopState. Leaf. Per-parallel_for completion/error
//       channel; only ever held around error recording and the completion
//       notify/wait.
//   [mutex] core/task_dag.cpp::mutex_
//       core::TaskDag (Impl). Leaf. Graph bookkeeping only. The stage
//       runner, on_retire and on_error callbacks all run with the registry
//       lock RELEASED; the dag's lanes (or, at 0 lanes, the thread inside
//       admit()) hold it only between tasks.
//   [mutex] serve/shard_pool.cpp::shard_mutex_
//       serve::ShardedMonitor's per-shard ShardEngine — the execution core
//       each shard runs on. Leaf. The FlagSink is invoked from the Flag
//       stage OUTSIDE this lock; wait_handoff / note_retired (which take
//       the fleet's mutex_) are likewise called with it released.
//   [mutex] serve/shard_pool.cpp::mutex_
//       serve::ShardedMonitor (Impl). Leaf. Guards the cross-shard handoff
//       ledger (retired_through_) and first-error capture. Taken only by
//       wait_handoff / note_retired, which shards call with their own
//       shard_mutex_ released, and by the driver threads' error capture;
//       nothing is called while it is held. Nests with nothing — a handoff
//       wait sleeps on this mutex's condvar alone, and the drain plan
//       guarantees the wake (handoffs only leave drained shards; drained
//       shards never reopen, so waits cannot form a cycle).
//
// The cluster simulator (sched/cluster.h) has no lock: each simulation is
// owned by the one thread that runs it.
//
// Every mutex above is a leaf, so a thread holds at most one lock at a
// time, and the pool → DAG → serving-fleet layering can never deadlock:
// moving DOWN the layering (a lane runs a stage, a stage runs a
// parallel_for or emits to the sink) is always done lock-free, and no code
// calls back UP (a sink must not call into the monitor). Any nesting added
// later must be recorded here — the thread-safety CI leg plus this table is
// the contract TSan spot-checks.
#pragma once

#include <condition_variable>
#include <mutex>

// ---- annotation macros -----------------------------------------------------
// GNU-style spellings of the Clang thread-safety attributes, compiled away
// everywhere else. __has_attribute keeps ancient clangs working.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NURD_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef NURD_THREAD_ANNOTATION__
#define NURD_THREAD_ANNOTATION__(x)
#endif

/// Declares a type to be a capability (a lock).
#define NURD_CAPABILITY(name) NURD_THREAD_ANNOTATION__(capability(name))
/// Declares an RAII type that acquires on construction / releases on
/// destruction.
#define NURD_SCOPED_CAPABILITY NURD_THREAD_ANNOTATION__(scoped_lockable)
/// Field is protected by the given mutex.
#define NURD_GUARDED_BY(x) NURD_THREAD_ANNOTATION__(guarded_by(x))
/// Pointee is protected by the given mutex (the pointer itself is not).
#define NURD_PT_GUARDED_BY(x) NURD_THREAD_ANNOTATION__(pt_guarded_by(x))
/// Function acquires the capability (and does not release it).
#define NURD_ACQUIRE(...) \
  NURD_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
/// Function releases the capability.
#define NURD_RELEASE(...) \
  NURD_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
/// Function may only be called with the capability held.
#define NURD_REQUIRES(...) \
  NURD_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
/// Function may only be called with the capability NOT held.
#define NURD_EXCLUDES(...) NURD_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define NURD_TRY_ACQUIRE(...) \
  NURD_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
/// Asserts (as a no-op) that the capability is held — the documented escape
/// hatch for facts the analysis cannot derive, e.g. inside a std::function
/// callback that its caller contractually invokes under the lock. Every use
/// carries a comment saying WHY the lock is provably held.
#define NURD_ASSERT_CAPABILITY(x) \
  NURD_THREAD_ANNOTATION__(assert_capability(x))
/// Function returns a reference to the given capability.
#define NURD_RETURN_CAPABILITY(x) NURD_THREAD_ANNOTATION__(lock_returned(x))
/// Opts a function out of the analysis entirely. Last resort; prefer
/// NURD_ASSERT_CAPABILITY, which keeps the rest of the body checked.
#define NURD_NO_THREAD_SAFETY_ANALYSIS \
  NURD_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace nurd {

/// std::mutex with the capability annotation. Same size, same codegen; the
/// native handle is exposed only to CondVar.
class NURD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NURD_ACQUIRE() { m_.lock(); }
  void unlock() NURD_RELEASE() { m_.unlock(); }
  bool try_lock() NURD_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// No-op that tells the analysis this mutex is held here. See the macro
  /// doc: used where the lock provably is held but the proof crosses a
  /// std::function boundary the analysis cannot follow.
  void assert_held() const NURD_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex m_;
};

/// Scoped lock (std::lock_guard/std::unique_lock replacement) with
/// scoped-capability annotations. Supports early unlock() and re-lock() for
/// pump-loop patterns (hold between tasks, release around the task body).
class NURD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NURD_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() NURD_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (the destructor then does nothing).
  void unlock() NURD_RELEASE() {
    held_ = false;
    mu_.unlock();
  }
  /// Re-acquires after an early unlock().
  void lock() NURD_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// std::condition_variable bound to Mutex. wait() takes the Mutex itself
/// (the caller's MutexLock stays in scope and keeps ownership); predicates
/// are explicit `while` loops at the call site so guarded reads stay inside
/// the caller's analyzed lock set.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; re-acquires before returning.
  /// Caller must hold `mu` (compiler-enforced) and re-check its predicate in
  /// a loop — spurious wakeups are allowed, exactly as with the std type.
  void wait(Mutex& mu) NURD_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's MutexLock
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace nurd
