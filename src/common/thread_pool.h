// The library's one level of data parallelism. Its parallel work runs across
// independent units — jobs in the evaluation harness and the trace
// generator, cluster-simulator replications — and never inside one of them:
// a tree fit or a replication runs serially on the lane that owns it. The
// other thread owners, the serving fleet's shard drivers and core::TaskDag's
// lanes, likewise run each checkpoint serially on one lane.
//
// Determinism contract: run_indexed calls fn(i) exactly once for every i in
// [0, count). Which lane runs which index is unspecified, but as long as
// tasks only write to per-index state (the pattern used throughout this
// library), results are bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <functional>

namespace nurd {

class ThreadPool {
 public:
  ThreadPool() = delete;

  /// Runs fn(i) for every i in [0, count) across `threads` lanes
  /// (0 = hardware concurrency, 1 = fully serial) and returns when all
  /// calls have. It spawns min(threads, count) − 1 threads and the caller
  /// runs as the last lane; lanes claim indices from one shared counter.
  /// Once any fn(i) throws, no lane claims another index, and the first
  /// exception (in lane order) is rethrown on the caller after the joins.
  /// A call from inside a task spawns lanes of its own.
  static void run_indexed(std::size_t count, std::size_t threads,
                          const std::function<void(std::size_t)>& fn);
};

}  // namespace nurd
