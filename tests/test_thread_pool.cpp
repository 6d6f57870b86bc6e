// ThreadPool contracts the executors lean on:
//   * parallel_for covers every index exactly once;
//   * a throw in a worker share surfaces exactly once on the caller, and the
//     pool stays usable afterwards.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace nurd {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Regression for the unlocked error read the thread-safety annotations
// surfaced: parallel_for used to read LoopState::error after the completion
// wait without re-taking the state mutex, racing the writer's store. The
// read now happens under the lock; a worker-share throw must surface exactly
// once on the caller, every iteration, and the pool must stay usable after.
TEST(ThreadPool, ParallelForRethrowsWorkerShareThrowExactlyOnce) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> caught{0};
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i == 13) throw std::runtime_error("share boom");
      });
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "share boom");
      caught.fetch_add(1);
    }
    EXPECT_EQ(caught.load(), 1) << "round " << round;
  }
  // A failed loop leaves the pool usable: the next loop runs clean.
  std::atomic<int> total{0};
  pool.parallel_for(32, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 32);
}

}  // namespace
}  // namespace nurd
