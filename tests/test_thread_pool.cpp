// ThreadPool::run_indexed contracts the harness, the trace generator and the
// cluster simulator lean on:
//   * every index runs exactly once, at any thread count (0 = hardware
//     concurrency, 1 = serial, more threads than indices);
//   * a throw surfaces exactly once on the caller, on the threaded and the
//     serial path;
//   * a run_indexed inside a task spawns lanes of its own and completes.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace nurd {
namespace {

TEST(ThreadPool, RunIndexedCoversEveryIndexOnce) {
  for (const std::size_t count : {0u, 1u, 2u, 257u}) {
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{2}, std::size_t{4},
                                      count + 3}) {
      std::vector<std::atomic<int>> hits(count);
      ThreadPool::run_indexed(count, threads,
                              [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "count " << count << " threads " << threads << " index " << i;
      }
    }
  }
}

// A throw in any lane surfaces exactly once on the caller, every round. Each
// index takes long enough that every lane claims some, so across rounds the
// throw lands on different lanes, the caller's lane included.
TEST(ThreadPool, RunIndexedRethrowsALaneThrowExactlyOnce) {
  for (int round = 0; round < 50; ++round) {
    int caught = 0;
    try {
      ThreadPool::run_indexed(64, 4, [](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (i == 13) throw std::runtime_error("lane boom");
      });
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "lane boom");
      ++caught;
    }
    EXPECT_EQ(caught, 1) << "round " << round;
  }
}

TEST(ThreadPool, RunIndexedRethrowsOnTheSerialPath) {
  EXPECT_THROW(ThreadPool::run_indexed(8, 1,
                                       [](std::size_t i) {
                                         if (i == 5) {
                                           throw std::runtime_error("boom");
                                         }
                                       }),
               std::runtime_error);
}

// A run_indexed inside a lane spawns lanes of its own and covers every
// index of every inner loop.
TEST(ThreadPool, NestedRunIndexedCoversEveryIndex) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 33;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ThreadPool::run_indexed(kOuter, kOuter, [&](std::size_t o) {
    ThreadPool::run_indexed(kInner, 3, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace nurd
