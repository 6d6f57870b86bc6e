#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace nurd {

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

  const std::size_t lanes = std::min(threads, count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // One slot per lane, written only by its lane; the joins order every
  // write before the caller reads the slots, so no lock guards them.
  std::vector<std::exception_ptr> errors(lanes);
  const auto lane = [&](std::exception_ptr& error) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> spawned;
  spawned.reserve(lanes - 1);
  try {
    for (std::size_t w = 0; w + 1 < lanes; ++w) {
      spawned.emplace_back(lane, std::ref(errors[w]));
    }
  } catch (...) {
    // A failed spawn stops the lanes already running before unwinding.
    failed.store(true, std::memory_order_relaxed);
    for (auto& t : spawned) t.join();
    throw;
  }
  lane(errors.back());
  for (auto& t : spawned) t.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace nurd
