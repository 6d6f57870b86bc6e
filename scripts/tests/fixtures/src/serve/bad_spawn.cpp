// Fixture: thread spawns outside the thread owners.
#include <future>
#include <thread>

void spawn_everywhere() {
  auto n = std::thread::hardware_concurrency();  // exempt: spawns nothing
  std::thread t([] {});
  std::thread::id self = std::this_thread::get_id();  // exempt
  auto f = std::async([] { return 1; });
  std::jthread j([] {});
  // std::thread in a comment does not fire
  const char* s = "std::async in a string does not fire";
  t.join();
}
