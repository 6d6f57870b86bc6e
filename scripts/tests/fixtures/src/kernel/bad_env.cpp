// Fixture: a kernel table picked from the environment or timed against the
// clock. Every dispatch table must compute bit-identical results and ops()
// picks one from the CPU alone, so every marked line must produce a
// [wall-clock] finding.
#include <chrono>
#include <cstdlib>

bool want_fast_table() {
  return std::getenv("KERNEL_TABLE") != nullptr;  // BAD: environment knob
}

bool fast_enough() {
  auto t = std::chrono::steady_clock::now();  // BAD: clock-tuned dispatch
  return t.time_since_epoch().count() % 2 == 0;
}

// Mentioning getenv( in a comment must NOT fire.
