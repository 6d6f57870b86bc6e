// Figure 1 reproduction: normalized latency distributions for two jobs —
// one whose p90 threshold falls below half the maximum latency (far tail,
// Job 6274140245 in the paper) and one whose threshold exceeds it (near
// tail, Job 6343048076). Prints ASCII histograms with the half-max and
// p90-threshold positions marked.
//
//   $ ./fig1_latency_dist [--bins=20]
#include <iostream>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/table.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  using namespace nurd;
  bench::accept_flags(argc, argv, {"bins"});
  const auto bins =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "bins", 20));

  auto config = trace::GoogleLikeGenerator::google_defaults();
  trace::GoogleLikeGenerator generator(config);

  struct Case {
    const char* title;
    bool far;
  };
  for (const Case c : {Case{"far-tail job (threshold < max/2, like Job "
                            "6274140245)", true},
                       Case{"near-tail job (threshold > max/2, like Job "
                            "6343048076)", false}}) {
    const auto job = generator.generate_job(0, c.far);
    const auto norm = job.normalized_latencies();
    const double thr = job.straggler_threshold() / job.completion_time();

    std::cout << "=== Figure 1 — " << c.title << " ===\n";
    std::cout << "tasks: " << job.task_count()
              << ", normalized p90 threshold: " << TextTable::num(thr, 3)
              << ", half-max: 0.500 — threshold is "
              << (thr < 0.5 ? "BELOW" : "ABOVE") << " half-max\n";
    const Histogram hist(norm, bins);
    std::cout << hist.ascii() << "\n";
  }
  return 0;
}
