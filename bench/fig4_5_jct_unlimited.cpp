// Figures 4 and 5 reproduction: average reduction in job completion time
// with unlimited machines (Algorithm 2: the cluster simulator with
// kUnlimitedMachines and batch arrivals), per method, on both datasets.
//
//   $ ./fig4_5_jct_unlimited [--jobs=40] [--dataset=google|alibaba|both]
//
// Paper claims: NURD has the highest reductions (25.8% Google / 18.6%
// Alibaba), because its predictions are both early and precise — late or
// indiscriminate flags relaunch tasks too late or waste relaunches on
// non-stragglers whose resampled copies can finish *later* than the
// original.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "sched/cluster.h"

int main(int argc, char** argv) {
  using namespace nurd;
  bench::accept_flags(argc, argv, {"jobs", "dataset", "seed"});
  const auto n_jobs = bench::arg_count(argc, argv, "jobs", 40);
  const auto datasets = bench::arg_datasets(argc, argv, "both");
  const auto seed =
      static_cast<std::uint64_t>(bench::arg_long(argc, argv, "seed", 99));

  sched::ClusterConfig unlimited;
  unlimited.machines = sched::kUnlimitedMachines;

  for (const auto dataset : datasets) {
    const auto jobs = bench::make_jobs(dataset, n_jobs);
    std::cout << "=== Figure "
              << (dataset == bench::Dataset::kGoogle ? 4 : 5)
              << " — JCT reduction %, unlimited machines, "
              << bench::dataset_name(dataset) << " (" << jobs.size()
              << " jobs, resample seed " << seed << ") ===\n";
    TextTable table({"Method", "Reduction %"});
    std::string best_name;
    double best = -1e9;
    for (const auto& method :
         core::all_predictors(bench::tuned_config(dataset))) {
      const auto runs = eval::run_method(method, jobs);
      Rng rng(seed);
      const auto result = sched::simulate_cluster(jobs, runs, unlimited, rng);
      const double red = result.mean_reduction_pct();
      table.add_row({method.name, TextTable::num(red, 1)});
      if (red > best) {
        best = red;
        best_name = method.name;
      }
      std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    std::cout << table.render();
    std::cout << "highest reduction: " << best_name << " ("
              << TextTable::num(best, 1) << "%)\n\n";
  }
  return 0;
}
