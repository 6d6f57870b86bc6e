// Figures 8 and 9 reproduction: reduction in job completion time averaged
// over all machine counts of the Figure 6/7 sweep, per method, plus the
// cluster-level counterpart (one shared pool across concurrent jobs,
// event-driven simulator, replication-averaged).
//
//   $ ./fig8_9_jct_avg [--jobs=40] [--dataset=google|alibaba|both]
//                      [--reps=5]
//
// Paper claims: NURD has the highest machine-count-averaged reductions
// (16.7% Google / 10.9% Alibaba).
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "sched/cluster.h"
#include "sched/scheduler.h"

int main(int argc, char** argv) {
  using namespace nurd;
  bench::accept_flags(argc, argv, {"jobs", "dataset", "seed", "reps"});
  const auto n_jobs = bench::arg_count(argc, argv, "jobs", 40);
  const auto datasets = bench::arg_datasets(argc, argv, "both");
  const auto seed =
      static_cast<std::uint64_t>(bench::arg_long(argc, argv, "seed", 99));
  const auto reps =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "reps", 5));
  const std::vector<std::size_t> machine_counts{10, 20, 30, 40, 50,
                                                60, 80, 100, 120};

  for (const auto dataset : datasets) {
    const auto jobs = bench::make_jobs(dataset, n_jobs);
    std::cout << "=== Figure "
              << (dataset == bench::Dataset::kGoogle ? 8 : 9)
              << " — JCT reduction % averaged over machine counts, "
              << bench::dataset_name(dataset) << " (" << jobs.size()
              << " jobs) ===\n";
    TextTable table({"Method", "Avg reduction %", "Cluster avg %"});
    std::string best_name;
    double best = -1e9;
    for (const auto& method :
         core::all_predictors(bench::tuned_config(dataset))) {
      const auto runs = eval::run_method(method, jobs);
      double total = 0.0;
      double cluster_total = 0.0;
      for (auto m : machine_counts) {
        total += sched::mean_reduction_limited(jobs, runs, m, seed);
        sched::ClusterConfig config;
        config.machines = m;
        config.reclaim_releases = true;
        cluster_total += sched::summarize_replications(
                             sched::simulate_cluster_replicated(
                                 jobs, runs, config, reps, seed))
                             .mean_reduction_pct;
      }
      const double avg = total / static_cast<double>(machine_counts.size());
      const double cluster_avg =
          cluster_total / static_cast<double>(machine_counts.size());
      table.add_row({method.name, TextTable::num(avg, 1),
                     TextTable::num(cluster_avg, 1)});
      if (avg > best) {
        best = avg;
        best_name = method.name;
      }
      std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    std::cout << table.render();
    std::cout << "highest average reduction: " << best_name << " ("
              << TextTable::num(best, 1) << "%)\n\n";
  }
  return 0;
}
