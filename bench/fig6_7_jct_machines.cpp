// Figures 6 and 7 reproduction: reduction in job completion time under
// Algorithm 3 as a function of the number of spare machines (100..1000),
// per method, on both datasets; plus the cluster-level extension where the
// same machine sweep is ONE pool shared by all jobs running concurrently
// (event-driven simulator, batch arrivals, replication-averaged).
//
//   $ ./fig6_7_jct_machines [--jobs=40] [--dataset=google|alibaba|both]
//                           [--reps=5]
//
// Paper claims: reductions increase with machine count, and NURD is highest
// at every count except the smallest pools.
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
  // Spare-machine pool sizes. The paper sweeps 100..1000 against jobs of
  // 100..9999 tasks; our jobs have 100..400 tasks, so the same *relative*
  // sweep is 10..120 spares (we also print the paper's absolute axis).
  const std::vector<std::size_t> machine_counts{10, 20, 30, 40, 50,
                                                60, 80, 100, 120};

  for (const auto dataset : datasets) {
    const auto jobs = bench::make_jobs(dataset, n_jobs);
    std::cout << "=== Figure "
              << (dataset == bench::Dataset::kGoogle ? 6 : 7)
              << " — JCT reduction % vs machine count, "
              << bench::dataset_name(dataset) << " (" << jobs.size()
              << " jobs) ===\n";
    std::vector<std::string> header{"Method"};
    for (auto m : machine_counts) header.push_back("m=" + std::to_string(m));
    TextTable table(header);
    TextTable cluster_table(header);
    for (const auto& method :
         core::all_predictors(bench::tuned_config(dataset))) {
      const auto runs = eval::run_method(method, jobs);
      std::vector<std::string> row{method.name};
      std::vector<std::string> cluster_row{method.name};
      for (auto m : machine_counts) {
        row.push_back(TextTable::num(
            sched::mean_reduction_limited(jobs, runs, m, seed), 1));
        sched::ClusterConfig config;
        config.machines = m;
        config.reclaim_releases = true;  // the axis where spares bind
        const auto summary = sched::summarize_replications(
            sched::simulate_cluster_replicated(jobs, runs, config, reps,
                                               seed));
        cluster_row.push_back(
            TextTable::num(summary.mean_reduction_pct, 1));
      }
      table.add_row(std::move(row));
      cluster_table.add_row(std::move(cluster_row));
      std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    std::cout << table.render() << "\n";
    std::cout << "--- cluster extension: the same sweep with ONE dedicated"
                 " pool shared across all "
              << jobs.size() << " jobs running concurrently ("
              << reps << " replications, releases reclaimed) ---\n";
    std::cout << cluster_table.render() << "\n";
  }
  return 0;
}
