// Scheduler integration example: the paper's §5 end-to-end story. Runs NURD
// over a batch of jobs, feeds the flags into both schedulers (Algorithm 2:
// unlimited machines; Algorithm 3: finite pool), and reports the
// job-completion-time reductions an operator would see. Then scales the same
// flags up to the cluster level: all jobs sharing ONE spare pool under the
// event-driven simulator, with batch and Poisson arrivals.
//
//   $ ./scheduler_sim [--jobs=10] [--machines=40]
//
// A malformed integer flag or --jobs=0 exits 2.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "sched/cluster.h"
#include "sched/scheduler.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  using namespace nurd;
  const auto n_jobs = bench::arg_count(argc, argv, "jobs", 10);
  const auto machines =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "machines", 40));

  auto config = trace::GoogleLikeGenerator::google_defaults();
  trace::GoogleLikeGenerator generator(config);
  const auto jobs = generator.generate(n_jobs);

  const auto tuned = core::google_tuned();
  const auto method = core::predictor_by_name("NURD", tuned);
  const auto runs = eval::run_method(method, jobs);

  std::cout << "NURD + schedulers over " << jobs.size() << " Google-like jobs\n\n";
  TextTable table({"job", "tasks", "orig JCT(s)", "Alg2 JCT(s)", "Alg2 red%",
                   "Alg3 JCT(s)", "Alg3 red%", "relaunches", "waited"});
  // Algorithm 2 is the cluster simulator with unlimited machines: every job
  // arrives at t = 0 and each flagged task relaunches at once.
  sched::ClusterConfig alg2;
  alg2.machines = sched::kUnlimitedMachines;
  Rng rng_a(99), rng_b(99);
  const auto alg2_result = sched::simulate_cluster(jobs, runs, alg2, rng_a);
  double sum_b = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& unlimited = alg2_result.jobs[j];
    const auto limited = sched::schedule_limited(
        jobs[j], runs[j].flagged_at, machines, rng_b);
    sum_b += limited.reduction_pct();
    table.add_row({jobs[j].id, std::to_string(jobs[j].task_count()),
                   TextTable::num(unlimited.original_jct, 0),
                   TextTable::num(unlimited.mitigated_jct, 0),
                   TextTable::num(unlimited.reduction_pct(), 1),
                   TextTable::num(limited.mitigated_jct, 0),
                   TextTable::num(limited.reduction_pct(), 1),
                   std::to_string(limited.relaunched),
                   std::to_string(limited.waited)});
  }
  std::cout << table.render();
  std::cout << "\nmean reduction: Algorithm 2 (unlimited) "
            << TextTable::num(alg2_result.mean_reduction_pct(), 1)
            << "%, Algorithm 3 (" << machines << " spare machines) "
            << TextTable::num(sum_b / static_cast<double>(jobs.size()), 1)
            << "%\n";

  // Cluster view: the same jobs and flags, but one shared pool and the
  // whole cluster advanced event by event. With Poisson arrivals the jobs
  // overlap only partially, so the same pool covers the load with less
  // queueing than the all-at-once batch.
  double mean_jct = 0.0;
  for (const auto& job : jobs) mean_jct += job.completion_time();
  mean_jct /= static_cast<double>(jobs.size());

  std::cout << "\nshared cluster (dedicated pool of " << machines
            << " spare machines, " << jobs.size()
            << " concurrent jobs, 8 replications):\n";
  TextTable cluster({"arrivals", "mean red%", "makespan(s)", "relaunches",
                     "waited", "peak queue"});
  for (const bool poisson : {false, true}) {
    sched::ClusterConfig config;
    config.machines = machines;
    config.reclaim_releases = true;
    if (poisson) config.arrivals = sched::poisson_arrivals(1.0 / mean_jct);
    const auto summary = sched::summarize_replications(
        sched::simulate_cluster_replicated(jobs, runs, config, 8, 99));
    cluster.add_row({poisson ? "poisson(1/mean JCT)" : "batch",
                     TextTable::num(summary.mean_reduction_pct, 1),
                     TextTable::num(summary.mean_makespan, 0),
                     TextTable::num(summary.mean_relaunched, 1),
                     TextTable::num(summary.mean_waited, 1),
                     std::to_string(summary.max_peak_waiting)});
  }
  std::cout << cluster.render();
  return 0;
}
