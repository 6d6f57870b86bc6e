// Serving-layer walkthrough: many jobs stream checkpoints concurrently
// through a one-shard ShardedMonitor, flags are delivered to a sink as they
// happen, and the cluster simulator replays the served flags on the served
// timeline to measure relaunch mitigation.
//
//   $ ./stream_service
//   $ ./stream_service --method=NURD --jobs=8 --threads=4
//
// An unknown flag or --method name, a malformed integer flag or --jobs=0
// exits 2.
#include <atomic>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "sched/cluster.h"
#include "serve/shard_pool.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  using namespace nurd;
  bench::accept_flags(argc, argv, {"method", "jobs", "threads"});
  const auto n_jobs = bench::arg_count(argc, argv, "jobs", 6);
  const auto threads =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "threads", 4));
  // One incremental method serves the jobs and, in step 4, re-runs them
  // through the batch harness: a serving session maintains its models
  // between checkpoints.
  auto tuned = core::google_tuned();
  tuned.refit = core::RefitPolicy::kIncremental;
  const auto method = bench::method_by_name(
      argv[0], bench::arg_string(argc, argv, "method", "GBTR"), tuned);

  auto gen_config = trace::GoogleLikeGenerator::google_defaults();
  gen_config.min_tasks = 120;
  gen_config.max_tasks = 200;
  trace::GoogleLikeGenerator gen(gen_config);
  const auto jobs = gen.generate(n_jobs);

  // 1. A one-shard ShardedMonitor serves every job's checkpoint stream over
  //    one shared pool; jobs arrive over continuous time (Poisson), and each job's
  //    managed session maintains its models incrementally between
  //    checkpoints.
  serve::ShardedMonitorConfig config;
  config.shards = 1;
  config.threads = threads;
  config.arrivals = sched::poisson_arrivals(0.01);
  config.arrival_seed = 7;
  serve::ShardedMonitor monitor(jobs, method, config);

  // 2. Flags stream into a sink the moment a predictor emits them. Here:
  //    count them.
  std::atomic<std::size_t> streamed{0};
  monitor.set_sink([&](const serve::FlagDecision&) {
    streamed.fetch_add(1, std::memory_order_relaxed);
  });

  const auto served = monitor.run();

  // 3. The served flags relaunch tasks on a cluster with a shared 8-machine
  //    spare pool, on the same timeline the monitor served: its arrival
  //    draws are replayed, not re-drawn.
  sched::ClusterConfig cluster;
  cluster.machines = 8;
  cluster.reclaim_releases = true;
  cluster.arrivals = sched::fixed_arrivals(monitor.plan().arrivals);
  Rng cluster_rng(/*seed=*/99);
  const auto mitigated =
      sched::simulate_cluster(jobs, served.runs, cluster, cluster_rng);

  std::printf("served %zu jobs (%zu checkpoints) over %zu workers: "
              "%.0f ckpt/s, p50 %.2f ms, p99 %.2f ms, peak backlog %zu\n",
              served.totals.jobs, served.totals.checkpoints,
              served.totals.lanes, served.totals.checkpoints_per_sec,
              served.totals.p50_latency_ms, served.totals.p99_latency_ms,
              served.totals.peak_backlog);
  std::printf("flags streamed to the sink: %zu\n", streamed.load());
  std::printf("cluster: %zu relaunches (%zu waited for a machine), "
              "mean JCT reduction %.1f%%\n",
              mitigated.relaunched, mitigated.waited,
              mitigated.mean_reduction_pct());

  // 4. The determinism contract: the served per-job records are
  //    bit-identical to the batch harness over the same jobs.
  const auto reference = eval::run_method(method, jobs);
  bool identical = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    identical = identical &&
                served.runs[j].flagged_at == reference[j].flagged_at;
  }
  std::printf("parity with eval::run_method at %zu workers: %s\n",
              served.totals.lanes,
              identical ? "bit-identical" : "DIVERGED (bug!)");
  return identical ? 0 : 1;
}
