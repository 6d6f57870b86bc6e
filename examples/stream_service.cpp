// Serving-layer walkthrough: many jobs stream checkpoints concurrently
// through a one-shard ShardedMonitor, flags are delivered to a sink as they happen,
// and a live cluster simulation consumes them for relaunch decisions.
//
//   $ ./stream_service
//   $ ./stream_service --method=NURD --jobs=8 --threads=4
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/registry.h"
#include "eval/harness.h"
#include "serve/cluster_sink.h"
#include "serve/shard_pool.h"
#include "trace/generator.h"

namespace {

std::string flag_value(int argc, char** argv, const std::string& name,
                       std::string fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nurd;
  const std::string method = flag_value(argc, argv, "method", "GBTR");
  const auto n_jobs = static_cast<std::size_t>(
      std::strtoul(flag_value(argc, argv, "jobs", "6").c_str(), nullptr, 10));
  const auto threads = static_cast<std::size_t>(std::strtoul(
      flag_value(argc, argv, "threads", "4").c_str(), nullptr, 10));

  auto gen_config = trace::GoogleLikeGenerator::google_defaults();
  gen_config.min_tasks = 120;
  gen_config.max_tasks = 200;
  trace::GoogleLikeGenerator gen(gen_config);
  const auto jobs = gen.generate(n_jobs);

  // 1. A one-shard ShardedMonitor serves every job's checkpoint stream over
  //    one shared pool; jobs arrive over continuous time (Poisson), and each job's
  //    managed session maintains its models incrementally between
  //    checkpoints (RefitPolicy::kIncremental by default).
  serve::ShardedMonitorConfig config;
  config.shards = 1;
  config.threads = threads;
  config.arrivals = sched::poisson_arrivals(0.01);
  config.arrival_seed = 7;
  serve::ShardedMonitor monitor(jobs, method, core::google_tuned(), config);

  // 2. Flags stream into a sink the moment a predictor emits them. Here:
  //    count them, and feed every one into a LIVE cluster simulation that
  //    relaunches flagged tasks against a shared 8-machine spare pool.
  std::atomic<std::size_t> streamed{0};
  sched::ClusterConfig cluster;
  cluster.machines = 8;
  cluster.reclaim_releases = true;
  serve::LiveClusterFeed feed(jobs, cluster, monitor, /*seed=*/99);
  auto cluster_sink = feed.sink();
  monitor.set_sink([&](const serve::FlagDecision& flag) {
    streamed.fetch_add(1, std::memory_order_relaxed);
    cluster_sink(flag);
  });

  const auto served = monitor.run();
  const auto live = feed.finish();

  std::printf("served %zu jobs (%zu checkpoints) over %zu workers: "
              "%.0f ckpt/s, p50 %.2f ms, p99 %.2f ms, peak backlog %zu\n",
              served.totals.jobs, served.totals.checkpoints,
              served.totals.lanes, served.totals.checkpoints_per_sec,
              served.totals.p50_latency_ms, served.totals.p99_latency_ms,
              served.totals.peak_backlog);
  std::printf("flags streamed to the sink: %zu\n", streamed.load());
  std::printf("live cluster: %zu relaunches (%zu waited for a machine), "
              "mean JCT reduction %.1f%%\n",
              live.relaunched, live.waited, live.mean_reduction_pct());

  // 3. The determinism contract: the served per-job records are
  //    bit-identical to the batch harness over the same jobs.
  const auto tuned = [] {
    auto c = core::google_tuned();
    c.refit = core::RefitPolicy::kIncremental;
    return c;
  }();
  const auto reference =
      eval::run_method(core::predictor_by_name(method, tuned), jobs);
  bool identical = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    identical = identical &&
                served.runs[j].flagged_at == reference[j].flagged_at;
  }
  std::printf("parity with eval::run_method at %zu workers: %s\n", threads,
              identical ? "bit-identical" : "DIVERGED (bug!)");
  return identical ? 0 : 1;
}
