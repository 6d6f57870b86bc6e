#include "serve/cluster_sink.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace nurd::serve {

namespace {

sched::ClusterConfig with_monitor_arrivals(sched::ClusterConfig config,
                                           const ShardedMonitor& monitor) {
  NURD_CHECK(monitor.plan().deferred_events == 0,
             "LiveClusterFeed needs a plan without quota deferrals: the "
             "watermark is in admission time, the cluster in eligible time");
  const auto times = monitor.arrivals();
  config.arrivals =
      sched::fixed_arrivals(std::vector<double>(times.begin(), times.end()));
  return config;
}

}  // namespace

LiveClusterFeed::LiveClusterFeed(std::span<const trace::Job> jobs,
                                 sched::ClusterConfig config,
                                 const ShardedMonitor& monitor,
                                 std::uint64_t seed)
    : monitor_(&monitor),
      config_(with_monitor_arrivals(std::move(config), monitor)),
      rng_(seed),
      engine_(jobs, config_, rng_) {}

FlagSink LiveClusterFeed::sink() {
  return [this](const FlagDecision& flag) {
    MutexLock lock(mutex_);
    engine_.post_flag(flag.job, flag.task, flag.checkpoint);
    // Safe to advance: the monitor's watermark still covers this flag's
    // event (its time leaves the in-flight set only after the sink returns),
    // and the engine stops strictly below the bound. low_watermark() takes
    // each engine's lock in turn while we hold ours — the codebase's single
    // nested acquisition, feed → engine (documented in common/sync.h);
    // engines never call the sink with their lock held, so the order cannot
    // invert.
    engine_.advance_to(monitor_->low_watermark());
  };
}

sched::ClusterResult LiveClusterFeed::finish() {
  MutexLock lock(mutex_);
  return engine_.finish();
}

}  // namespace nurd::serve
