// The serving layer → cluster simulator bridge. LiveClusterFeed is a
// FlagSink that forwards every ShardedMonitor decision into a live-mode
// sched::ClusterEngine the moment it is emitted, then advances the cluster
// behind the stream's low watermark — relaunch decisions are driven by the
// predictors AS THEY RUN instead of from a precomputed flag table
// (eval::run_method → simulate_cluster, the batch path).
//
// Correctness rests on two ordering facts:
//   * the monitor's low_watermark() only passes an event time once that
//     event's flags have been delivered to the sink, and the engine only
//     processes events strictly BELOW the watermark — so a flag can never
//     arrive behind cluster time. The watermark is in ADMISSION time while
//     the cluster places a flag at its ELIGIBLE time (arrival + τrun); the
//     two agree only when no tenant quota defers an event, which the
//     constructor checks;
//   * the live engine's RNG stream is drawn entirely at construction
//     (arrivals, then one relaunch latency per task), so the simulation
//     outcome is a deterministic function of (jobs, arrivals, flag set) —
//     identical at any shard × thread count, whatever order flags arrive in.
//
// Thread-safety: the sink and finish() serialize on an internal mutex; one
// feed serves one ShardedMonitor run. This mutex is the ONE lock in the
// codebase held across a call into another locked layer — the sink queries
// ShardedMonitor::low_watermark(), which takes each shard's shard_mutex_ in
// turn, one at a time, while the feed's mutex_ is held: the order is
// LiveClusterFeed::mutex_ → shard_mutex_, never the reverse (shards invoke
// the sink with their own lock released). See the lock-ordering table in
// common/sync.h.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "common/sync.h"
#include "sched/cluster.h"
#include "serve/shard_pool.h"

namespace nurd::serve {

class LiveClusterFeed {
 public:
  /// Binds a live cluster to `monitor`'s job set and arrival schedule:
  /// `config.arrivals` is replaced by sched::fixed_arrivals(
  /// monitor.arrivals()) so both sides simulate the same timeline. `jobs`
  /// must be the monitor's job span (and outlive the feed); `seed` drives
  /// the per-task relaunch-latency draws. Throws std::invalid_argument when
  /// the monitor's plan defers any event behind a tenant quota (see above).
  LiveClusterFeed(std::span<const trace::Job> jobs,
                  sched::ClusterConfig config, const ShardedMonitor& monitor,
                  std::uint64_t seed);

  /// The FlagSink to install with ShardedMonitor::set_sink. Each call posts
  /// the flag and advances the engine to the monitor's current low
  /// watermark.
  FlagSink sink();

  /// Drains the cluster past the last event and returns the result. Call
  /// once, after ShardedMonitor::run() returns.
  sched::ClusterResult finish() NURD_EXCLUDES(mutex_);

 private:
  const ShardedMonitor* monitor_;
  sched::ClusterConfig config_;  ///< owns the fixed-arrivals override
  Rng rng_;
  Mutex mutex_;
  sched::ClusterEngine engine_ NURD_GUARDED_BY(mutex_);
};

}  // namespace nurd::serve
