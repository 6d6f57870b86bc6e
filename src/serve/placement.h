// Job-placement policies for the sharded serving fleet (serve/shard_pool.h).
//
// A policy picks the shard a job lands on, at the job's first planned event
// and again at every drain re-placement. Policies run in the PLAN plane: the
// context they see — admission time, planned per-shard load, which shards
// are still open — is a deterministic function of (jobs, arrival process,
// seeds, config), never of execution timing, so the same inputs place the
// same jobs on the same shards at any thread count. That is the whole
// determinism story for placement; nothing else is needed.
//
// Contract: return an OPEN shard index < shard count (drained shards are
// closed forever — a policy returning one is a programming error, checked
// by the planner). Policies must not keep mutable state across calls beyond
// what the context carries; the planner re-invokes them in admission order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

namespace nurd::serve {

/// What a policy knows when placing (or re-placing) one job.
struct PlacementContext {
  std::size_t job = 0;
  std::size_t tenant = 0;
  /// Simulated admission time of the event that triggered the placement.
  double time = 0.0;
  /// Checkpoints this placement will put on the chosen shard (the job's
  /// remaining planned events).
  std::size_t checkpoints = 0;
  /// Fleet-level placement seed (ShardedMonitorConfig::placement_seed).
  std::uint64_t seed = 0;
  /// Planned checkpoint-event load per shard, accumulated so far.
  std::span<const std::uint64_t> shard_load;
  /// Per shard: 1 = accepting placements, 0 = drained (closed forever).
  std::span<const std::uint8_t> shard_open;
};

/// Picks a shard for the context's job. Must return an open shard.
using PlacementPolicy = std::function<std::size_t(const PlacementContext&)>;

/// Stateless hash placement: splitmix64(seed, job) over the open shards.
/// Spreads uniformly, needs no load feedback, and a job's shard never
/// depends on other jobs — the cheapest policy and the bench default.
PlacementPolicy hash_placement();

/// Least-loaded placement: the open shard with the fewest planned
/// checkpoint events (ties to the lowest index). Balances heterogeneous
/// job lengths where hashing cannot.
PlacementPolicy least_loaded_placement();

/// Tenant-affinity (locality) placement: splitmix64(seed, tenant) over the
/// open shards — every job of a tenant lands on the same shard while it is
/// open, keeping a tenant's flag traffic on one engine.
PlacementPolicy tenant_affinity_placement();

}  // namespace nurd::serve
