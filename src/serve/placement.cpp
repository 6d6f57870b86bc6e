#include "serve/placement.h"

#include <vector>

#include "common/check.h"

namespace nurd::serve {

namespace {

// Fixed-constant splitmix64 — the same deterministic mixer everywhere, so a
// placement is reproducible from (seed, key) alone on every platform.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The open shards, in index order. Placement hashes/minimizes over this
// list so drained shards can never be chosen.
std::vector<std::size_t> open_shards(const PlacementContext& ctx) {
  std::vector<std::size_t> open;
  open.reserve(ctx.shard_open.size());
  for (std::size_t s = 0; s < ctx.shard_open.size(); ++s) {
    if (ctx.shard_open[s]) open.push_back(s);
  }
  NURD_CHECK(!open.empty(), "placement with every shard drained");
  return open;
}

}  // namespace

PlacementPolicy hash_placement() {
  return [](const PlacementContext& ctx) {
    const auto open = open_shards(ctx);
    const std::uint64_t h =
        splitmix64(ctx.seed ^ (0x517cc1b727220a95ULL *
                               static_cast<std::uint64_t>(ctx.job + 1)));
    return open[h % open.size()];
  };
}

PlacementPolicy least_loaded_placement() {
  return [](const PlacementContext& ctx) {
    const auto open = open_shards(ctx);
    std::size_t best = open.front();
    for (const std::size_t s : open) {
      if (ctx.shard_load[s] < ctx.shard_load[best]) best = s;
    }
    return best;
  };
}

PlacementPolicy tenant_affinity_placement() {
  return [](const PlacementContext& ctx) {
    const auto open = open_shards(ctx);
    const std::uint64_t h =
        splitmix64(ctx.seed ^ (0xda942042e4dd58b5ULL *
                               static_cast<std::uint64_t>(ctx.tenant + 1)));
    return open[h % open.size()];
  };
}

}  // namespace nurd::serve
