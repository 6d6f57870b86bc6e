// Serving-layer bench: sustained checkpoints/sec, per-checkpoint decision
// latency (p50/p99, admission -> flags emitted), backlog depth, and the
// stage-level time breakdown while a ShardedMonitor fleet multiplexes
// concurrent jobs over per-shard pools.
//
//   ./bench_serve                         # NURD, both tuned configs, 1/4/16
//   ./bench_serve --levels=64,256 --shards=1,2,4
//                                         # the fleet-scaling sweep
//   ./bench_serve --shards=4 --check      # pin flag-set identity vs the
//                                         # first shard count in the list
//   ./bench_serve --method=GBTR --rounds=10 --dataset=google
//                 --json=BENCH_serve.json   # the CI smoke invocation
//
// Flags: --levels (comma list of concurrent-job counts), --shards (comma
// list of shard counts; each level runs once per count), --placement
// (hash|least-loaded|affinity), --check (assert per-job records and the
// flag set are identical across the --shards list; non-zero exit on drift),
// --method (Table-3 name), --dataset=google|alibaba|both, --threads
// (serving workers PER SHARD, 0 = hw), --window,
// --rounds (override boosting rounds; 0 keeps the tuned config),
// --service_rate + --shed_budget (enable the modeled per-shard backlog and
// QoS-tiered load-shedding; sheds change flags, so --check refuses them),
// --seed, --json=<path> (machine-readable results; what CI uploads as the
// bench artifact). Every level serves each job's FULL checkpoint stream
// with batch arrivals, so `level` is exactly the number of jobs streaming
// concurrently.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/task_dag.h"
#include "kernel/kernel.h"
#include "serve/placement.h"
#include "serve/shard_pool.h"

namespace {

std::vector<std::size_t> parse_levels(const std::string& csv) {
  std::vector<std::size_t> levels;
  for (const auto& token : nurd::bench::split_csv(csv)) {
    if (!token.empty()) {
      levels.push_back(std::strtoul(token.c_str(), nullptr, 10));
    }
  }
  return levels;
}

using FlagSet = std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>;

// True when two fleet runs made the same decisions: same flag set and the
// same per-job confusion records.
bool runs_identical(const std::vector<nurd::eval::JobRunResult>& a,
                    const std::vector<nurd::eval::JobRunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j].flagged_at != b[j].flagged_at) return false;
    if (a[j].final.tp != b[j].final.tp || a[j].final.fp != b[j].final.fp ||
        a[j].final.fn != b[j].final.fn || a[j].final.tn != b[j].final.tn) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nurd;
  const auto levels =
      parse_levels(bench::arg_string(argc, argv, "levels", "1,4,16"));
  const auto shard_counts =
      parse_levels(bench::arg_string(argc, argv, "shards", "1"));
  const auto placement_name =
      bench::arg_string(argc, argv, "placement", "hash");
  const bool check = !bench::arg_string(argc, argv, "check", "").empty() ||
                     [&] {
                       for (int i = 1; i < argc; ++i) {
                         if (std::string_view(argv[i]) == "--check") return true;
                       }
                       return false;
                     }();
  const auto method_name = bench::arg_string(argc, argv, "method", "NURD");
  const auto dataset = bench::arg_string(argc, argv, "dataset", "both");
  const auto threads =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "threads", 0));
  const auto window =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "window", 4));
  const auto rounds = bench::arg_long(argc, argv, "rounds", 0);
  const auto service_rate = std::strtod(
      bench::arg_string(argc, argv, "service_rate", "0").c_str(), nullptr);
  const auto shed_budget = static_cast<std::size_t>(
      bench::arg_long(argc, argv, "shed_budget", 0));
  const auto seed =
      static_cast<std::uint64_t>(bench::arg_long(argc, argv, "seed", 0));
  const auto json_path = bench::arg_string(argc, argv, "json", "");

  if (check && shed_budget > 0) {
    std::fprintf(stderr,
                 "--check with --shed_budget: sheds change flags by design; "
                 "refusing to pin them equal\n");
    return 2;
  }

  std::vector<bench::Dataset> datasets;
  if (dataset != "alibaba") datasets.push_back(bench::Dataset::kGoogle);
  if (dataset != "google") datasets.push_back(bench::Dataset::kAlibaba);

  std::printf(
      "bench_serve: %s, RefitPolicy::kIncremental, batch arrivals, "
      "window=%zu, workers/shard=%zu (0 = hardware), "
      "placement=%s, kernel backend: %s\n",
      method_name.c_str(), window, threads,
      placement_name.c_str(), kernel::backend_name());

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("serve");
  json.key("method").value(method_name);
  json.key("window").value(window);
  json.key("threads").value(threads);
  json.key("placement").value(placement_name);
  json.key("kernel_backend").value(kernel::backend_name());
  json.key("datasets").begin_array();

  bool check_failed = false;
  for (const auto ds : datasets) {
    auto tuned = bench::tuned_config(ds);
    if (rounds > 0) {
      tuned.gbt_rounds = static_cast<int>(rounds);
      tuned.nurd_gbt_rounds = static_cast<int>(rounds);
    }

    std::printf("\n%s-like traces\n", bench::dataset_name(ds));
    TextTable table({"jobs", "shards", "ckpts", "flags", "shed", "ckpt/s",
                     "p50 ms", "p99 ms", "shard p99 ms", "peak backlog",
                     "wall s"});
    // Per-stage busy time as share of total stage work, one row per run —
    // the pipelining story: which stage the wall-clock actually goes to.
    TextTable stages({"jobs", "shards", "featurize", "refit", "predict",
                      "flag", "busy s"});
    json.begin_object();
    json.key("dataset").value(bench::dataset_name(ds));
    json.key("levels").begin_array();

    const auto before = bench::alloc_stats();
    for (const auto level : levels) {
      const auto jobs = bench::make_jobs(ds, level, seed);
      // --check reference: the first shard count's records + flag set.
      std::vector<eval::JobRunResult> reference_runs;
      FlagSet reference_flags;
      for (const auto shards : shard_counts) {
        serve::ShardedMonitorConfig config;
        config.shards = shards;
        config.threads = threads;
        config.window = window;
        config.placement = serve::placement_by_name(placement_name);
        config.service_rate = service_rate;
        config.shed_budget = shed_budget;
        FlagSet flags;
        std::mutex flags_mutex;
        config.sink = [&](const serve::FlagDecision& d) {
          std::lock_guard<std::mutex> lock(flags_mutex);
          flags.emplace_back(d.job, d.task, d.checkpoint);
        };
        serve::ShardedMonitor fleet(jobs, method_name, tuned, config);
        const auto served = fleet.run();
        const auto& s = served.totals;
        std::sort(flags.begin(), flags.end());

        std::size_t shed = 0;
        double shard_p99 = 0.0;  // worst per-shard p99 — the straggler shard
        for (const auto& sh : served.shards) {
          shed += sh.shed;
          shard_p99 = std::max(shard_p99, sh.p99_latency_ms);
        }
        table.add_row({std::to_string(s.jobs), std::to_string(shards),
                       std::to_string(s.checkpoints), std::to_string(s.flags),
                       std::to_string(shed),
                       TextTable::num(s.checkpoints_per_sec, 1),
                       TextTable::num(s.p50_latency_ms, 2),
                       TextTable::num(s.p99_latency_ms, 2),
                       TextTable::num(shard_p99, 2),
                       std::to_string(s.peak_backlog),
                       TextTable::num(s.wall_seconds, 2)});

        double busy = 0.0;
        for (const double sec : s.stage_seconds) busy += sec;
        std::vector<std::string> row = {std::to_string(s.jobs),
                                        std::to_string(shards)};
        for (std::size_t i = 0; i < core::kStageCount; ++i) {
          row.push_back(
              TextTable::num(
                  busy > 0.0 ? 100.0 * s.stage_seconds[i] / busy : 0.0, 1) +
              "%");
        }
        row.push_back(TextTable::num(busy, 2));
        stages.add_row(row);

        json.begin_object();
        json.key("jobs").value(s.jobs);
        json.key("shards").value(shards);
        json.key("placement").value(placement_name);
        json.key("checkpoints").value(s.checkpoints);
        json.key("flags").value(s.flags);
        json.key("shed").value(shed);
        json.key("workers").value(s.lanes);
        json.key("ckpt_per_sec").value(s.checkpoints_per_sec);
        json.key("p50_latency_ms").value(s.p50_latency_ms);
        json.key("p99_latency_ms").value(s.p99_latency_ms);
        json.key("peak_backlog").value(s.peak_backlog);
        json.key("wall_seconds").value(s.wall_seconds);
        json.key("stage_seconds").begin_object();
        for (std::size_t i = 0; i < core::kStageCount; ++i) {
          json.key(core::stage_name(static_cast<core::Stage>(i)))
              .value(s.stage_seconds[i]);
        }
        json.end_object();
        json.key("per_shard").begin_array();
        for (const auto& sh : served.shards) {
          json.begin_object();
          json.key("shard").value(sh.shard);
          json.key("jobs").value(sh.jobs);
          json.key("checkpoints").value(sh.checkpoints);
          json.key("flags").value(sh.flags);
          json.key("shed").value(sh.shed);
          json.key("ckpt_per_sec").value(sh.checkpoints_per_sec);
          json.key("p50_latency_ms").value(sh.p50_latency_ms);
          json.key("p99_latency_ms").value(sh.p99_latency_ms);
          json.key("peak_backlog").value(sh.peak_backlog);
          json.end_object();
        }
        json.end_array();
        json.end_object();

        if (check) {
          if (reference_runs.empty() && reference_flags.empty()) {
            reference_runs = served.runs;
            reference_flags = std::move(flags);
          } else if (!runs_identical(served.runs, reference_runs) ||
                     flags != reference_flags) {
            std::fprintf(stderr,
                         "CHECK FAILED: %s level %zu: shards=%zu diverged "
                         "from shards=%zu\n",
                         bench::dataset_name(ds), level, shards,
                         shard_counts.front());
            check_failed = true;
          }
        }
      }
    }
    std::printf("%s", table.render().c_str());
    std::printf("stage share of busy time\n%s", stages.render().c_str());
    bench::print_resource_report("serve", before);
    json.end_array();
    json.key("peak_rss_bytes").value(bench::peak_rss_bytes());
    json.end_object();
  }
  json.end_array();
  json.key("check").value(check ? (check_failed ? "failed" : "passed")
                                : "off");
  json.end_object();
  if (!json_path.empty() && !json.write_file(json_path)) return 1;
  if (check_failed) return 1;
  if (check) std::printf("check: flag sets identical across shard counts\n");
  return 0;
}
