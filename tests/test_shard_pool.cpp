// The serving fleet's contracts (serve/shard_pool.h):
//   * flag-set identity: shards x workers never changes the per-job
//     records (and the 1x1 fleet, whose 0-lane dag runs one checkpoint at a
//     time, is bit-identical to the batch harness), including across a
//     mid-stream drain/rebalance;
//   * the sink receives exactly the flags recorded in FleetResult::runs,
//     and every decision carries its plan event's shard, tenant and
//     admission time;
//   * hash placement is a pure function of (placement_seed, job) over the
//     open shards, so the same config places every job on the same shard;
//   * per-tenant admission quotas defer ONLY the over-quota tenant, and
//     never change anybody's flags;
//   * arrival and drain times must be finite: the plan rejects the rest;
//   * a stage error surfaces from run() on every execution path, without
//     hanging.
#include "serve/shard_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/task_dag.h"
#include "eval/harness.h"
#include "trace/generator.h"

namespace nurd::serve {
namespace {

std::vector<trace::Job> generated_jobs(std::size_t count,
                                       std::uint64_t seed = 0) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 80;
  config.max_tasks = 120;
  config.seed += seed;
  trace::GoogleLikeGenerator gen(config);
  return gen.generate(count);
}

// Both tuned configs, GBT rounds reduced to keep the fits fast in tests.
core::RegistryConfig tuned(bool google) {
  auto config = google ? core::google_tuned() : core::alibaba_tuned();
  config.gbt_rounds = 10;
  return config;
}

void expect_runs_identical(const std::vector<eval::JobRunResult>& a,
                           const std::vector<eval::JobRunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].flagged_at, b[j].flagged_at) << "job " << j;
    ASSERT_EQ(a[j].per_checkpoint.size(), b[j].per_checkpoint.size());
    for (std::size_t t = 0; t < a[j].per_checkpoint.size(); ++t) {
      EXPECT_EQ(a[j].per_checkpoint[t].tp, b[j].per_checkpoint[t].tp);
      EXPECT_EQ(a[j].per_checkpoint[t].fp, b[j].per_checkpoint[t].fp);
      EXPECT_EQ(a[j].per_checkpoint[t].fn, b[j].per_checkpoint[t].fn);
      EXPECT_EQ(a[j].per_checkpoint[t].tn, b[j].per_checkpoint[t].tn);
    }
    EXPECT_EQ(a[j].final.tp, b[j].final.tp);
    EXPECT_EQ(a[j].final.fp, b[j].final.fp);
    EXPECT_EQ(a[j].final.fn, b[j].final.fn);
    EXPECT_EQ(a[j].final.tn, b[j].final.tn);
  }
}

using FlagTriple = std::tuple<std::size_t, std::size_t, std::size_t>;

// The recorded flags of `runs` as sorted (job, task, flagged_at) triples.
std::vector<FlagTriple> recorded_flags(
    const std::vector<eval::JobRunResult>& runs) {
  std::vector<FlagTriple> out;
  for (std::size_t j = 0; j < runs.size(); ++j) {
    for (std::size_t i = 0; i < runs[j].flagged_at.size(); ++i) {
      if (runs[j].flagged_at[i] != eval::kNeverFlagged) {
        out.emplace_back(j, i, runs[j].flagged_at[i]);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Records decisions concurrently and reduces them to the canonical flag
// SET — (job, task, checkpoint) — plus per-job order checking.
struct RecordingSink {
  std::mutex mutex;
  std::vector<FlagDecision> decisions;
  std::vector<std::size_t> last_checkpoint;

  explicit RecordingSink(std::size_t jobs) : last_checkpoint(jobs, 0) {}

  FlagSink sink() {
    return [this](const FlagDecision& flag) {
      std::lock_guard<std::mutex> lock(mutex);
      EXPECT_GE(flag.checkpoint, last_checkpoint[flag.job]);
      last_checkpoint[flag.job] = flag.checkpoint;
      decisions.push_back(flag);
    };
  }

  std::vector<FlagTriple> flag_set() {
    std::vector<FlagTriple> out;
    out.reserve(decisions.size());
    for (const auto& d : decisions) {
      out.emplace_back(d.job, d.task, d.checkpoint);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST(ShardedMonitor, SerializedFleetIsBitIdenticalToRunMethod) {
  const auto jobs = generated_jobs(4);
  // An outlier detector, the privileged method, and a warm-started learner —
  // three very different predictor lifecycles through the same session code.
  for (const auto* name : {"HBOS", "Wrangler", "GBTR"}) {
    SCOPED_TRACE(name);
    const auto method = core::predictor_by_name(name, tuned(true));
    const auto reference = eval::run_method(method, jobs);

    ShardedMonitorConfig config;
    config.shards = 1;
    config.threads = 1;
    ShardedMonitor fleet(jobs, method, config);
    const auto served = fleet.run();

    expect_runs_identical(served.runs, reference);
    EXPECT_EQ(served.totals.jobs, jobs.size());
  }
}

// The headline acceptance pin: identical per-job records at shards in
// {1, 2, 4} x workers in {1, 4}, plus 16 workers on one shard, for both
// tuned configs, under Poisson arrivals, so jobs interleave on every shard
// and the admission window mixes their checkpoints. At every shape the sink
// delivers exactly the recorded flags, each once, and the RecordingSink
// checks per-job checkpoint order on every delivery.
TEST(ShardedMonitor, FlagSetIdenticalAcrossShardAndWorkerGrid) {
  struct Shape {
    std::size_t shards, workers;
  };
  const std::vector<Shape> shapes = {{1, 1}, {1, 4}, {2, 1}, {2, 4},
                                     {4, 1}, {4, 4}, {1, 16}};
  const auto jobs = generated_jobs(6);
  for (const bool google : {true, false}) {
    SCOPED_TRACE(google ? "google_tuned" : "alibaba_tuned");
    const auto method = core::predictor_by_name("GBTR", tuned(google));
    const auto reference = eval::run_method(method, jobs);
    for (const Shape& shape : shapes) {
      SCOPED_TRACE("shards=" + std::to_string(shape.shards) +
                   " workers=" + std::to_string(shape.workers));
      ShardedMonitorConfig config;
      config.shards = shape.shards;
      config.threads = shape.workers;
      config.arrivals = sched::poisson_arrivals(3.0);
      config.arrival_seed = 7;
      RecordingSink sink(jobs.size());
      ShardedMonitor fleet(jobs, method, config);
      fleet.set_sink(sink.sink());
      const auto served = fleet.run();

      expect_runs_identical(served.runs, reference);
      EXPECT_EQ(sink.flag_set(), recorded_flags(served.runs));
      EXPECT_EQ(sink.decisions.size(), served.totals.flags);
      EXPECT_EQ(served.totals.lanes, shape.shards * shape.workers);
    }
  }
}

// Kill-style drain: shard 0 drains mid-stream, its jobs re-place and resume
// on open shards, and the final records and flag set are bit-identical to
// the undrained run. The drain time lands inside the event stream so real
// handoffs happen (asserted), and the grid covers 0-lane (inline) and laned
// DAG execution on the receiving side. The jobs split over two unmetered
// tenants, and every decision carries its plan event's shard, tenant and
// admission time — including the decisions made after a handoff.
TEST(ShardedMonitor, DrainRebalanceKeepsFlagSetBitIdentical) {
  const auto jobs = generated_jobs(6, 1);
  const auto method = core::predictor_by_name("GBTR", tuned(true));
  const auto reference = eval::run_method(method, jobs);

  auto base_config = [&] {
    ShardedMonitorConfig config;
    config.threads = 1;
    config.arrivals = sched::poisson_arrivals(3.0);
    config.arrival_seed = 11;
    config.tenants = {TenantSpec{"even", QoS::kStandard, 0.0},
                      TenantSpec{"odd", QoS::kStandard, 0.0}};
    config.tenant_of.resize(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) config.tenant_of[j] = j % 2;
    return config;
  };

  // The drain must interrupt at least one job: pick the midpoint of the
  // planned admission window from an undrained plan.
  double mid = 0.0;
  {
    auto config = base_config();
    config.shards = 2;
    ShardedMonitor probe(jobs, method, config);
    const auto& events = probe.plan().events;
    ASSERT_FALSE(events.empty());
    mid = events[events.size() / 2].admission;
  }

  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      auto config = base_config();
      config.shards = shards;
      config.threads = workers;
      config.drains = {{mid, 0}};
      RecordingSink sink(jobs.size());
      ShardedMonitor fleet(jobs, method, config);
      fleet.set_sink(sink.sink());
      EXPECT_GT(fleet.plan().handoffs.size(), 0u);
      for (const auto& h : fleet.plan().handoffs) {
        EXPECT_EQ(h.from, 0u);  // only the drained shard loses jobs
        EXPECT_NE(h.to, 0u);    // and it never receives any
      }
      const auto served = fleet.run();
      EXPECT_EQ(served.handoffs, fleet.plan().handoffs.size());
      expect_runs_identical(served.runs, reference);
      // After the drain time, no event runs on the drained shard.
      for (const auto& e : fleet.plan().events) {
        if (e.admission >= mid) {
          EXPECT_NE(e.shard, 0u);
        }
      }
      // Each decision carries its (job, checkpoint) plan event's fields.
      std::vector<std::vector<const ShardPlan::Event*>> event_of(jobs.size());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        event_of[j].resize(jobs[j].checkpoint_count(), nullptr);
      }
      for (const auto& e : fleet.plan().events) {
        event_of[e.job][e.checkpoint] = &e;
      }
      ASSERT_FALSE(sink.decisions.empty());
      for (const FlagDecision& d : sink.decisions) {
        const ShardPlan::Event* e = event_of[d.job][d.checkpoint];
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(d.shard, e->shard);
        EXPECT_EQ(d.tenant, e->tenant);
        EXPECT_EQ(d.time, e->admission);
      }
    }
  }
}

// A drain time that is not finite is rejected at construction: a NaN key
// would break the drain sort's ordering and stall the drain sweep, silently
// cancelling the fleet's valid drains.
TEST(ShardedMonitor, RejectsNonFiniteDrainTime) {
  const auto jobs = generated_jobs(3, 1);
  const auto method = core::predictor_by_name("HBOS", tuned(true));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    ShardedMonitorConfig config;
    config.shards = 3;
    config.arrivals = sched::poisson_arrivals(3.0);
    config.drains = {{1.0, 1}, {bad, 2}};
    EXPECT_THROW(ShardedMonitor(jobs, method, config), std::invalid_argument);
  }
}

// An arrival time that is not finite is rejected at construction: an
// infinite arrival would plan events that can never be admitted.
TEST(ShardedMonitor, RejectsNonFiniteArrival) {
  const auto jobs = generated_jobs(2, 1);
  const auto method = core::predictor_by_name("HBOS", tuned(true));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    ShardedMonitorConfig config;
    config.arrivals = sched::fixed_arrivals({0.0, bad});
    EXPECT_THROW(ShardedMonitor(jobs, method, config), std::invalid_argument);
  }
}

// The flag-set gate at fleet scale, on the paper-default Google trace: GBTR
// (10 rounds) on the Google config, hash placement, batch arrivals and 4
// workers per shard. Per-job records and the flag set at 4 shards equal
// those at 1 shard. 64 jobs run in tier-1 and 256 under the `slow` label.
void expect_fleet_matches_one_shard(std::size_t job_count) {
  trace::GoogleLikeGenerator gen(trace::GoogleLikeGenerator::google_defaults());
  const auto jobs = gen.generate(job_count);
  auto registry = core::google_tuned();
  registry.gbt_rounds = 10;
  registry.nurd_gbt_rounds = 10;
  auto serve = [&](std::size_t shards, RecordingSink* sink) {
    ShardedMonitorConfig config;
    config.shards = shards;
    config.threads = 4;
    ShardedMonitor fleet(jobs, "GBTR", registry, config);
    fleet.set_sink(sink->sink());
    return fleet.run();
  };
  RecordingSink one(jobs.size());
  RecordingSink four(jobs.size());
  const auto reference = serve(1, &one);
  const auto sharded = serve(4, &four);
  expect_runs_identical(sharded.runs, reference.runs);
  EXPECT_EQ(four.flag_set(), one.flag_set());
  EXPECT_FALSE(one.flag_set().empty());
}

TEST(ShardedMonitor, FleetFlagSetMatchesOneShardAt64Jobs) {
  expect_fleet_matches_one_shard(64);
}

TEST(ShardedMonitorSlow, FleetFlagSetMatchesOneShardAt256Jobs) {
  expect_fleet_matches_one_shard(256);
}

// Hash placement is pinned: at two seeds the home shards equal
// splitmix64(placement_seed, job) over four open shards, and two
// constructions of the same config agree. Without drains every shard stays
// open, so the arrival process cannot move a job.
TEST(Placement, HashPlacementIsPinnedAndDeterministic) {
  const auto jobs = generated_jobs(8);
  const auto method = core::predictor_by_name("HBOS", tuned(true));
  const std::vector<std::pair<std::uint64_t, std::vector<std::size_t>>>
      pinned = {{99, {3, 2, 2, 1, 2, 0, 3, 0}}, {0, {3, 3, 1, 0, 1, 1, 0, 0}}};
  for (const auto& entry : pinned) {
    const std::uint64_t seed = entry.first;
    SCOPED_TRACE("placement_seed=" + std::to_string(seed));
    auto make_plan = [&] {
      ShardedMonitorConfig config;
      config.shards = 4;
      config.arrivals = sched::poisson_arrivals(5.0);
      config.arrival_seed = 3;
      config.placement_seed = seed;
      return ShardedMonitor(jobs, method, config);
    };
    ShardedMonitor fleet1 = make_plan();
    ShardedMonitor fleet2 = make_plan();
    EXPECT_EQ(fleet1.plan().home_shard, entry.second);
    EXPECT_EQ(fleet2.plan().home_shard, fleet1.plan().home_shard);
  }
}

// The multi-tenant fairness regression test: tenant "spike" floods the
// fleet while tenant "steady" stays in quota. With the quota enforced, the
// spike tenant queues behind its own budget (deferrals > 0) and the steady
// tenant is never deferred; the records equal those of the unmetered run.
// Everything asserted lives in the plan plane (simulated time) or the
// records, so it is exactly reproducible.
TEST(ShardedMonitor, QuotaShieldsInQuotaTenantFromOverQuotaFlood) {
  const auto steady_jobs = generated_jobs(3, 2);
  const auto flood_jobs = generated_jobs(9, 3);
  std::vector<trace::Job> jobs;
  for (const auto& j : steady_jobs) jobs.push_back(j);
  for (const auto& j : flood_jobs) jobs.push_back(j);
  const auto method = core::predictor_by_name("HBOS", tuned(true));

  auto run_plan = [&](double spike_quota_rate) {
    ShardedMonitorConfig config;
    config.shards = 2;
    config.arrivals = sched::poisson_arrivals(50.0);
    config.arrival_seed = 5;
    config.tenants = {
        TenantSpec{"steady", QoS::kInteractive, 0.0},
        TenantSpec{"spike", QoS::kBatch, spike_quota_rate}};
    std::vector<std::size_t> tenant_of(jobs.size(), 1);
    for (std::size_t j = 0; j < steady_jobs.size(); ++j) tenant_of[j] = 0;
    config.tenant_of = tenant_of;
    // Trace checkpoints land over tens of thousands of simulated seconds,
    // so the spike tenant's burst outruns its 0.01 events/s quota.
    return ShardedMonitor(jobs, method, config);
  };

  ShardedMonitor with_quota = run_plan(0.01);
  ShardedMonitor without_quota = run_plan(0.0);
  const auto quota_result = with_quota.run();
  const auto flood_result = without_quota.run();
  const auto& quota_stats = quota_result.tenants;

  // The over-quota tenant queues behind its own budget...
  EXPECT_GT(quota_stats[1].deferred, 0u);
  EXPECT_GT(quota_stats[1].max_deferral_s, 0.0);
  // ...and the in-quota tenant is never deferred.
  EXPECT_EQ(quota_stats[0].deferred, 0u);
  EXPECT_EQ(quota_stats[0].max_deferral_s, 0.0);

  // Quotas shift admission times, never decisions: identical records.
  expect_runs_identical(quota_result.runs, flood_result.runs);
}

// Fleet stats account for every planned event exactly once, at any shape.
TEST(ShardedMonitor, StatsCoverEveryCheckpoint) {
  const auto jobs = generated_jobs(5, 6);
  const auto method = core::predictor_by_name("HBOS", tuned(true));
  std::size_t total = 0;
  for (const auto& j : jobs) total += j.checkpoint_count();

  ShardedMonitorConfig config;
  config.shards = 3;
  config.threads = 2;
  config.arrivals = sched::poisson_arrivals(4.0);
  ShardedMonitor fleet(jobs, method, config);
  const auto served = fleet.run();

  EXPECT_EQ(served.totals.checkpoints, total);
  std::size_t flagged = 0;
  for (const auto& run : served.runs) {
    for (const auto at : run.flagged_at) {
      if (at != eval::kNeverFlagged) ++flagged;
    }
  }
  EXPECT_EQ(served.totals.flags, flagged);
  EXPECT_EQ(served.totals.lanes, 6u);
  EXPECT_GT(served.totals.checkpoints_per_sec, 0.0);
  EXPECT_GE(served.totals.p99_latency_ms, served.totals.p50_latency_ms);
  EXPECT_GE(served.totals.peak_backlog, 1u);
  // Every stage body ran at least once, so every stage accumulated time.
  for (std::size_t i = 0; i < core::kStageCount; ++i) {
    EXPECT_GT(served.totals.stage_seconds[i], 0.0)
        << core::stage_name(static_cast<core::Stage>(i));
  }
  std::size_t per_shard = 0;
  std::size_t shard_jobs = 0;
  for (const auto& s : served.shards) {
    per_shard += s.checkpoints;
    shard_jobs += s.jobs;
  }
  EXPECT_EQ(per_shard, total);
  EXPECT_GE(shard_jobs, jobs.size());  // drains could only add re-serves
  std::size_t tenant_ckpts = 0;
  for (const auto& t : served.tenants) tenant_ckpts += t.checkpoints;
  EXPECT_EQ(tenant_ckpts, total);
}

TEST(ShardedMonitor, RunTwiceThrows) {
  const auto jobs = generated_jobs(2, 7);
  const auto method = core::predictor_by_name("HBOS", tuned(true));
  ShardedMonitorConfig config;
  ShardedMonitor fleet(jobs, method, config);
  fleet.run();
  EXPECT_THROW(fleet.run(), std::invalid_argument);
}

// ---- stage errors -----------------------------------------------------------

struct RefitFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Forwards to a real predictor, except that its refit throws at one
// checkpoint.
class FailingRefit : public core::StragglerPredictor {
 public:
  FailingRefit(std::unique_ptr<core::StragglerPredictor> inner,
               std::size_t fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  std::string name() const override { return inner_->name(); }
  core::Privilege privilege() const override { return inner_->privilege(); }
  void initialize(const core::JobContext& context) override {
    inner_->initialize(context);
  }
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override {
    return inner_->predict_stragglers(view, candidates);
  }
  bool staged() const override { return inner_->staged(); }
  void featurize_checkpoint(const trace::CheckpointView& view) override {
    inner_->featurize_checkpoint(view);
  }
  void refit_checkpoint(const trace::CheckpointView& view,
                        std::span<const std::size_t> candidates) override {
    if (view.index() == fail_at_) throw RefitFailure("refit failed");
    inner_->refit_checkpoint(view, candidates);
  }

 private:
  std::unique_ptr<core::StragglerPredictor> inner_;
  std::size_t fail_at_;
};

// A refit that throws mid-stream makes run() rethrow that error — after
// draining, never hanging — on a 0-lane dag (stages inline in the driver's
// admit), a laned dag, and a multi-shard fleet.
TEST(ShardedMonitor, StageErrorSurfacesFromRun) {
  const auto jobs = generated_jobs(4, 8);
  const auto inner = core::predictor_by_name("HBOS", tuned(true));
  const core::NamedPredictor failing{
      "HBOS-failing", [make = inner.make] {
        return std::make_unique<FailingRefit>(make(), /*fail_at=*/2);
      }};
  for (const auto& [shards, workers] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {1, 4},
                                                        {4, 1}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " workers=" + std::to_string(workers));
    ShardedMonitorConfig config;
    config.shards = shards;
    config.threads = workers;
    ShardedMonitor fleet(jobs, failing, config);
    EXPECT_THROW(fleet.run(), RefitFailure);
  }
}

}  // namespace
}  // namespace nurd::serve
