#include "sched/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <mutex>
#include <vector>

#include "sched/scheduler.h"
#include "test_jobs.h"
#include "trace/generator.h"

namespace nurd::sched {
namespace {

using trace::make_test_job;

eval::JobRunResult run_with_flags(std::vector<std::size_t> flagged_at) {
  eval::JobRunResult run;
  run.flagged_at = std::move(flagged_at);
  return run;
}

std::vector<trace::Job> generated_jobs(std::size_t count,
                                       std::uint64_t seed = 0) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 100;
  config.max_tasks = 140;
  config.seed += seed;
  trace::GoogleLikeGenerator gen(config);
  return gen.generate(count);
}

// Flags every true straggler still running at checkpoint `cp`.
std::vector<eval::JobRunResult> straggler_flags(
    std::span<const trace::Job> jobs, std::size_t cp = 1) {
  std::vector<eval::JobRunResult> runs(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto labels = jobs[j].straggler_labels();
    const double tau = jobs[j].trace.tau_run(cp);
    runs[j].flagged_at.assign(jobs[j].task_count(), eval::kNeverFlagged);
    for (std::size_t i = 0; i < jobs[j].task_count(); ++i) {
      if (labels[i] == 1 && tau < jobs[j].latency(i)) {
        runs[j].flagged_at[i] = cp;
      }
    }
  }
  return runs;
}

TEST(ClusterSim, SingleJobUnlimitedMatchesAlgorithm2Bitwise) {
  const auto jobs = generated_jobs(1);
  const auto runs = straggler_flags(jobs);
  Rng a(7), b(7);
  const auto alg2 = schedule_unlimited(jobs[0], runs[0].flagged_at, a);

  ClusterConfig config;
  config.machines = kUnlimitedMachines;
  const auto cluster = simulate_cluster(jobs, runs, config, b);

  ASSERT_EQ(cluster.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(cluster.jobs[0].original_jct, alg2.original_jct);
  EXPECT_DOUBLE_EQ(cluster.jobs[0].mitigated_jct, alg2.mitigated_jct);
  EXPECT_EQ(cluster.jobs[0].relaunched, alg2.relaunched);
  EXPECT_EQ(cluster.waited, 0u);
  EXPECT_EQ(cluster.peak_waiting, 0u);
}

TEST(ClusterSim, BatchUnlimitedMatchesMeanReductionUnlimitedBitwise) {
  const auto jobs = generated_jobs(4);
  const auto runs = straggler_flags(jobs);
  const std::uint64_t seed = 99;

  ClusterConfig config;
  config.machines = kUnlimitedMachines;
  Rng rng(seed);
  const auto cluster = simulate_cluster(jobs, runs, config, rng);

  // Algorithm 2 job-by-job on one sequential stream consumes the RNG in the
  // same canonical order as the cluster's setup pass.
  EXPECT_DOUBLE_EQ(cluster.mean_reduction_pct(),
                   mean_reduction_unlimited(jobs, runs, seed));

  Rng sequential(seed);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto alg2 = schedule_unlimited(jobs[j], runs[j].flagged_at,
                                         sequential);
    EXPECT_DOUBLE_EQ(cluster.jobs[j].mitigated_jct, alg2.mitigated_jct);
    EXPECT_EQ(cluster.jobs[j].relaunched, alg2.relaunched);
  }
}

// Single extreme straggler, zero spares: the first natural release serves it
// at the release instant in the event core, but only at a checkpoint (or the
// post-horizon drain) in Algorithm 3. With one flag both simulations consume
// exactly one resample draw, so JCTs are comparable per seed.
TEST(ClusterSim, EventDrivenDominatesCheckpointQuantizedSingleFlag) {
  const auto job =
      make_test_job("dom1", {30.0, 100.0}, {12.5, 20.0, 50.0});
  const auto run = run_with_flags({eval::kNeverFlagged, 1});  // flag @ τ=20
  bool strictly_better = false;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng a(seed), b(seed);
    ClusterConfig config;  // machines = 0
    const auto evt = simulate_cluster({&job, 1}, {&run, 1}, config, a);
    const auto lim = schedule_limited(job, run.flagged_at, 0, b);
    EXPECT_EQ(evt.jobs[0].relaunched, 1u);
    EXPECT_EQ(lim.relaunched, 1u);
    EXPECT_LE(evt.jobs[0].mitigated_jct, lim.mitigated_jct);
    if (evt.jobs[0].mitigated_jct < lim.mitigated_jct) strictly_better = true;
  }
  // The release fires at t=30, mid-gap of the (20, 50] checkpoint window.
  EXPECT_TRUE(strictly_better);
}

// Three extreme stragglers flagged in task order behind seven fast tasks:
// both simulations relaunch all three with per-task identical draws (FIFO
// order equals task order), so the event-driven JCT dominates per seed.
TEST(ClusterSim, EventDrivenDominatesCheckpointQuantizedMultiFlag) {
  const auto job = make_test_job(
      "dom3", {20, 25, 30, 35, 40, 45, 50, 1000, 1000, 1000},
      {10.0, 60.0, 90.0});
  std::vector<std::size_t> flags(10, eval::kNeverFlagged);
  flags[7] = flags[8] = flags[9] = 0;  // flagged at τ = 10
  const auto run = run_with_flags(std::move(flags));
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng a(seed), b(seed);
    ClusterConfig config;  // machines = 0
    const auto evt = simulate_cluster({&job, 1}, {&run, 1}, config, a);
    const auto lim = schedule_limited(job, run.flagged_at, 0, b);
    EXPECT_EQ(evt.jobs[0].relaunched, 3u);
    EXPECT_EQ(lim.relaunched, 3u);
    EXPECT_LT(evt.jobs[0].mitigated_jct, lim.mitigated_jct);
  }
}

TEST(ClusterSim, PoolConservationInvariantHoldsAtEveryEvent) {
  const auto jobs = generated_jobs(6);
  const auto runs = straggler_flags(jobs);
  const std::size_t machines = 2;

  std::size_t violations = 0;
  std::size_t observed = 0;
  ClusterConfig config;
  config.machines = machines;
  config.arrivals = poisson_arrivals(0.05);
  config.observer = [&](const Event&, const PoolState& pool) {
    ++observed;
    if (pool.unlimited) ++violations;
    if (pool.free + pool.in_use != machines + pool.released) ++violations;
  };
  Rng rng(11);
  const auto result = simulate_cluster(jobs, runs, config, rng);
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(observed, result.events);
  EXPECT_GT(result.relaunched, 0u);
}

TEST(ClusterSim, FifoFairnessUnderContention) {
  const std::vector<double> taus{10.0, 20.0, 50.0};
  const auto job_a = make_test_job("A", {30.0, 200.0}, taus);
  const auto job_b = make_test_job("B", {40.0, 200.0}, taus);
  const std::vector<trace::Job> jobs{job_a, job_b};

  // A flags at τ=10, B at τ=20: the first released machine (A's fast task at
  // t=30) must serve A's straggler; B's waits for the release at t=40.
  std::vector<eval::JobRunResult> runs;
  runs.push_back(run_with_flags({eval::kNeverFlagged, 0}));
  runs.push_back(run_with_flags({eval::kNeverFlagged, 1}));

  std::vector<std::pair<std::uint32_t, double>> relaunches;
  ClusterConfig config;  // machines = 0
  config.observer = [&](const Event& e, const PoolState&) {
    if (e.kind == EventKind::kRelaunch) relaunches.emplace_back(e.job, e.time);
  };
  Rng rng(3);
  const auto result = simulate_cluster(jobs, runs, config, rng);
  ASSERT_EQ(relaunches.size(), 2u);
  EXPECT_EQ(relaunches[0].first, 0u);
  EXPECT_DOUBLE_EQ(relaunches[0].second, 30.0);
  EXPECT_EQ(relaunches[1].first, 1u);
  EXPECT_DOUBLE_EQ(relaunches[1].second, 40.0);
  EXPECT_EQ(result.waited, 2u);
  EXPECT_EQ(result.peak_waiting, 2u);

  // Swap the flag order: B flags first (τ=10) and takes the t=30 release
  // even though it belongs to job A — cluster-wide FIFO, not per-job.
  runs.clear();
  runs.push_back(run_with_flags({eval::kNeverFlagged, 1}));
  runs.push_back(run_with_flags({eval::kNeverFlagged, 0}));
  relaunches.clear();
  Rng rng2(3);
  simulate_cluster(jobs, runs, config, rng2);
  ASSERT_EQ(relaunches.size(), 2u);
  EXPECT_EQ(relaunches[0].first, 1u);
  EXPECT_DOUBLE_EQ(relaunches[0].second, 30.0);
  EXPECT_EQ(relaunches[1].first, 0u);
  EXPECT_DOUBLE_EQ(relaunches[1].second, 40.0);
}

TEST(ClusterSim, ReclaimedReleasesLeaveOnlyTheDedicatedPool) {
  // Nine fast tasks plus three extreme stragglers flagged together, one
  // dedicated spare, reclaim_releases on: natural completions do NOT refill
  // the pool, so the single machine recycles through the queue — the first
  // grant is instant, every later relaunch waited for a copy return.
  std::vector<double> latencies(9, 100.0);
  latencies.insert(latencies.end(), 3, 10000.0);
  const auto job = make_test_job("reclaim", std::move(latencies),
                            {10.0, 60.0, 90.0});
  std::vector<std::size_t> flags(12, eval::kNeverFlagged);
  flags[9] = flags[10] = flags[11] = 0;
  const auto run = run_with_flags(std::move(flags));

  const std::size_t machines = 1;
  std::size_t violations = 0;
  ClusterConfig config;
  config.machines = machines;
  config.reclaim_releases = true;
  config.observer = [&](const Event&, const PoolState& pool) {
    // Donations never happen in reclaim mode, so the invariant pins the
    // pool to its initial size.
    if (pool.released != 0) ++violations;
    if (pool.free + pool.in_use != machines) ++violations;
  };
  Rng rng(4);
  const auto result = simulate_cluster({&job, 1}, {&run, 1}, config, rng);
  EXPECT_EQ(violations, 0u);
  EXPECT_GE(result.relaunched, 1u);
  EXPECT_EQ(result.waited, result.relaunched - 1);
}

TEST(ClusterSim, NoopFlagsAreCountedNotRelaunched) {
  const auto job = make_test_job("noop", {10.0, 100.0}, {12.5, 50.0, 99.0});
  // Task 0 finished at t=10, before its flag's checkpoint time τ=50.
  const auto run = run_with_flags({1, eval::kNeverFlagged});
  ClusterConfig config;
  config.machines = kUnlimitedMachines;
  Rng rng(5);
  const auto result = simulate_cluster({&job, 1}, {&run, 1}, config, rng);
  EXPECT_EQ(result.noop_flags, 1u);
  EXPECT_EQ(result.relaunched, 0u);
  EXPECT_DOUBLE_EQ(result.jobs[0].mitigated_jct,
                   result.jobs[0].original_jct);
}

TEST(ClusterSim, UnlimitedPoolNeverWaits) {
  const auto jobs = generated_jobs(3);
  const auto runs = straggler_flags(jobs);
  ClusterConfig config;
  config.machines = kUnlimitedMachines;
  config.arrivals = poisson_arrivals(0.1);
  Rng rng(21);
  const auto result = simulate_cluster(jobs, runs, config, rng);
  EXPECT_EQ(result.waited, 0u);
  EXPECT_EQ(result.peak_waiting, 0u);
  EXPECT_GT(result.relaunched, 0u);
}

TEST(ClusterSim, ReplicationsBitIdenticalAcrossThreadCounts) {
  const auto jobs = generated_jobs(4);
  const auto runs = straggler_flags(jobs);
  ClusterConfig config;
  config.machines = 3;
  config.arrivals = poisson_arrivals(0.02);

  const auto serial =
      simulate_cluster_replicated(jobs, runs, config, 6, 42, /*threads=*/1);
  const auto parallel =
      simulate_cluster_replicated(jobs, runs, config, 6, 42, /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_DOUBLE_EQ(serial[r].makespan, parallel[r].makespan);
    EXPECT_EQ(serial[r].relaunched, parallel[r].relaunched);
    EXPECT_EQ(serial[r].waited, parallel[r].waited);
    ASSERT_EQ(serial[r].jobs.size(), parallel[r].jobs.size());
    for (std::size_t j = 0; j < serial[r].jobs.size(); ++j) {
      EXPECT_DOUBLE_EQ(serial[r].jobs[j].mitigated_jct,
                       parallel[r].jobs[j].mitigated_jct);
    }
  }
  // Replications differ from each other (independent forked streams).
  EXPECT_NE(serial[0].makespan, serial[1].makespan);
}

TEST(ClusterSim, ArrivalProcesses) {
  Rng rng(1);
  const auto batch = batch_arrivals()(4, rng);
  EXPECT_EQ(batch, std::vector<double>(4, 0.0));

  const auto poisson = poisson_arrivals(0.5)(6, rng);
  ASSERT_EQ(poisson.size(), 6u);
  double prev = 0.0;
  for (double t : poisson) {
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_THROW(poisson_arrivals(0.0), std::invalid_argument);
}

TEST(ClusterSim, RejectsMismatchedInputs) {
  const auto jobs = generated_jobs(1);
  std::vector<eval::JobRunResult> runs;
  Rng rng(1);
  ClusterConfig config;
  EXPECT_THROW(simulate_cluster(jobs, runs, config, rng),
               std::invalid_argument);
  runs.push_back(run_with_flags({0, 1}));  // wrong length
  EXPECT_THROW(simulate_cluster(jobs, runs, config, rng),
               std::invalid_argument);
}

// An arrival time that is not finite is rejected at construction: an
// infinite arrival would complete its job at inf and count its tasks as
// stranded although no pool machine died.
TEST(ClusterSim, RejectsNonFiniteArrival) {
  const auto jobs = generated_jobs(2);
  std::vector<eval::JobRunResult> runs;
  for (const auto& job : jobs) {
    runs.push_back(run_with_flags(
        std::vector<std::size_t>(job.task_count(), eval::kNeverFlagged)));
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    ClusterConfig config;
    config.machines = 4;
    config.arrivals = fixed_arrivals({0.0, bad});
    Rng rng(1);
    EXPECT_THROW(simulate_cluster(jobs, runs, config, rng),
                 std::invalid_argument);
  }
}

// Long scenario sweeps, registered under the `slow` ctest label (enable with
// -DNURD_SLOW_TESTS=ON); excluded from the default test command.
TEST(ClusterSweepSlow, MachineSweepIsConservedAndHelpsOnAverage) {
  const auto jobs = generated_jobs(12, /*seed=*/5);
  const auto runs = straggler_flags(jobs);
  const std::vector<std::size_t> machine_counts{0, 2, 4, 8, 16, 32};

  std::vector<double> reductions;
  for (const std::size_t machines : machine_counts) {
    std::mutex mu;
    std::size_t violations = 0;
    ClusterConfig config;
    config.machines = machines;
    config.arrivals = poisson_arrivals(0.03);
    config.observer = [&](const Event&, const PoolState& pool) {
      if (pool.free + pool.in_use != machines + pool.released) {
        const std::lock_guard<std::mutex> lock(mu);
        ++violations;
      }
    };
    const auto reps =
        simulate_cluster_replicated(jobs, runs, config, 16, 1234);
    EXPECT_EQ(violations, 0u);
    reductions.push_back(summarize_replications(reps).mean_reduction_pct);
  }
  // More shared spares never hurt much on average (resampling noise only).
  EXPECT_GE(reductions.back(), reductions.front() - 1.0);

  // Slower arrivals stretch the makespan: offered load spreads out in time.
  ClusterConfig config;
  config.machines = 8;
  config.arrivals = poisson_arrivals(0.002);
  const auto sparse = summarize_replications(
      simulate_cluster_replicated(jobs, runs, config, 16, 77));
  config.arrivals = poisson_arrivals(0.2);
  const auto dense = summarize_replications(
      simulate_cluster_replicated(jobs, runs, config, 16, 77));
  EXPECT_GT(sparse.mean_makespan, dense.mean_makespan);
}

}  // namespace
}  // namespace nurd::sched
