#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include "sched/cluster.h"
#include "test_jobs.h"
#include "trace/generator.h"

namespace nurd::sched {
namespace {

using trace::make_test_job;

// One dominant straggler (latency 100) and nine fast tasks.
trace::Job toy_job() {
  return make_test_job("toy", {10, 11, 12, 13, 14, 15, 16, 17, 18, 100},
                       {12.5, 20.0, 50.0, 99.0});
}

// Algorithm 2: the cluster simulator with unlimited machines, on one job.
ClusterJobStats algorithm2(const trace::Job& job,
                           std::vector<std::size_t> flags, Rng& rng) {
  eval::JobRunResult run;
  run.flagged_at = std::move(flags);
  ClusterConfig config;
  config.machines = kUnlimitedMachines;
  return simulate_cluster({&job, 1}, {&run, 1}, config, rng).jobs[0];
}

TEST(Algorithm2, NoFlagsNoChange) {
  const auto job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  Rng rng(1);
  const auto r = algorithm2(job, flags, rng);
  EXPECT_DOUBLE_EQ(r.original_jct, 100.0);
  EXPECT_DOUBLE_EQ(r.mitigated_jct, 100.0);
  EXPECT_EQ(r.relaunched, 0u);
  EXPECT_DOUBLE_EQ(r.reduction_pct(), 0.0);
}

TEST(Algorithm2, EarlyFlagOnStragglerReducesJct) {
  const auto job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  flags[9] = 0;  // flag the straggler at τ = 12.5
  // A single resample can unluckily redraw the straggler latency (10%
  // chance), so check the average over seeds: expected new completion is
  // 12.5 + E[latency] ≈ 12.5 + 22.6, well below 100.
  double total_reduction = 0.0;
  std::size_t relaunched = 0;
  const int trials = 50;
  for (int seed = 0; seed < trials; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const auto r = algorithm2(job, flags, rng);
    total_reduction += r.reduction_pct();
    relaunched += r.relaunched;
  }
  EXPECT_EQ(relaunched, static_cast<std::size_t>(trials));
  EXPECT_GT(total_reduction / trials, 30.0);
}

TEST(Algorithm2, LateFlagHelpsLess) {
  const auto job = toy_job();
  std::vector<std::size_t> early(job.task_count(), eval::kNeverFlagged);
  std::vector<std::size_t> late(job.task_count(), eval::kNeverFlagged);
  early[9] = 0;  // τ = 12.5
  late[9] = 3;   // τ = 99 — right before the straggler finishes anyway
  double early_total = 0.0, late_total = 0.0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng ra(seed), rb(seed);
    early_total += algorithm2(job, early, ra).mitigated_jct;
    late_total += algorithm2(job, late, rb).mitigated_jct;
  }
  EXPECT_LT(early_total, late_total);
}

TEST(Algorithm2, FalsePositiveCanHurt) {
  // Flagging a fast task wastes a relaunch: its new completion is flag time
  // + resample, which can exceed its natural latency. With the straggler
  // untreated the JCT cannot improve.
  const auto job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  flags[0] = 0;
  Rng rng(3);
  const auto r = algorithm2(job, flags, rng);
  EXPECT_DOUBLE_EQ(r.original_jct, 100.0);
  EXPECT_GE(r.mitigated_jct, 100.0);  // straggler still finishes at 100
}

TEST(ScheduleLimited, ZeroSparesStillFreesFinishedMachines) {
  const auto job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  flags[9] = 1;  // flagged at τ = 20 with zero initial spares
  Rng rng(4);
  const auto r = schedule_limited(job, flags, 0, rng);
  // Machines freed by the nine fast tasks (all done by τ = 20 except some)
  // let the straggler relaunch at a later checkpoint.
  EXPECT_EQ(r.relaunched, 1u);
}

TEST(ScheduleLimited, PlentyOfSparesMatchesImmediateRelaunch) {
  const auto job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  flags[9] = 0;
  Rng ra(5), rb(5);
  const auto unlimited = algorithm2(job, flags, ra);
  const auto limited = schedule_limited(job, flags, 100, rb);
  EXPECT_DOUBLE_EQ(unlimited.mitigated_jct, limited.mitigated_jct);
}

TEST(ScheduleLimited, QueueDrainsFifo) {
  // Two flagged tasks, one spare machine: the first flagged gets it; the
  // second waits for a freed machine at a later checkpoint.
  trace::Job job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  flags[8] = 0;  // still running at τ=12.5 (latency 18)
  flags[9] = 0;  // straggler
  Rng rng(6);
  const auto r = schedule_limited(job, flags, 1, rng);
  EXPECT_EQ(r.relaunched + r.waited, 2u + r.waited);  // both relaunch or wait
  EXPECT_GE(r.waited, 0u);
}

TEST(ScheduleLimited, FlaggedTaskThatFinishesLeavesQueue) {
  trace::Job job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  // Task 0 (latency 10) is already finished by τ = 12.5; a flag on it must
  // not consume a machine.
  flags[0] = 0;
  Rng rng(7);
  const auto r = schedule_limited(job, flags, 5, rng);
  EXPECT_EQ(r.relaunched, 0u);
  EXPECT_DOUBLE_EQ(r.mitigated_jct, r.original_jct);
}

TEST(Algorithm2, NoopFlagConsumesNoRandomness) {
  // A no-op flag must leave the RNG stream untouched so that mixed flag
  // vectors stay reproducible: the straggler's resample below is the first
  // draw either way.
  const auto job = toy_job();
  std::vector<std::size_t> noop_then_real(job.task_count(),
                                          eval::kNeverFlagged);
  noop_then_real[0] = 3;  // finished task: no-op
  noop_then_real[9] = 0;  // straggler: real relaunch
  std::vector<std::size_t> real_only(job.task_count(), eval::kNeverFlagged);
  real_only[9] = 0;
  Rng a(13), b(13);
  const auto mixed = algorithm2(job, noop_then_real, a);
  const auto clean = algorithm2(job, real_only, b);
  EXPECT_DOUBLE_EQ(mixed.mitigated_jct, clean.mitigated_jct);
  EXPECT_EQ(mixed.relaunched, 1u);
  EXPECT_EQ(mixed.noop_flags, 1u);
}

TEST(ScheduleLimited, PostHorizonReleasesDrainQueue) {
  // Task 0 (latency 60) releases its machine after the final checkpoint
  // (τ = 50). Pre-fix, the checkpoint loop ended first, so the flagged
  // straggler waited forever: never relaunched, never counted in `waited`.
  const auto job =
      make_test_job("horizon", {60.0, 100.0}, {12.5, 20.0, 50.0});
  std::vector<std::size_t> flags{eval::kNeverFlagged, 1};  // flag @ τ = 20
  Rng rng(2);
  const auto r = schedule_limited(job, flags, 0, rng);
  EXPECT_EQ(r.relaunched, 1u);
  EXPECT_EQ(r.waited, 1u);
  // The relaunch fires at the actual release instant t = 60, not at a
  // checkpoint: completion = 60 + resample ∈ {120, 160}.
  EXPECT_GE(r.mitigated_jct, 120.0);
}

TEST(ScheduleLimited, DrainReleasesEachMachineOnce) {
  // All scheduling activity lands past the two-checkpoint horizon, so the
  // drain must reproduce the event-driven core exactly. The trap: when a
  // relaunched copy's completion collides with the task's original latency
  // (here task 1 relaunches at t=30 and a resample of 30 completes it at
  // exactly its natural 60), the task's stranded heap entry matches the
  // timestamp test too — pre-fix the drain released TWO machines at t=60
  // and relaunched both stragglers on one real machine, beating the event
  // simulator with phantom capacity.
  const auto job = make_test_job("collide", {30.0, 60.0, 1000.0, 1000.0},
                                 {10.0, 25.0});
  std::vector<std::size_t> flags{eval::kNeverFlagged, 0, 0, 0};
  const auto run = [&] {
    eval::JobRunResult r;
    r.flagged_at = flags;
    return r;
  }();
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng a(seed), b(seed);
    ClusterConfig config;  // machines = 0
    const auto evt = simulate_cluster({&job, 1}, {&run, 1}, config, a);
    const auto lim = schedule_limited(job, flags, 0, b);
    EXPECT_DOUBLE_EQ(lim.mitigated_jct, evt.jobs[0].mitigated_jct)
        << "seed " << seed;
    EXPECT_EQ(lim.relaunched, evt.jobs[0].relaunched) << "seed " << seed;
  }
}

TEST(ScheduleLimited, NoopFlagCountedNotQueued) {
  const auto job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  flags[0] = 2;  // task 0 (latency 10) finished long before τ = 50
  Rng rng(8);
  const auto r = schedule_limited(job, flags, 5, rng);
  EXPECT_EQ(r.relaunched, 0u);
  EXPECT_EQ(r.noop_flags, 1u);
  EXPECT_DOUBLE_EQ(r.mitigated_jct, r.original_jct);
}

// A flag checkpoint past the job's last checkpoint is a malformed flag
// vector: both algorithms reject it rather than drop the flag silently.
TEST(ScheduleLimited, RejectsOutOfRangeFlagCheckpoint) {
  const auto job = toy_job();
  std::vector<std::size_t> flags(job.task_count(), eval::kNeverFlagged);
  flags[9] = job.checkpoint_count();
  Rng ra(9), rb(9);
  EXPECT_THROW(schedule_limited(job, flags, 5, ra), std::invalid_argument);
  EXPECT_THROW(algorithm2(job, flags, rb), std::invalid_argument);
}

TEST(ScheduleLimited, MoreMachinesNeverWorseOnAverage) {
  auto c = trace::GoogleLikeGenerator::google_defaults();
  c.min_tasks = 100;
  c.max_tasks = 120;
  trace::GoogleLikeGenerator gen(c);
  const auto jobs = gen.generate(4);
  // Flag all true stragglers at their first running checkpoint.
  std::vector<eval::JobRunResult> runs(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto labels = jobs[j].straggler_labels();
    runs[j].flagged_at.assign(jobs[j].task_count(), eval::kNeverFlagged);
    for (std::size_t i = 0; i < jobs[j].task_count(); ++i) {
      if (labels[i] == 1) runs[j].flagged_at[i] = 1;
    }
  }
  const double few = mean_reduction_limited(jobs, runs, 2, 17);
  const double many = mean_reduction_limited(jobs, runs, 200, 17);
  EXPECT_GE(many, few - 1.0);  // allow resampling noise of ~1 point
}

TEST(MeanReduction, RejectsMismatchedInputs) {
  const auto job = toy_job();
  std::vector<trace::Job> jobs{job};
  std::vector<eval::JobRunResult> runs;
  EXPECT_THROW(mean_reduction_limited(jobs, runs, 5, 1),
               std::invalid_argument);
}

TEST(ClusterJobStats, ReductionPctSign) {
  ClusterJobStats r;
  r.original_jct = 100.0;
  r.mitigated_jct = 80.0;
  EXPECT_DOUBLE_EQ(r.reduction_pct(), 20.0);
  r.mitigated_jct = 120.0;
  EXPECT_DOUBLE_EQ(r.reduction_pct(), -20.0);
}

}  // namespace
}  // namespace nurd::sched
