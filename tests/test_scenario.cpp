// Differential/property suite for the scenario zoo (src/scenario/).
//
// Pins the three contracts the zoo rests on:
//   * DETERMINISM — failure/preemption/drift scenarios are bit-identical at
//     1 vs 4 threads and across reruns (the injection draws live in the
//     canonical setup pass, never in the event loop), and enabling a
//     disabled knob never perturbs the draws of the others;
//   * CONSERVATION — the finite-pool invariant
//       free + in_use + failed == initial machines + released
//     holds after every event, failures included;
//   * the mid-copy machine-failure regression: a machine dying while
//     running a relaunched copy releases EXACTLY its own pool slot
//     (in_use -1, failed +1, free untouched) and the victim task requeues
//     and completes once a donation refills the pool.
//
// The ScenarioGateSlow cases (ctest label: slow) hold the robustness
// table's gates at its own inputs: no stranded task in any cell, the
// kIncremental vs kFull macro-F1 gap under drift, and 1 vs 4 thread
// bit-identity of the failures and drift cells.
#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "eval/harness.h"
#include "sched/cluster.h"
#include "test_jobs.h"
#include "trace/generator.h"

namespace nurd::scenario {
namespace {

using trace::make_test_job;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::vector<trace::Job> generated_jobs(std::size_t count,
                                       std::uint64_t seed_offset = 0,
                                       std::size_t threads = 1) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 60;
  config.max_tasks = 100;
  config.seed += seed_offset;
  trace::GoogleLikeGenerator gen(config);
  return gen.generate(count, threads);
}

// Flags every true straggler still running at checkpoint `cp` — a perfect
// oracle standing in for a predictor, so the cluster-side tests don't pay
// for model fits.
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

void expect_results_bitwise_equal(const sched::ClusterResult& a,
                                  const sched::ClusterResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_TRUE(bits_equal(a.jobs[j].completion, b.jobs[j].completion));
    EXPECT_TRUE(bits_equal(a.jobs[j].mitigated_jct, b.jobs[j].mitigated_jct));
    EXPECT_EQ(a.jobs[j].relaunched, b.jobs[j].relaunched);
    EXPECT_EQ(a.jobs[j].preempted, b.jobs[j].preempted);
  }
  EXPECT_TRUE(bits_equal(a.makespan, b.makespan));
  EXPECT_EQ(a.relaunched, b.relaunched);
  EXPECT_EQ(a.waited, b.waited);
  EXPECT_EQ(a.preempted, b.preempted);
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.stranded, b.stranded);
  EXPECT_EQ(a.events, b.events);
}

// ---- registry ----------------------------------------------------------------

TEST(ScenarioRegistry, NamesAreUniqueAndBaselineIsFirst) {
  const auto& zoo = scenario_zoo();
  ASSERT_FALSE(zoo.empty());
  EXPECT_EQ(zoo.front().name, "baseline");
  std::set<std::string> names;
  for (const auto& spec : zoo) {
    EXPECT_TRUE(names.insert(spec.name).second)
        << "duplicate scenario name " << spec.name;
    EXPECT_FALSE(spec.summary.empty());
  }
  // The axes the issue names must all be registered.
  for (const char* required :
       {"baseline", "diurnal", "hetero", "failures", "preempt", "drift"}) {
    EXPECT_EQ(scenario_by_name(required).name, required);
  }
}

TEST(ScenarioRegistry, UnknownNameThrowsListingScenarios) {
  try {
    scenario_by_name("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("baseline"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("drift"), std::string::npos);
  }
}

// ---- arrival schedules -------------------------------------------------------

TEST(ScenarioArrivals, PiecewiseIsDeterministicAndMonotone) {
  const auto make = sched::piecewise_poisson_arrivals(
      {{0.0, 2.0}, {5.0, 10.0}, {9.0, 1.0}});
  Rng a(3), b(3);
  const auto t1 = make(40, a);
  const auto t2 = make(40, b);
  ASSERT_EQ(t1.size(), 40u);
  EXPECT_EQ(t1, t2);
  EXPECT_TRUE(std::is_sorted(t1.begin(), t1.end()));
  EXPECT_GT(t1.front(), 0.0);
}

TEST(ScenarioArrivals, HigherRateArrivesFasterOnTheSameStream) {
  Rng a(7), b(7);
  const auto slow = sched::piecewise_poisson_arrivals({{0.0, 0.5}})(30, a);
  const auto fast = sched::piecewise_poisson_arrivals({{0.0, 50.0}})(30, b);
  // Same uniforms, scaled gaps: every arrival strictly earlier.
  for (std::size_t j = 0; j < slow.size(); ++j) EXPECT_LT(fast[j], slow[j]);
}

TEST(ScenarioArrivals, DiurnalIsDeterministicMonotoneAndRateBounded) {
  const auto make = sched::diurnal_poisson_arrivals(2.0, 0.8, 10.0);
  Rng a(11), b(11);
  const auto t1 = make(60, a);
  EXPECT_EQ(t1, make(60, b));
  EXPECT_TRUE(std::is_sorted(t1.begin(), t1.end()));
  // The modulated rate never exceeds base*(1+amp), so arrivals cannot come
  // faster than a constant-rate process on the same draws.
  Rng c(11);
  const auto cap = sched::poisson_arrivals(2.0 * 1.8)(60, c);
  for (std::size_t j = 0; j < t1.size(); ++j) EXPECT_GE(t1[j], cap[j]);
}

TEST(ScenarioArrivals, FactoryValidationThrows) {
  EXPECT_THROW(sched::piecewise_poisson_arrivals({}), std::invalid_argument);
  EXPECT_THROW(sched::piecewise_poisson_arrivals({{1.0, 2.0}}),
               std::invalid_argument);  // must begin at 0
  EXPECT_THROW(sched::piecewise_poisson_arrivals({{0.0, 2.0}, {0.0, 3.0}}),
               std::invalid_argument);  // strictly ascending begins
  EXPECT_THROW(sched::piecewise_poisson_arrivals({{0.0, -1.0}}),
               std::invalid_argument);  // positive rates
  EXPECT_THROW(sched::diurnal_poisson_arrivals(0.0, 0.5, 1.0),
               std::invalid_argument);
  EXPECT_THROW(sched::diurnal_poisson_arrivals(1.0, 1.0, 1.0),
               std::invalid_argument);  // amplitude < 1
  EXPECT_THROW(sched::diurnal_poisson_arrivals(1.0, 0.5, 0.0),
               std::invalid_argument);
}

// ---- drift -------------------------------------------------------------------

TEST(ScenarioDrift, PreShiftObservationsAreBitIdenticalToStationary) {
  const auto& drift = scenario_by_name("drift");
  const auto stationary =
      make_jobs(scenario_by_name("baseline"), TraceFamily::kGoogle, 2, 0, 1);
  const auto shifted = make_jobs(drift, TraceFamily::kGoogle, 2, 0, 1);
  ASSERT_EQ(stationary.size(), shifted.size());
  for (std::size_t j = 0; j < stationary.size(); ++j) {
    const auto& a = stationary[j].trace;
    const auto& b = shifted[j].trace;
    ASSERT_EQ(a.task_count(), b.task_count());
    ASSERT_EQ(a.checkpoint_count(), b.checkpoint_count());
    // Latencies are drawn before the shift knobs: bitwise unchanged.
    for (std::size_t i = 0; i < a.task_count(); ++i) {
      EXPECT_TRUE(bits_equal(a.latency(i), b.latency(i)));
    }
    // Early checkpoints identical, at least one late checkpoint rotated.
    std::size_t first_diff = a.checkpoint_count();
    for (std::size_t t = 0; t < a.checkpoint_count(); ++t) {
      bool same = true;
      for (std::size_t i = 0; i < a.task_count() && same; ++i) {
        const auto ra = a.row(t, i);
        const auto rb = b.row(t, i);
        for (std::size_t f = 0; f < ra.size(); ++f) {
          if (!bits_equal(ra[f], rb[f])) {
            same = false;
            break;
          }
        }
      }
      if (!same) {
        first_diff = t;
        break;
      }
    }
    EXPECT_GT(first_diff, 0u) << "job " << j << ": shift leaked backwards";
    EXPECT_LT(first_diff, a.checkpoint_count())
        << "job " << j << ": drift scenario changed nothing";
  }
}

TEST(ScenarioDrift, DisabledShiftKnobsChangeNothing) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 40;
  config.max_tasks = 60;
  trace::GoogleLikeGenerator plain(config);
  auto zero_rotation = config;
  zero_rotation.shift_at = 0.3;  // enabled horizon, zero blend share
  zero_rotation.shift_rotation = 0.0;
  trace::GoogleLikeGenerator zeroed(zero_rotation);
  const auto a = plain.generate(2, 1);
  const auto b = zeroed.generate(2, 1);
  for (std::size_t j = 0; j < a.size(); ++j) {
    for (std::size_t t = 0; t < a[j].checkpoint_count(); ++t) {
      for (std::size_t i = 0; i < a[j].task_count(); ++i) {
        const auto ra = a[j].trace.row(t, i);
        const auto rb = b[j].trace.row(t, i);
        for (std::size_t f = 0; f < ra.size(); ++f) {
          ASSERT_TRUE(bits_equal(ra[f], rb[f]));
        }
      }
    }
  }
}

TEST(ScenarioDrift, GeneratorValidatesShiftKnobs) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.shift_at = 0.0;
  EXPECT_THROW(trace::GoogleLikeGenerator{config}, std::invalid_argument);
  config = trace::GoogleLikeGenerator::google_defaults();
  config.shift_rotation = 1.5;
  EXPECT_THROW(trace::GoogleLikeGenerator{config}, std::invalid_argument);
}

// ---- differential determinism -------------------------------------------------

TEST(ScenarioDeterminism, InjectionScenariosBitIdenticalAcrossThreadCounts) {
  const auto jobs = generated_jobs(3);
  const auto runs = straggler_flags(jobs);
  const double mean_jct = mean_completion(jobs);
  for (const char* name : {"failures", "preempt", "hetero", "chaos"}) {
    const auto config =
        make_cluster_config(scenario_by_name(name), jobs.size(), mean_jct);
    const auto serial = sched::simulate_cluster_replicated(
        jobs, runs, config, /*replications=*/3, /*seed=*/17, /*threads=*/1);
    const auto wide = sched::simulate_cluster_replicated(
        jobs, runs, config, 3, 17, /*threads=*/4);
    const auto rerun = sched::simulate_cluster_replicated(
        jobs, runs, config, 3, 17, /*threads=*/4);
    ASSERT_EQ(serial.size(), wide.size()) << name;
    for (std::size_t r = 0; r < serial.size(); ++r) {
      expect_results_bitwise_equal(serial[r], wide[r]);
      expect_results_bitwise_equal(serial[r], rerun[r]);
    }
  }
}

TEST(ScenarioDeterminism, DriftJobsBitIdenticalAcrossThreadCounts) {
  const auto& drift = scenario_by_name("drift");
  const auto serial = make_jobs(drift, TraceFamily::kGoogle, 4, 0, 1);
  const auto wide = make_jobs(drift, TraceFamily::kGoogle, 4, 0, 4);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t j = 0; j < serial.size(); ++j) {
    ASSERT_EQ(serial[j].task_count(), wide[j].task_count());
    for (std::size_t i = 0; i < serial[j].task_count(); ++i) {
      ASSERT_TRUE(bits_equal(serial[j].latency(i), wide[j].latency(i)));
    }
    for (std::size_t t = 0; t < serial[j].checkpoint_count(); ++t) {
      for (std::size_t i = 0; i < serial[j].task_count(); ++i) {
        const auto ra = serial[j].trace.row(t, i);
        const auto rb = wide[j].trace.row(t, i);
        for (std::size_t f = 0; f < ra.size(); ++f) {
          ASSERT_TRUE(bits_equal(ra[f], rb[f]));
        }
      }
    }
  }
}

TEST(ScenarioDeterminism, EndToEndCellBitIdenticalAcrossThreadCounts) {
  // The full evaluate_scenario path (generator -> predictor -> cluster) at
  // 1 vs 4 threads, on a cheap registry method.
  const auto method = core::predictor_by_name("HBOS");
  const auto& spec = scenario_by_name("failures");
  const auto serial = evaluate_scenario(spec, TraceFamily::kAlibaba, method,
                                        /*job_count=*/2, /*reps=*/2,
                                        /*seed=*/5, /*threads=*/1);
  const auto wide = evaluate_scenario(spec, TraceFamily::kAlibaba, method, 2,
                                      2, 5, /*threads=*/4);
  EXPECT_TRUE(bits_equal(serial.macro_f1, wide.macro_f1));
  EXPECT_TRUE(bits_equal(serial.mean_reduction_pct, wide.mean_reduction_pct));
  EXPECT_TRUE(bits_equal(serial.mean_makespan, wide.mean_makespan));
  EXPECT_EQ(serial.relaunched, wide.relaunched);
  EXPECT_EQ(serial.machine_failures, wide.machine_failures);
  EXPECT_EQ(serial.stranded, wide.stranded);
}

// ---- pool conservation ---------------------------------------------------------

TEST(ScenarioPool, ConservationHoldsUnderFailureInjection) {
  const auto jobs = generated_jobs(3, 1);
  const auto runs = straggler_flags(jobs);
  const double mean_jct = mean_completion(jobs);
  auto config =
      make_cluster_config(scenario_by_name("failures"), jobs.size(), mean_jct);
  const std::size_t initial = config.machines;
  std::size_t events = 0;
  config.observer = [&](const sched::Event&, const sched::PoolState& pool) {
    ++events;
    ASSERT_EQ(pool.free + pool.in_use + pool.failed,
              initial + pool.released);
  };
  Rng rng(23);
  const auto result = sched::simulate_cluster(jobs, runs, config, rng);
  EXPECT_GT(events, 0u);
  EXPECT_GT(result.machine_failures, 0u)
      << "the failure scenario injected no failures — MTBF knob inert";
  EXPECT_EQ(result.stranded, 0u);
}

// ---- the mid-copy failure regression -------------------------------------------

// One slow task flagged early onto a 1-machine pool whose machine has a
// short MTBF. Scanning seeds finds interleavings where the machine dies
// WHILE RUNNING the copy; for each, the failure must move exactly one
// machine from in_use to failed (free untouched — the historical bug
// double-released the slot into free), and the victim task must requeue and
// complete after the fast task's natural completion donates a machine.
TEST(ScenarioPool, MachineDyingMidCopyReleasesExactlyItsSlot) {
  const auto job =
      make_test_job("midfail", {5.0, 400.0}, {1.0, 600.0});
  eval::JobRunResult run;
  run.flagged_at = {eval::kNeverFlagged, 0};  // flag the straggler at tau=1
  bool saw_mid_copy_recovery = false;
  for (std::uint64_t seed = 0; seed < 60 && !saw_mid_copy_recovery; ++seed) {
    sched::ClusterConfig config;
    config.machines = 1;
    config.machine_mtbf = 30.0;
    bool busy_failure = false;
    bool slot_accounting_ok = true;
    std::size_t in_use_before = 0;
    std::size_t free_before = 0;
    std::size_t failed_before = 0;
    config.observer = [&](const sched::Event& e,
                          const sched::PoolState& pool) {
      ASSERT_EQ(pool.free + pool.in_use + pool.failed, 1 + pool.released);
      if (e.kind == sched::EventKind::kMachineFail) {
        // Exactly one machine moves into `failed`, from exactly one side —
        // the historical bug double-released a busy machine's slot into
        // `free` as well.
        slot_accounting_ok =
            slot_accounting_ok && pool.failed == failed_before + 1 &&
            ((pool.in_use == in_use_before - 1 && pool.free == free_before) ||
             (pool.free == free_before - 1 && pool.in_use == in_use_before));
        if (pool.in_use == in_use_before - 1) busy_failure = true;
      }
      in_use_before = pool.in_use;
      free_before = pool.free;
      failed_before = pool.failed;
    };
    Rng rng(seed);
    const auto result =
        sched::simulate_cluster({&job, 1}, {&run, 1}, config, rng);
    EXPECT_TRUE(slot_accounting_ok) << "seed " << seed;
    // Accept the first seed where a machine died mid-copy AND the pool
    // recovered (task 0's natural completion at t=5 donates a machine that
    // itself survives long enough to finish the second copy).
    if (!busy_failure || result.stranded != 0) continue;
    saw_mid_copy_recovery = true;
    EXPECT_GE(result.machine_failures, 1u);
    EXPECT_LT(result.jobs[0].completion, kInf);
    EXPECT_EQ(result.jobs[0].relaunched, 1u);
  }
  EXPECT_TRUE(saw_mid_copy_recovery)
      << "no seed produced a recovered mid-copy machine failure";
}

// With reclaimed releases there is no donation to recover with: once the
// only machine dies mid-copy, the victim is stranded and its job honestly
// reports no completion (infinite mitigated JCT, never a bogus reduction).
TEST(ScenarioPool, StrandedTasksReportInfiniteCompletion) {
  const auto job = make_test_job("strand", {5.0, 400.0}, {1.0, 600.0});
  eval::JobRunResult run;
  run.flagged_at = {eval::kNeverFlagged, 0};
  bool saw_stranding = false;
  for (std::uint64_t seed = 0; seed < 60 && !saw_stranding; ++seed) {
    sched::ClusterConfig config;
    config.machines = 1;
    config.machine_mtbf = 30.0;
    config.reclaim_releases = true;
    Rng rng(seed);
    const auto result =
        sched::simulate_cluster({&job, 1}, {&run, 1}, config, rng);
    if (result.stranded == 0) continue;
    saw_stranding = true;
    EXPECT_EQ(result.stranded, 1u);
    EXPECT_EQ(result.jobs[0].completion, kInf);
    EXPECT_EQ(result.jobs[0].mitigated_jct, kInf);
    EXPECT_LT(result.jobs[0].reduction_pct(), 0.0);
  }
  EXPECT_TRUE(saw_stranding) << "no seed stranded the victim task";
}

// ---- heterogeneity -------------------------------------------------------------

TEST(ScenarioHetero, FasterClassShortensCopiesOnTheSameDraws) {
  const auto job = make_test_job("speed", {5.0, 400.0}, {1.0, 600.0});
  eval::JobRunResult run;
  run.flagged_at = {eval::kNeverFlagged, 0};
  const auto jct_with_speed = [&](double speed) {
    sched::ClusterConfig config;
    config.machines = 1;
    config.machine_classes = {{.name = "only",
                               .weight = 1.0,
                               .speed = speed,
                               .straggler_propensity = 0.0}};
    Rng rng(9);  // same seed: identical arrival/resample/class draws
    return sched::simulate_cluster({&job, 1}, {&run, 1}, config, rng)
        .jobs[0]
        .mitigated_jct;
  };
  const double slow = jct_with_speed(1.0);
  const double fast = jct_with_speed(2.0);
  EXPECT_LT(fast, slow);
}

TEST(ScenarioHetero, StragglerProneClassStretchesCopies) {
  const auto job = make_test_job("prone", {5.0, 400.0}, {1.0, 600.0});
  eval::JobRunResult run;
  run.flagged_at = {eval::kNeverFlagged, 0};
  const auto jct_with_propensity = [&](double propensity) {
    sched::ClusterConfig config;
    config.machines = 1;
    config.machine_classes = {{.name = "only",
                               .weight = 1.0,
                               .speed = 1.0,
                               .straggler_propensity = propensity,
                               .straggler_factor = 4.0}};
    Rng rng(9);
    return sched::simulate_cluster({&job, 1}, {&run, 1}, config, rng)
        .jobs[0]
        .mitigated_jct;
  };
  EXPECT_GT(jct_with_propensity(1.0), jct_with_propensity(0.0));
}

TEST(ScenarioHetero, ClassValidationThrows) {
  const auto job = make_test_job("bad", {5.0}, {1.0});
  eval::JobRunResult run;
  run.flagged_at = {eval::kNeverFlagged};
  sched::ClusterConfig config;
  config.machines = 1;
  config.machine_classes = {{.name = "x", .weight = -1.0, .speed = 1.0}};
  Rng rng(1);
  EXPECT_THROW(sched::simulate_cluster({&job, 1}, {&run, 1}, config, rng),
               std::invalid_argument);
  config.machine_classes = {{.name = "x", .weight = 1.0, .speed = 1.0,
                             .straggler_propensity = 2.0}};
  EXPECT_THROW(sched::simulate_cluster({&job, 1}, {&run, 1}, config, rng),
               std::invalid_argument);
}

TEST(ScenarioInjection, ConfigValidationThrows) {
  const auto job = make_test_job("bad2", {5.0}, {1.0});
  eval::JobRunResult run;
  run.flagged_at = {eval::kNeverFlagged};
  Rng rng(1);
  sched::ClusterConfig config;  // unlimited requires no failure injection
  config.machines = sched::kUnlimitedMachines;
  config.machine_mtbf = 1.0;
  EXPECT_THROW(sched::simulate_cluster({&job, 1}, {&run, 1}, config, rng),
               std::invalid_argument);
  config = {};
  config.preemption_rate = 1.5;
  EXPECT_THROW(sched::simulate_cluster({&job, 1}, {&run, 1}, config, rng),
               std::invalid_argument);
}

// ---- preemption ----------------------------------------------------------------

TEST(ScenarioPreempt, EveryTaskPreemptedOnceAtRateOne) {
  const auto jobs = generated_jobs(2, 2);
  std::vector<eval::JobRunResult> runs(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    runs[j].flagged_at.assign(jobs[j].task_count(), eval::kNeverFlagged);
  }
  sched::ClusterConfig config;
  config.machines = jobs[0].task_count() + jobs[1].task_count();
  config.preemption_rate = 1.0;
  Rng rng(31);
  const auto result = sched::simulate_cluster(jobs, runs, config, rng);
  // Every original is preempted mid-run (no flags beat the injection).
  EXPECT_EQ(result.preempted, jobs[0].task_count() + jobs[1].task_count());
  EXPECT_EQ(result.stranded, 0u);
  // Preempted work relaunches, so jobs still complete.
  for (const auto& stats : result.jobs) {
    EXPECT_LT(stats.completion, kInf);
  }
}

TEST(ScenarioPreempt, ZeroRateConsumesNoDrawsAndMatchesLegacyBitwise) {
  const auto jobs = generated_jobs(2, 3);
  const auto runs = straggler_flags(jobs);
  sched::ClusterConfig legacy;
  legacy.machines = 4;
  sched::ClusterConfig zeroed = legacy;
  zeroed.preemption_rate = 0.0;
  zeroed.machine_mtbf = 0.0;
  Rng a(77), b(77);
  expect_results_bitwise_equal(
      sched::simulate_cluster(jobs, runs, legacy, a),
      sched::simulate_cluster(jobs, runs, zeroed, b));
}

// ---- cluster-config materialization ---------------------------------------------

TEST(ScenarioConfig, NormalizedUnitsDenormalizeAgainstMeanJct) {
  const auto& failures = scenario_by_name("failures");
  const auto config = make_cluster_config(failures, 10, 100.0);
  EXPECT_DOUBLE_EQ(config.machine_mtbf, failures.mtbf_jct * 100.0);
  EXPECT_EQ(config.machines, static_cast<std::size_t>(std::ceil(
                                 failures.spares_per_job * 10)));
  const auto& baseline = scenario_by_name("baseline");
  const auto base_config = make_cluster_config(baseline, 10, 100.0);
  EXPECT_EQ(base_config.machine_mtbf, 0.0);
  EXPECT_EQ(base_config.preemption_rate, 0.0);
  EXPECT_TRUE(base_config.machine_classes.empty());
  EXPECT_THROW(make_cluster_config(baseline, 0, 100.0),
               std::invalid_argument);
  EXPECT_THROW(make_cluster_config(baseline, 10, 0.0), std::invalid_argument);
}

// ---- robustness gates (ctest label: slow) -----------------------------------

// The robustness table's inputs: 16 jobs, 2 replications, seed 99, NURD and
// GBTR, each family under its tuned config. Per-job macro-F1 is coarse, so
// a smaller job set aliases a handful of flag flips into gaps several times
// the real policy difference.
constexpr std::size_t kGateJobs = 16;
constexpr std::size_t kGateReps = 2;
constexpr std::uint64_t kGateSeed = 99;
constexpr TraceFamily kFamilies[] = {TraceFamily::kGoogle,
                                     TraceFamily::kAlibaba};
constexpr const char* kGateMethods[] = {"NURD", "GBTR"};

core::RegistryConfig tuned_for(TraceFamily family) {
  return family == TraceFamily::kGoogle ? core::google_tuned()
                                        : core::alibaba_tuned();
}

// One robustness-table cell at the gate inputs.
ScenarioOutcome gate_cell(const char* scenario, TraceFamily family,
                          const core::NamedPredictor& method,
                          std::size_t threads = 0) {
  return evaluate_scenario(scenario_by_name(scenario), family, method,
                           kGateJobs, kGateReps, kGateSeed, threads);
}

// Injected failures and drift never starve the pool for good: every cell
// completes every task.
TEST(ScenarioGateSlow, NoCellStrandsATask) {
  for (const TraceFamily family : kFamilies) {
    SCOPED_TRACE(family_name(family));
    for (const char* name : {"baseline", "hetero", "failures", "drift"}) {
      SCOPED_TRACE(name);
      for (const char* method : kGateMethods) {
        SCOPED_TRACE(method);
        const auto m = core::predictor_by_name(method, tuned_for(family));
        EXPECT_EQ(gate_cell(name, family, m).stranded, 0u);
      }
    }
  }
}

// The warm-start refit path may not quietly rot when the feature
// distribution rotates mid-stream: under drift, kIncremental's macro-F1
// stays within 0.02 of kFull for each method on both tuned configs.
TEST(ScenarioGateSlow, IncrementalRefitTracksFullUnderDrift) {
  const auto& drift = scenario_by_name("drift");
  for (const TraceFamily family : kFamilies) {
    const auto jobs = make_jobs(drift, family, kGateJobs);
    for (const char* method : kGateMethods) {
      auto config = tuned_for(family);
      config.refit = core::RefitPolicy::kFull;
      const auto full_method = core::predictor_by_name(method, config);
      config.refit = core::RefitPolicy::kIncremental;
      const auto warm_method = core::predictor_by_name(method, config);
      const double full = eval::evaluate_method(full_method, jobs).f1;
      const double warm = eval::evaluate_method(warm_method, jobs).f1;
      const double gap = std::abs(full - warm);
      std::printf("drift %-7s %-4s full %.4f warm %.4f |d| %.4f\n",
                  family_name(family), method, full, warm, gap);
      EXPECT_LE(gap, 0.02) << family_name(family) << " " << method;
    }
  }
}

// The injection and drift machinery keeps the determinism contract end to
// end: the failures and drift cells are bit-identical at 1 and 4 threads.
TEST(ScenarioGateSlow, FailuresAndDriftCellsBitIdenticalAcrossThreadCounts) {
  const auto method = core::predictor_by_name("NURD", core::google_tuned());
  for (const char* name : {"failures", "drift"}) {
    SCOPED_TRACE(name);
    const auto serial = gate_cell(name, TraceFamily::kGoogle, method, 1);
    const auto wide = gate_cell(name, TraceFamily::kGoogle, method, 4);
    EXPECT_TRUE(bits_equal(serial.macro_f1, wide.macro_f1));
    EXPECT_TRUE(bits_equal(serial.mean_reduction_pct, wide.mean_reduction_pct));
    EXPECT_TRUE(bits_equal(serial.mean_makespan, wide.mean_makespan));
    EXPECT_TRUE(bits_equal(serial.mean_jct, wide.mean_jct));
    EXPECT_EQ(serial.relaunched, wide.relaunched);
    EXPECT_EQ(serial.machine_failures, wide.machine_failures);
    EXPECT_EQ(serial.preempted, wide.preempted);
    EXPECT_EQ(serial.stranded, wide.stranded);
  }
}

}  // namespace
}  // namespace nurd::scenario
