// The scenario zoo: declarative robustness scenarios for the NURD stack.
//
// The paper evaluates on stationary replays of two traces. A deployed
// straggler predictor faces more hostile regimes: diurnal and bursty
// arrivals, heterogeneous machine pools where a relaunch can land somewhere
// WORSE than the machine it fled, machines failing mid-copy, the cluster
// preempting originals, and mid-stream feature-distribution drift that
// invalidates what a warm-started model learned early. Each axis already
// exists as a knob on the generator (trace/generator.h: shift_at /
// shift_rotation), the arrival factories, or the cluster engine
// (sched/cluster.h: machine_classes / machine_mtbf / preemption_rate);
// ScenarioSpec composes them declaratively and scenario_zoo() registers the
// named scenarios.
//
// Scenarios are dataset-agnostic: time-like quantities are expressed in
// units of the job set's MEAN COMPLETION TIME (arrival load = jobs per mean
// JCT, MTBF / period / schedule breakpoints in mean-JCT multiples) and
// materialize into absolute ClusterConfig values against a concrete job set
// via make_cluster_config(spec, mean_jct). Pool sizes scale with the job
// count (spares_per_job).
//
// Determinism: everything here is a pure function of (spec, family, count,
// seed, reps). make_jobs inherits the generator's serial-prefix fork
// contract, evaluate_scenario inherits run_method's and
// simulate_cluster_replicated's — outcomes are bit-identical at any thread
// count, which is exactly what tests/test_scenario.cpp pins (its
// ScenarioGateSlow cases at the robustness table's own inputs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.h"
#include "sched/cluster.h"
#include "trace/generator.h"
#include "trace/job.h"

namespace nurd::scenario {

/// Which synthetic trace family a scenario replays (mirrors the two paper
/// datasets; see trace/generator.h).
enum class TraceFamily { kGoogle, kAlibaba };

const char* family_name(TraceFamily family);

/// Arrival-process shape, materialized by make_cluster_config.
enum class ArrivalKind {
  kBatch,      ///< all jobs at t = 0 (the paper's setting)
  kPoisson,    ///< constant rate `load` jobs per mean JCT
  kPiecewise,  ///< piecewise-constant schedule (see `schedule`)
  kDiurnal,    ///< sinusoidal day/night modulation around `load`
};

/// One segment of a normalized piecewise schedule: `load` jobs per mean JCT
/// from `begin` mean-JCTs onward.
struct LoadSegment {
  double begin = 0.0;
  double load = 1.0;
};

/// One named robustness scenario: generator drift knobs + arrival shape +
/// pool composition + injection rates, all in normalized units.
struct ScenarioSpec {
  std::string name;
  std::string summary;  ///< one line for tables and --help

  // --- trace drift (generator knobs, trace/generator.h) -------------------
  double shift_at = 1.0;        ///< horizon fraction where drift begins
  double shift_rotation = 0.0;  ///< fully-shifted loading blend share

  // --- arrivals (normalized to the job set's mean JCT) ---------------------
  ArrivalKind arrivals = ArrivalKind::kBatch;
  double load = 1.0;                  ///< kPoisson rate / kDiurnal base
  double diurnal_amplitude = 0.0;     ///< in [0, 1)
  double diurnal_period = 1.0;        ///< mean-JCT multiples
  std::vector<LoadSegment> schedule;  ///< kPiecewise only

  // --- spare-machine pool ---------------------------------------------------
  bool unlimited_pool = false;  ///< Algorithm-2 semantics (no queueing)
  double spares_per_job = 0.5;  ///< finite pool size = ceil(this * jobs)
  bool reclaim_releases = false;
  std::vector<sched::MachineClass> machine_classes;  ///< empty = homogeneous

  // --- injection ------------------------------------------------------------
  double mtbf_jct = 0.0;         ///< pool-machine MTBF in mean-JCT multiples
  double preemption_rate = 0.0;  ///< per-task original-preemption probability
};

/// The registered scenarios, in presentation order. Names are unique;
/// "baseline" is first and is the delta reference for the robustness table.
const std::vector<ScenarioSpec>& scenario_zoo();

/// Lookup by name. Throws std::invalid_argument on an unknown name, listing
/// the registered names (a typo'd --scenarios flag should say what exists).
const ScenarioSpec& scenario_by_name(const std::string& name);

/// Generates the scenario's job set: the family's paper-matched generator
/// defaults with the spec's drift knobs applied and the seed offset folded
/// in. Bit-identical at any thread count (0 = hardware concurrency).
std::vector<trace::Job> make_jobs(const ScenarioSpec& spec,
                                  TraceFamily family, std::size_t count,
                                  std::uint64_t seed_offset = 0,
                                  std::size_t threads = 0);

/// Mean completion time of a job set — the scenario time unit.
double mean_completion(std::span<const trace::Job> jobs);

/// Materializes the spec's cluster side against a concrete job set scale:
/// arrival rates, MTBF, and schedule breakpoints are denormalized by
/// `mean_jct`, the pool size by `job_count`.
sched::ClusterConfig make_cluster_config(const ScenarioSpec& spec,
                                         std::size_t job_count,
                                         double mean_jct);

/// One (scenario, family, method) cell of the robustness table. Counters are
/// summed over replications; means average them.
struct ScenarioOutcome {
  double macro_f1 = 0.0;            ///< evaluate_method's macro-averaged F1
  double mean_reduction_pct = 0.0;  ///< mean per-job JCT reduction
  double mean_makespan = 0.0;
  double mean_jct = 0.0;  ///< the time unit the spec was denormalized by
  std::size_t relaunched = 0;
  std::size_t machine_failures = 0;
  std::size_t preempted = 0;
  std::size_t stranded = 0;  ///< tasks that never completed (pool died)
};

/// Runs one cell end to end: generate the scenario's jobs, run the method
/// over the checkpoint stream, feed the flags to `reps` replicated cluster
/// simulations under the scenario's cluster config. Pure function of its
/// arguments; bit-identical at any thread count.
ScenarioOutcome evaluate_scenario(const ScenarioSpec& spec,
                                  TraceFamily family,
                                  const core::NamedPredictor& method,
                                  std::size_t job_count, std::size_t reps,
                                  std::uint64_t seed,
                                  std::size_t threads = 0);

}  // namespace nurd::scenario
