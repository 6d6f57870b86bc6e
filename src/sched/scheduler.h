// Algorithm 3 of paper §5 as published — the checkpoint-quantized,
// per-job finite-pool scheduler behind Figures 6–9 — and the relaunch
// latency draw it shares with the cluster simulator.
//
// A flagged task is terminated and relaunched on a new machine; the
// relaunched copy's execution time is resampled from the job's empirical
// task latencies (§7.3: "the new completion time for a rescheduled task is
// randomly sampled from the existing execution times"). Relaunches draw
// from a finite machine pool that starts with `machines` spares and grows as
// tasks finish and release their machines. Flagged tasks that cannot get a
// machine wait in FIFO order and keep running in the meantime; a terminated
// task's own machine is not reused (it is the suspected slow/faulty one —
// the premise of relaunch-based mitigation).
//
// Algorithm 2 (more machines than tasks: a flagged task relaunches
// immediately) is simulate_cluster with machines = kUnlimitedMachines.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "eval/harness.h"
#include "sched/cluster.h"
#include "trace/job.h"

namespace nurd::sched {

/// A relaunched copy's execution time: one draw from the job's empirical
/// latency distribution (§7.3). Shared by schedule_limited and the
/// event-driven cluster simulator so their draws are interchangeable.
double resample_latency(const trace::Job& job, Rng& rng);

/// Algorithm 3: a finite machine pool of `machines` spares (plus machines
/// released by finishing tasks). Queued tasks relaunch at checkpoint times
/// within the horizon; after the final checkpoint the remaining releases and
/// relaunches drain in event order at their actual (continuous) times, so a
/// machine freed past the horizon still serves the FIFO queue. The job
/// starts at t = 0: `arrival` is 0 and `completion` equals `mitigated_jct`.
/// A flag at or after its task's completion is a no-op, counted in
/// `noop_flags` and consuming no randomness.
ClusterJobStats schedule_limited(const trace::Job& job,
                                 std::span<const std::size_t> flagged_at,
                                 std::size_t machines, Rng& rng);

/// Mean JCT reduction over a job set under Algorithm 3 with `machines`
/// spare machines per job.
double mean_reduction_limited(std::span<const trace::Job> jobs,
                              std::span<const eval::JobRunResult> runs,
                              std::size_t machines, std::uint64_t seed);

}  // namespace nurd::sched
