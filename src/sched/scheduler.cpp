#include "sched/scheduler.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"

namespace nurd::sched {

double resample_latency(const trace::Job& job, Rng& rng) {
  const auto n = static_cast<std::int64_t>(job.task_count());
  const auto idx = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  return job.latency(idx);
}

ClusterJobStats schedule_limited(const trace::Job& job,
                                 std::span<const std::size_t> flagged_at,
                                 std::size_t machines, Rng& rng) {
  NURD_CHECK(flagged_at.size() == job.task_count(),
             "flag vector length mismatch");
  ClusterJobStats result;
  result.original_jct = job.completion_time();

  const std::size_t n = job.task_count();
  const std::size_t T = job.checkpoint_count();
  for (const std::size_t cp : flagged_at) {
    NURD_CHECK(cp == eval::kNeverFlagged || cp < T,
               "flag checkpoint out of range");
  }

  // completion[i] starts at the uninterfered latency and is overwritten when
  // the task is actually relaunched.
  std::vector<double> completion(job.latencies().begin(),
                                 job.latencies().end());

  std::size_t pool = machines;
  std::deque<std::size_t> waiting;  // FIFO queue of flagged, unlaunched tasks
  double prev_tau = 0.0;

  for (std::size_t t = 0; t < T; ++t) {
    const double tau = job.trace.tau_run(t);

    // Machines released by tasks that finished in (prev_tau, tau]. Tasks that
    // were relaunched release the pool machine they took when their copy
    // finishes; unflagged and still-waiting tasks release their original
    // machine at their natural completion.
    for (std::size_t i = 0; i < n; ++i) {
      const double done = completion[i];
      if (done > prev_tau && done <= tau) ++pool;
    }

    // Tasks flagged at this checkpoint join the queue. A flag on a task that
    // already finished by the flag's checkpoint time (synthetic flag vectors
    // only) is a no-op, matching simulate_cluster.
    for (std::size_t i = 0; i < n; ++i) {
      if (flagged_at[i] != t) continue;
      if (job.latency(i) > tau) {
        waiting.push_back(i);
      } else {
        ++result.noop_flags;
      }
    }

    // Drop waiting tasks that finished on their own before this checkpoint.
    std::deque<std::size_t> still_waiting;
    for (auto i : waiting) {
      if (job.latency(i) <= tau) continue;  // finished while queued
      still_waiting.push_back(i);
    }
    waiting.swap(still_waiting);

    // Relaunch in FIFO order while machines remain.
    while (!waiting.empty() && pool > 0) {
      const std::size_t i = waiting.front();
      waiting.pop_front();
      --pool;
      completion[i] = tau + resample_latency(job, rng);
      ++result.relaunched;
      if (flagged_at[i] != eval::kNeverFlagged &&
          job.trace.tau_run(flagged_at[i]) < tau) {
        ++result.waited;
      }
    }
    prev_tau = tau;
  }

  // Drain past the horizon: machines released after the final checkpoint
  // still serve the FIFO queue. There is no checkpoint grid left to quantize
  // to, so releases and relaunches proceed in event order at their actual
  // completion times — the event-driven core in miniature. Without this,
  // tasks still waiting when the checkpoint loop ends are silently never
  // relaunched (and never counted in `waited`).
  if (!waiting.empty()) {
    using Release = std::pair<double, std::size_t>;
    std::priority_queue<Release, std::vector<Release>, std::greater<Release>>
        pending;
    for (std::size_t i = 0; i < n; ++i) {
      if (completion[i] > prev_tau) pending.emplace(completion[i], i);
    }
    // A relaunched task leaves a stranded heap entry at its original
    // latency. The timestamp test alone cannot reject it when the copy's
    // completion collides with that latency exactly (resamples come from
    // the job's own latency set, so exact collisions are routine), so each
    // task is additionally capped at one release.
    std::vector<bool> released(n, false);
    while (!waiting.empty() && !pending.empty()) {
      const auto [now, who] = pending.top();
      pending.pop();
      if (completion[who] != now || released[who]) continue;
      released[who] = true;
      ++pool;
      while (!waiting.empty() && pool > 0) {
        const std::size_t i = waiting.front();
        waiting.pop_front();
        if (job.latency(i) <= now) continue;  // finished while queued
        --pool;
        completion[i] = now + resample_latency(job, rng);
        ++result.relaunched;
        // Every flag checkpoint lies within the horizon, so a post-horizon
        // relaunch waited by definition.
        ++result.waited;
        pending.emplace(completion[i], i);
      }
    }
  }

  double jct = 0.0;
  for (std::size_t i = 0; i < n; ++i) jct = std::max(jct, completion[i]);
  result.completion = result.mitigated_jct = jct;
  return result;
}

double mean_reduction_limited(std::span<const trace::Job> jobs,
                              std::span<const eval::JobRunResult> runs,
                              std::size_t machines, std::uint64_t seed) {
  NURD_CHECK(jobs.size() == runs.size(), "jobs/runs length mismatch");
  NURD_CHECK(!jobs.empty(), "no jobs");
  Rng rng(seed);
  double total = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    total += schedule_limited(jobs[j], runs[j].flagged_at, machines, rng)
                 .reduction_pct();
  }
  return total / static_cast<double>(jobs.size());
}

}  // namespace nurd::sched
