// TaskDag contracts the serving layer leans on:
//   * per job, checkpoints run in admission order with no gaps from the
//     first admission (which may be mid-stream), one at a time;
//   * the per-job results are bit-identical to the 0-lane run, whatever the
//     lane count and timing — 200 seeded random plans;
//   * every admitted checkpoint retires exactly once, and a job's
//     completed retirements arrive in order;
//   * a throwing checkpoint cancels its own job only: the job's remaining
//     checkpoints retire as cancelled and its later admits are refused;
//   * at 0 lanes admit() runs each checkpoint to retirement on the calling
//     thread; on a lane, a nested parallel_for stays on the lane.
#include "core/task_dag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace nurd::core {
namespace {

constexpr std::size_t kNoFailure = SIZE_MAX;

// One random executor workload: per-job checkpoint ranges, one interleaved
// admission order with pauses, per-checkpoint delays and at most one
// throwing checkpoint. The pauses let lanes drain, so admissions also
// arrive while a job's checkpoint runs.
struct Plan {
  std::size_t lanes = 0;
  std::vector<std::size_t> first;  ///< first admitted checkpoint per job
  std::vector<std::size_t> count;  ///< admissions per job
  std::vector<std::size_t> order;  ///< job of each admission, in order
  std::vector<std::uint32_t> pause_us;  ///< before each admission
  std::vector<std::vector<std::uint32_t>> delay_us;  ///< per job, per offset
  std::size_t fail_job = kNoFailure;
  std::size_t fail_checkpoint = kNoFailure;

  std::size_t jobs() const { return first.size(); }
};

Plan make_plan(std::uint32_t seed) {
  static constexpr std::size_t kLaneGrid[] = {0, 1, 2, 3, 4, 8};
  std::mt19937 rng(seed);
  auto uniform = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  Plan plan;
  plan.lanes = kLaneGrid[seed % 6];
  const std::size_t jobs = uniform(1, 6);
  plan.delay_us.resize(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    // Half the jobs start mid-stream, like a job handed off between shards.
    plan.first.push_back(uniform(0, 1) == 0 ? 0 : uniform(1, 6));
    plan.count.push_back(uniform(1, 8));
    for (std::size_t k = 0; k < plan.count[j]; ++k) {
      plan.delay_us[j].push_back(uniform(0, 1) == 0 ? uniform(1, 60) : 0);
    }
  }
  std::vector<std::size_t> left = plan.count;
  for (std::size_t remaining =
           std::accumulate(left.begin(), left.end(), std::size_t{0});
       remaining > 0; --remaining) {
    std::size_t pick = uniform(0, remaining - 1);
    for (std::size_t j = 0; j < jobs; ++j) {
      if (pick < left[j]) {
        plan.order.push_back(j);
        plan.pause_us.push_back(uniform(0, 2) == 0 ? uniform(1, 80) : 0);
        --left[j];
        break;
      }
      pick -= left[j];
    }
  }
  if (uniform(0, 1) == 0) {
    plan.fail_job = uniform(0, jobs - 1);
    plan.fail_checkpoint =
        plan.first[plan.fail_job] + uniform(0, plan.count[plan.fail_job] - 1);
  }
  return plan;
}

// What one run of a plan observed.
struct Outcome {
  std::vector<std::vector<std::uint64_t>> flags;  ///< per job, in run order
  std::vector<std::vector<int>> retired;  ///< per job, per offset: count
  std::vector<std::vector<int>> completed;
  std::vector<std::vector<std::size_t>> completed_order;
  std::vector<std::vector<std::uint8_t>> accepted;  ///< admit() results
  std::vector<std::size_t> errors;                  ///< job of each on_error
  int order_violations = 0;    ///< a checkpoint ran out of order
  int overlap_violations = 0;  ///< two checkpoints of one job at once
};

Outcome run_plan(const Plan& plan, bool delays) {
  const std::size_t jobs = plan.jobs();
  Outcome out;
  out.flags.resize(jobs);
  out.retired.resize(jobs);
  out.completed.resize(jobs);
  out.completed_order.resize(jobs);
  out.accepted.resize(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    out.retired[j].assign(plan.count[j], 0);
    out.completed[j].assign(plan.count[j], 0);
  }
  // The model chain takes no lock: checkpoint t+1 reads what t wrote, so
  // the executor's hand-off between lanes is the only synchronization.
  std::vector<std::uint64_t> model(jobs, 0);
  std::vector<std::atomic<std::size_t>> next(jobs);
  std::vector<std::atomic<int>> active(jobs);
  for (std::size_t j = 0; j < jobs; ++j) next[j] = plan.first[j];
  std::atomic<int> order_violations{0};
  std::atomic<int> overlap_violations{0};
  std::mutex mu;  // guards `out` and the two totals
  std::condition_variable drained;
  std::size_t accepted_total = 0;
  std::size_t retired_total = 0;

  {
    TaskDag dag(
        jobs, plan.lanes,
        [&](std::size_t job, std::size_t t) {
          if (t - plan.first[job] >= plan.count[job]) {
            ADD_FAILURE() << "job " << job << " ran unadmitted checkpoint "
                          << t;
            return;
          }
          if (active[job].fetch_add(1) != 0) {
            overlap_violations.fetch_add(1);
            ADD_FAILURE() << "job " << job << " checkpoint " << t
                          << " started while another of its checkpoints ran";
          }
          if (next[job].load() != t) order_violations.fetch_add(1);
          next[job].store(t + 1);
          const auto delay = plan.delay_us[job][t - plan.first[job]];
          if (delays && delay > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(delay));
          }
          if (job == plan.fail_job && t == plan.fail_checkpoint) {
            active[job].fetch_sub(1);
            throw std::runtime_error("checkpoint " + std::to_string(t));
          }
          model[job] = model[job] * 1315423911ULL +
                       (job + 1) * 0x9e3779b97f4a7c15ULL + t;
          {
            std::lock_guard<std::mutex> lock(mu);
            out.flags[job].push_back(model[job] ^ (t * 2654435761ULL));
          }
          active[job].fetch_sub(1);
        },
        [&](std::size_t job, std::size_t t, bool completed) {
          std::lock_guard<std::mutex> lock(mu);
          ++retired_total;
          drained.notify_all();
          const std::size_t k = t - plan.first[job];
          if (k >= plan.count[job]) return;  // counted against the total
          ++out.retired[job][k];
          if (completed) {
            ++out.completed[job][k];
            out.completed_order[job].push_back(t);
          }
        },
        [&](std::size_t job, std::exception_ptr) {
          std::lock_guard<std::mutex> lock(mu);
          out.errors.push_back(job);
        });
    std::vector<std::size_t> cursor = plan.first;
    for (std::size_t i = 0; i < plan.order.size(); ++i) {
      if (delays && plan.pause_us[i] > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(plan.pause_us[i]));
      }
      const std::size_t job = plan.order[i];
      const bool ok = dag.admit(job, cursor[job]++);
      std::lock_guard<std::mutex> lock(mu);
      out.accepted[job].push_back(ok ? 1 : 0);
      accepted_total += ok ? 1 : 0;
    }
    dag.close();
    // A broken executor may never drain (a retirement counted twice keeps
    // wait() blocked forever): fail instead of hanging. The destructor still
    // joins the lanes.
    std::unique_lock<std::mutex> lock(mu);
    const bool ok = drained.wait_for(lock, std::chrono::seconds(30), [&] {
      return retired_total == accepted_total;
    });
    lock.unlock();
    if (ok) {
      dag.wait();
    } else {
      ADD_FAILURE() << "the executor did not retire every admission";
    }
  }
  out.order_violations = order_violations.load();
  out.overlap_violations = overlap_violations.load();
  return out;
}

// 200 seeded plans across lanes ∈ {0,1,2,3,4,8}: jobs with mid-stream
// first admissions, random admission interleavings, random checkpoint
// delays and, in about half the plans, one throwing checkpoint.
TEST(TaskDag, RandomizedPlansMatchTheZeroLaneRun) {
  for (std::uint32_t seed = 0; seed < 200; ++seed) {
    const Plan plan = make_plan(seed);
    SCOPED_TRACE("plan " + std::to_string(seed) + ", " +
                 std::to_string(plan.lanes) + " lanes");
    Plan inline_plan = plan;
    inline_plan.lanes = 0;
    const Outcome reference = run_plan(inline_plan, /*delays=*/false);
    const Outcome got = run_plan(plan, /*delays=*/true);

    EXPECT_EQ(got.overlap_violations, 0)
        << "two checkpoints of one job ran at once";
    EXPECT_EQ(got.order_violations, 0)
        << "a job's checkpoints ran out of order";
    EXPECT_EQ(got.flags, reference.flags);
    const bool fails = plan.fail_job != kNoFailure;
    EXPECT_EQ(got.errors,
              fails ? std::vector<std::size_t>{plan.fail_job}
                    : std::vector<std::size_t>{});
    for (std::size_t j = 0; j < plan.jobs(); ++j) {
      const bool failing = j == plan.fail_job;
      ASSERT_EQ(got.accepted[j].size(), plan.count[j]);
      // Accepted admissions are a prefix; only the failing job refuses any.
      const auto refused = std::count(got.accepted[j].begin(),
                                      got.accepted[j].end(), 0);
      EXPECT_TRUE(std::is_sorted(got.accepted[j].rbegin(),
                                 got.accepted[j].rend()));
      if (!failing) {
        EXPECT_EQ(refused, 0) << "job " << j;
      }
      for (std::size_t k = 0; k < plan.count[j]; ++k) {
        const std::size_t t = plan.first[j] + k;
        EXPECT_EQ(got.retired[j][k], got.accepted[j][k])
            << "job " << j << " checkpoint " << t
            << " must retire exactly once per accepted admission";
        const bool ran = !failing || t < plan.fail_checkpoint;
        EXPECT_EQ(got.completed[j][k], ran && got.accepted[j][k] ? 1 : 0)
            << "job " << j << " checkpoint " << t;
      }
      if (failing) {
        // The throwing checkpoint was admitted, so it retired (cancelled).
        EXPECT_EQ(got.accepted[j][plan.fail_checkpoint - plan.first[j]], 1);
      }
      EXPECT_TRUE(std::is_sorted(got.completed_order[j].begin(),
                                 got.completed_order[j].end()))
          << "job " << j << " retired out of order";
    }
    if (HasFailure()) break;  // the first failing plan says enough
  }
}

TEST(TaskDag, StageNamesAreStable) {
  EXPECT_STREQ(stage_name(Stage::kFeaturize), "featurize");
  EXPECT_STREQ(stage_name(Stage::kRefit), "refit");
  EXPECT_STREQ(stage_name(Stage::kPredict), "predict");
  EXPECT_STREQ(stage_name(Stage::kFlag), "flag");
}

// The one-worker serving path: with no lanes, admit() itself runs the
// checkpoint and its retirement on the calling thread, so every admitted
// checkpoint has retired before admit() returns.
TEST(TaskDag, ZeroLanesRetireEachAdmitOnTheCallingThread) {
  constexpr std::size_t kJobs = 2;
  constexpr std::size_t kCkpts = 6;
  const auto caller = std::this_thread::get_id();
  std::size_t ran = 0;
  std::size_t retired = 0;
  bool foreign_thread = false;
  TaskDag dag(
      kJobs, /*lanes=*/0,
      [&](std::size_t, std::size_t) {
        foreign_thread |= std::this_thread::get_id() != caller;
        ++ran;
      },
      [&](std::size_t, std::size_t, bool completed) {
        foreign_thread |= std::this_thread::get_id() != caller;
        EXPECT_TRUE(completed);
        ++retired;
      });
  std::size_t admitted = 0;
  for (std::size_t t = 0; t < kCkpts; ++t) {
    for (std::size_t j = 0; j < kJobs; ++j) {
      ASSERT_TRUE(dag.admit(j, t));
      ++admitted;
      EXPECT_EQ(retired, admitted) << "job " << j << " checkpoint " << t;
      EXPECT_EQ(ran, admitted);
    }
  }
  EXPECT_FALSE(foreign_thread) << "a checkpoint or retirement left the caller";
  dag.close();
  dag.wait();
}

// A lane owns one core: a parallel_for issued inside a checkpoint on a lane
// (a tree fit's feature fan-out) runs every index on that lane, even on a
// pool whose workers are idle.
TEST(TaskDag, NestedParallelForStaysOnTheLane) {
  constexpr std::size_t kCkpts = 3;
  constexpr std::size_t kIndices = 32;
  ThreadPool pool(3);
  std::mutex mu;
  std::size_t ran = 0;
  std::size_t off_lane = 0;
  std::size_t on_caller = 0;
  const auto caller = std::this_thread::get_id();
  TaskDag dag(1, /*lanes=*/2, [&](std::size_t, std::size_t) {
    const auto lane = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(kIndices);
    pool.parallel_for(kIndices, [&](std::size_t i) {
      // Long enough that idle pool workers would claim indices if allowed.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran_on[i] = std::this_thread::get_id();
    });
    std::lock_guard<std::mutex> lock(mu);
    ++ran;
    if (lane == caller) ++on_caller;
    off_lane += static_cast<std::size_t>(
        std::count_if(ran_on.begin(), ran_on.end(),
                      [&](std::thread::id id) { return id != lane; }));
  });
  for (std::size_t t = 0; t < kCkpts; ++t) ASSERT_TRUE(dag.admit(0, t));
  dag.close();
  dag.wait();
  EXPECT_EQ(ran, kCkpts);
  EXPECT_EQ(on_caller, 0u) << "a checkpoint ran on the admitting thread";
  EXPECT_EQ(off_lane, 0u) << "parallel_for indices left their lane";
}

// After its first admission a job's checkpoints must be consecutive.
TEST(TaskDag, AdmissionsAfterTheFirstMustBeConsecutive) {
  TaskDag dag(1, /*lanes=*/1, [](std::size_t, std::size_t) {});
  ASSERT_TRUE(dag.admit(0, 4));
  EXPECT_THROW(dag.admit(0, 6), std::invalid_argument);
  EXPECT_THROW(dag.admit(0, 4), std::invalid_argument);
  EXPECT_TRUE(dag.admit(0, 5));
  dag.close();
  dag.wait();
}

TEST(TaskDag, WaitReturnsImmediatelyWhenNothingAdmitted) {
  for (const std::size_t lanes : {std::size_t{0}, std::size_t{2}}) {
    TaskDag dag(1, lanes, [](std::size_t, std::size_t) {});
    dag.close();
    dag.wait();  // must not hang
  }
}

}  // namespace
}  // namespace nurd::core
