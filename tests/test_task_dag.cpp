// TaskDag contracts the serving layer leans on:
//   * every pipeline edge is honored under randomized per-stage delays —
//     in particular Refit(j,t+1) never starts before Refit(j,t) retired;
//   * the per-job in-flight window never exceeds W = kDagWindow;
//   * the emitted flag sequence is bit-identical to the 1-worker run across
//     100 shuffled schedules (seeded delays × varying worker counts);
//   * cancellation and stage errors retire every admitted checkpoint exactly
//     once and leave other jobs untouched.
#include "core/task_dag.h"

#include <gtest/gtest.h>

#include <array>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace nurd::core {
namespace {

// A miniature pipeline with the exact memory discipline the serving layer
// uses: per-job scratch RINGS of kDagWindow cells. Featurize writes a cell,
// Refit folds it into the model chain, Predict scores into a second ring,
// Flag appends to the job's output. Stages take no locks — correctness (and
// the determinism assertion) rests entirely on the DAG edges.
struct PipelineSim {
  PipelineSim(std::size_t jobs, std::size_t checkpoints)
      : checkpoints(checkpoints),
        model(jobs, 0),
        feat(jobs, std::vector<std::uint64_t>(kDagWindow, 0)),
        pred(jobs, std::vector<std::uint64_t>(kDagWindow, 0)),
        flags(jobs),
        done(jobs),
        inflight(jobs),
        delays_us(jobs) {
    for (std::size_t j = 0; j < jobs; ++j) {
      flags[j].reserve(checkpoints);
      for (auto& stage : delays_us[j]) stage.assign(checkpoints, 0);
    }
  }

  void seed_delays(std::uint32_t seed, std::uint32_t max_us) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::uint32_t> dist(0, max_us);
    for (auto& job : delays_us) {
      for (auto& stage : job) {
        for (auto& d : stage) d = dist(rng);
      }
    }
  }

  // Start-of-stage edge asserts, phrased against per-(job,stage) retired
  // counters. Each stage chain is serialized by its own edge, so the
  // equality checks cannot race.
  void check_edges(const TaskKey& k) {
    const std::size_t t = k.checkpoint;
    const auto& d = done[k.job];
    auto expect = [&](bool ok) {
      if (!ok) violations.fetch_add(1);
    };
    switch (k.stage) {
      case Stage::kFeaturize:
        expect(d[0].load() == t);  // Featurize chain in order
        expect(t < kFeaturizeAhead || d[1].load() >= t - kFeaturizeAhead + 1);
        expect(t < kDagWindow || d[3].load() >= t - kDagWindow + 1);
        break;
      case Stage::kRefit:
        expect(d[0].load() >= t + 1);  // Featurize(t) done
        expect(d[1].load() == t);      // Refit(t-1) RETIRED before this start
        expect(d[2].load() >= t);      // Predict(t-1) done
        break;
      case Stage::kPredict:
        expect(d[1].load() >= t + 1);       // Refit(t) done
        expect(t == 0 || d[3].load() >= t);  // Flag(t-1) done
        expect(d[2].load() == t);
        break;
      case Stage::kFlag:
        expect(d[2].load() >= t + 1);  // Predict(t) done
        expect(d[3].load() == t);      // flag order
        break;
    }
  }

  void run_stage(const TaskKey& k) {
    check_edges(k);
    const std::size_t t = k.checkpoint;
    const std::size_t cell = t % kDagWindow;
    const auto delay = delays_us[k.job][static_cast<std::size_t>(k.stage)][t];
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    switch (k.stage) {
      case Stage::kFeaturize: {
        const int now = inflight[k.job].fetch_add(1) + 1;
        if (now > static_cast<int>(kDagWindow)) {
          window_violations.fetch_add(1);
        }
        feat[k.job][cell] = (k.job + 1) * 0x9e3779b97f4a7c15ULL + t;
        break;
      }
      case Stage::kRefit:
        model[k.job] = model[k.job] * 1315423911ULL + feat[k.job][cell];
        break;
      case Stage::kPredict:
        pred[k.job][cell] = model[k.job] ^ (t * 2654435761ULL);
        break;
      case Stage::kFlag:
        flags[k.job].push_back(pred[k.job][cell]);
        inflight[k.job].fetch_sub(1);
        break;
    }
    done[k.job][static_cast<std::size_t>(k.stage)].fetch_add(1);
  }

  std::size_t checkpoints;
  std::vector<std::uint64_t> model;
  std::vector<std::vector<std::uint64_t>> feat;
  std::vector<std::vector<std::uint64_t>> pred;
  std::vector<std::vector<std::uint64_t>> flags;
  std::vector<std::array<std::atomic<std::size_t>, kStageCount>> done;
  std::vector<std::atomic<int>> inflight;
  std::vector<std::array<std::vector<std::uint32_t>, kStageCount>> delays_us;
  std::atomic<int> violations{0};
  std::atomic<int> window_violations{0};
};

// Drives `jobs` × `checkpoints` through a fresh dag and returns the flag
// sequences. Admissions interleave across jobs (round-robin), as the serving
// layer's arrival order does.
std::vector<std::vector<std::uint64_t>> run_pipeline(std::size_t jobs,
                                                     std::size_t checkpoints,
                                                     TaskDagConfig config,
                                                     std::uint32_t delay_seed,
                                                     std::uint32_t max_delay_us) {
  PipelineSim sim(jobs, checkpoints);
  if (max_delay_us > 0) sim.seed_delays(delay_seed, max_delay_us);
  ThreadPool pool(config.workers);
  TaskDag dag(jobs, config, [&](const TaskKey& k) { sim.run_stage(k); });
  dag.start(pool);
  for (std::size_t t = 0; t < checkpoints; ++t) {
    for (std::size_t j = 0; j < jobs; ++j) {
      EXPECT_TRUE(dag.admit(j, t)) << "admit refused without cancellation";
    }
  }
  dag.close();
  dag.wait();
  EXPECT_EQ(sim.violations.load(), 0) << "dependency edge violated";
  EXPECT_EQ(sim.window_violations.load(), 0)
      << "more than kDagWindow=" << kDagWindow << " checkpoints in flight";
  return sim.flags;
}

TEST(TaskDag, StageNamesAreStable) {
  EXPECT_STREQ(stage_name(Stage::kFeaturize), "featurize");
  EXPECT_STREQ(stage_name(Stage::kRefit), "refit");
  EXPECT_STREQ(stage_name(Stage::kPredict), "predict");
  EXPECT_STREQ(stage_name(Stage::kFlag), "flag");
}

TEST(TaskDag, SingleWorkerRunsEveryStageInOrder) {
  TaskDagConfig config;
  config.workers = 1;
  const auto flags = run_pipeline(2, 8, config, 0, 0);
  ASSERT_EQ(flags.size(), 2u);
  for (const auto& f : flags) EXPECT_EQ(f.size(), 8u);
}

// The satellite pin: randomized seeded per-stage delays, 100 shuffled
// schedules across worker counts, and (a) Refit(j,t+1) never starts before
// Refit(j,t) retires — asserted inside check_edges — while (b) the flag
// sequences stay bit-identical to the 1-worker zero-delay reference.
TEST(TaskDag, DeterministicFlagsAcross100ShuffledSchedules) {
  constexpr std::size_t kJobs = 3;
  constexpr std::size_t kCkpts = 12;
  TaskDagConfig ref_config;
  ref_config.workers = 1;
  const auto reference = run_pipeline(kJobs, kCkpts, ref_config, 0, 0);

  const std::size_t worker_grid[] = {2, 3, 4, 8};
  for (std::uint32_t schedule = 0; schedule < 100; ++schedule) {
    TaskDagConfig config;
    config.workers = worker_grid[schedule % 4];
    const auto flags =
        run_pipeline(kJobs, kCkpts, config, /*delay_seed=*/schedule * 7919u + 1,
                     /*max_delay_us=*/120);
    ASSERT_EQ(flags, reference) << "schedule " << schedule << " diverged at "
                                << config.workers << " workers";
  }
}

TEST(TaskDag, RetireFiresExactlyOncePerCheckpoint) {
  constexpr std::size_t kJobs = 2;
  constexpr std::size_t kCkpts = 9;
  std::mutex mu;
  std::vector<std::vector<std::size_t>> retired(kJobs);
  std::vector<int> incomplete(kJobs, 0);

  PipelineSim sim(kJobs, kCkpts);
  TaskDagConfig config;
  config.workers = 3;
  ThreadPool pool(config.workers);
  TaskDag dag(
      kJobs, config, [&](const TaskKey& k) { sim.run_stage(k); },
      [&](std::size_t job, std::size_t checkpoint, bool completed) {
        std::lock_guard<std::mutex> lock(mu);
        retired[job].push_back(checkpoint);
        if (!completed) ++incomplete[job];
      });
  dag.start(pool);
  for (std::size_t t = 0; t < kCkpts; ++t) {
    for (std::size_t j = 0; j < kJobs; ++j) EXPECT_TRUE(dag.admit(j, t));
  }
  dag.close();
  dag.wait();
  for (std::size_t j = 0; j < kJobs; ++j) {
    ASSERT_EQ(retired[j].size(), kCkpts);
    EXPECT_EQ(incomplete[j], 0);
    // Retire callbacks run outside the registry lock, so consecutive
    // checkpoints' notifications may interleave — the contract is exactly
    // once per checkpoint, not callback order (order belongs to the Flag
    // stage bodies, pinned by the determinism tests).
    std::sort(retired[j].begin(), retired[j].end());
    for (std::size_t t = 0; t < kCkpts; ++t) {
      EXPECT_EQ(retired[j][t], t) << "each checkpoint retires exactly once";
    }
  }
}

TEST(TaskDag, CancelDropsRemainingCheckpointsAndRefusesNewAdmits) {
  constexpr std::size_t kJobs = 2;
  constexpr std::size_t kCkpts = 16;
  std::mutex mu;
  std::vector<std::set<std::size_t>> completed(kJobs), dropped(kJobs);

  PipelineSim sim(kJobs, kCkpts);
  sim.seed_delays(/*seed=*/5, /*max_us=*/300);  // keep work in flight
  TaskDagConfig config;
  config.workers = 4;
  ThreadPool pool(config.workers);
  TaskDag dag(
      kJobs, config, [&](const TaskKey& k) { sim.run_stage(k); },
      [&](std::size_t job, std::size_t checkpoint, bool ok) {
        std::lock_guard<std::mutex> lock(mu);
        (ok ? completed : dropped)[job].insert(checkpoint);
      });
  dag.start(pool);
  std::size_t admitted0 = 0;
  for (std::size_t t = 0; t < kCkpts; ++t) {
    if (dag.admit(0, t)) ++admitted0;
    EXPECT_TRUE(dag.admit(1, t));
    if (t == kCkpts / 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      dag.cancel_job(0);
      EXPECT_FALSE(dag.admit(0, t + 1)) << "cancelled job must refuse admits";
      break;
    }
  }
  for (std::size_t t = kCkpts / 2 + 1; t < kCkpts; ++t) {
    EXPECT_TRUE(dag.admit(1, t));
  }
  dag.close();
  dag.wait();

  // Job 0: every admitted checkpoint retired exactly once, as completed or
  // dropped; nothing retired twice.
  EXPECT_EQ(completed[0].size() + dropped[0].size(), admitted0);
  for (const auto t : completed[0]) EXPECT_EQ(dropped[0].count(t), 0u);
  // Job 1 is untouched: all checkpoints complete.
  EXPECT_EQ(completed[1].size(), kCkpts);
  EXPECT_TRUE(dropped[1].empty());
}

TEST(TaskDag, StageErrorCancelsItsJobOnly) {
  constexpr std::size_t kJobs = 2;
  constexpr std::size_t kCkpts = 10;
  std::mutex mu;
  std::vector<std::set<std::size_t>> completed(kJobs), dropped(kJobs);
  std::atomic<int> errors{0};
  std::string error_what;

  PipelineSim sim(kJobs, kCkpts);
  TaskDagConfig config;
  config.workers = 3;
  ThreadPool pool(config.workers);
  TaskDag dag(
      kJobs, config,
      [&](const TaskKey& k) {
        if (k.job == 1 && k.checkpoint == 3 && k.stage == Stage::kRefit) {
          throw std::runtime_error("refit exploded");
        }
        sim.run_stage(k);
      },
      [&](std::size_t job, std::size_t checkpoint, bool ok) {
        std::lock_guard<std::mutex> lock(mu);
        (ok ? completed : dropped)[job].insert(checkpoint);
      },
      [&](std::size_t job, std::exception_ptr error) {
        EXPECT_EQ(job, 1u);
        errors.fetch_add(1);
        try {
          std::rethrow_exception(error);
        } catch (const std::runtime_error& e) {
          std::lock_guard<std::mutex> lock(mu);
          error_what = e.what();
        }
      });
  dag.start(pool);
  for (std::size_t t = 0; t < kCkpts; ++t) {
    for (std::size_t j = 0; j < kJobs; ++j) dag.admit(j, t);
  }
  dag.close();
  dag.wait();

  EXPECT_EQ(errors.load(), 1);
  EXPECT_EQ(error_what, "refit exploded");
  // The healthy job is untouched.
  EXPECT_EQ(completed[0].size(), kCkpts);
  EXPECT_TRUE(dropped[0].empty());
  // The failed job retired every admitted checkpoint exactly once, and the
  // failing checkpoint itself was dropped, not completed.
  std::set<std::size_t> all;
  for (const auto t : completed[1]) EXPECT_TRUE(all.insert(t).second);
  for (const auto t : dropped[1]) EXPECT_TRUE(all.insert(t).second);
  EXPECT_EQ(dropped[1].count(3), 1u);
  EXPECT_GE(dropped[1].size(), kCkpts - 3);
}

TEST(TaskDag, WaitReturnsImmediatelyWhenNothingAdmitted) {
  ThreadPool pool(2);
  TaskDagConfig config;
  config.workers = 2;
  TaskDag dag(1, config, [](const TaskKey&) {});
  dag.start(pool);
  dag.close();
  dag.wait();  // must not hang
}

// The migration hook: a job re-placed by the serving fleet resumes
// mid-stream on its new shard's DAG. begin_job_at(job, first) rebases the
// job so checkpoint `first` admits with every pre-boundary edge already
// satisfied, and the stage chains run in order from there.
TEST(TaskDag, BeginJobAtRunsAMidStreamSliceInOrder) {
  constexpr std::size_t kFirst = 5;
  constexpr std::size_t kCkpts = 9;  // serve checkpoints 5..8
  std::mutex mutex;
  std::vector<std::pair<Stage, std::size_t>> order;

  ThreadPool pool(3);
  TaskDagConfig config;
  config.workers = 3;
  TaskDag dag(1, config, [&](const TaskKey& k) {
    std::lock_guard<std::mutex> lock(mutex);
    order.emplace_back(k.stage, k.checkpoint);
  });
  dag.start(pool);
  dag.begin_job_at(0, kFirst);
  for (std::size_t t = kFirst; t < kCkpts; ++t) {
    EXPECT_TRUE(dag.admit(0, t));
  }
  dag.close();
  dag.wait();

  ASSERT_EQ(order.size(), (kCkpts - kFirst) * kStageCount);
  // Per-stage chains run their checkpoints in ascending order from kFirst,
  // and each checkpoint's stages run featurize -> refit -> predict -> flag.
  std::array<std::size_t, kStageCount> next;
  next.fill(kFirst);
  std::vector<std::size_t> stages_done(kCkpts, 0);
  for (const auto& [stage, t] : order) {
    const auto s = static_cast<std::size_t>(stage);
    EXPECT_EQ(t, next[s]) << "stage chain out of order";
    ++next[s];
    EXPECT_EQ(stages_done[t], s) << "stage order broken at checkpoint " << t;
    ++stages_done[t];
  }
}

TEST(TaskDag, BeginJobAtRefusesAJobWithAdmissionHistory) {
  ThreadPool pool(1);
  TaskDagConfig config;
  config.workers = 1;
  TaskDag dag(1, config, [](const TaskKey&) {});
  dag.start(pool);
  ASSERT_TRUE(dag.admit(0, 0));
  EXPECT_THROW(dag.begin_job_at(0, 4), std::invalid_argument);
  dag.close();
  dag.wait();
}

}  // namespace
}  // namespace nurd::core
