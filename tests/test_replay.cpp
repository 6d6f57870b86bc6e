#include "trace/replay.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/matrix.h"
#include "trace/generator.h"

namespace nurd::trace {
namespace {

Job test_job() {
  auto c = GoogleLikeGenerator::google_defaults();
  c.min_tasks = 100;
  c.max_tasks = 100;
  GoogleLikeGenerator gen(c);
  return gen.generate(1)[0];
}

TEST(Replay, WalksAllCheckpointsInOrder) {
  const auto job = test_job();
  Replay replay(job);
  std::size_t count = 0;
  double prev_tau = 0.0;
  while (replay.has_next()) {
    EXPECT_EQ(replay.advance(), count);
    EXPECT_GT(replay.tau_run(), prev_tau);
    prev_tau = replay.tau_run();
    ++count;
  }
  EXPECT_EQ(count, job.checkpoint_count());
}

TEST(Replay, QueriesBeforeFirstAdvanceThrow) {
  const auto job = test_job();
  Replay replay(job);
  EXPECT_THROW(replay.current_index(), std::invalid_argument);
}

TEST(Replay, ExhaustedAdvanceThrows) {
  const auto job = test_job();
  Replay replay(job);
  while (replay.has_next()) replay.advance();
  EXPECT_THROW(replay.advance(), std::invalid_argument);
}

TEST(Replay, RevealsOnlyFinishedLatencies) {
  const auto job = test_job();
  Replay replay(job);
  replay.advance();
  for (auto i : replay.finished()) {
    EXPECT_LE(replay.revealed_latency(i), replay.tau_run());
  }
  for (auto i : replay.running()) {
    EXPECT_THROW(replay.revealed_latency(i), std::invalid_argument);
  }
}

TEST(Replay, LateCheckpointRevealsEarlierRunner) {
  const auto job = test_job();
  Replay replay(job);
  replay.advance();
  // Pick a task running at the first checkpoint that finishes mid-job.
  std::size_t task = job.task_count();
  for (auto i : replay.running()) {
    if (job.latency(i) <= job.trace.tau_run(5)) {
      task = i;
      break;
    }
  }
  ASSERT_LT(task, job.task_count());
  while (replay.current_index() < 5) replay.advance();
  EXPECT_DOUBLE_EQ(replay.revealed_latency(task), job.latency(task));
}

TEST(Replay, FinishedFractionIsMonotone) {
  const auto job = test_job();
  Replay replay(job);
  double prev = -1.0;
  while (replay.has_next()) {
    replay.advance();
    EXPECT_GE(replay.finished_fraction(), prev);
    prev = replay.finished_fraction();
  }
}

TEST(Replay, ResetRestarts) {
  const auto job = test_job();
  Replay replay(job);
  replay.advance();
  replay.advance();
  replay.reset();
  EXPECT_TRUE(replay.has_next());
  EXPECT_EQ(replay.advance(), 0u);
}

// The serving layer's ingestion pattern: many jobs' cursors advanced in an
// interleaved order, sharing scratch buffers between them. Each replay's
// view must stay a pure function of (its job, its checkpoint) — no state may
// bleed across cursors through the shared scratch or the rebind path.
TEST(Replay, InterleavedCursorsStayIndependent) {
  auto c = GoogleLikeGenerator::google_defaults();
  c.min_tasks = 60;
  c.max_tasks = 90;
  GoogleLikeGenerator gen(c);
  const auto jobs = gen.generate(2);
  ASSERT_NE(jobs[0].task_count(), jobs[1].task_count());

  Replay a(jobs[0]);
  Replay b(jobs[1]);
  Matrix scratch;  // shared gather target, reused across both cursors
  nurd::AlignedVector<double> lat_scratch;

  // Round-robin at different rates: a advances every turn, b every second
  // turn — the jobs of a serving fleet never advance in lockstep.
  std::size_t turn = 0;
  while (a.has_next() || b.has_next()) {
    Replay* cursor = nullptr;
    const trace::Job* job = nullptr;
    if (a.has_next() && (turn % 2 == 0 || !b.has_next())) {
      cursor = &a;
      job = &jobs[0];
    } else if (b.has_next()) {
      cursor = &b;
      job = &jobs[1];
    }
    ++turn;
    if (cursor == nullptr) break;

    const std::size_t t = cursor->advance();
    const CheckpointView& view = cursor->view();
    EXPECT_EQ(view.task_count(), job->task_count());
    EXPECT_DOUBLE_EQ(view.tau_run(), job->trace.tau_run(t));

    // Ground truth straight from the job, bypassing the cursor.
    const auto expected = job->checkpoint(t);
    const auto fin = view.finished();
    const auto exp_fin = expected.finished();
    ASSERT_EQ(std::vector<std::size_t>(fin.begin(), fin.end()),
              std::vector<std::size_t>(exp_fin.begin(), exp_fin.end()));

    // The shared scratch is overwritten by whichever cursor ran last; the
    // content must be THIS view's rows, not a stale gather from the other.
    view.gather_rows(view.finished(), &scratch);
    for (std::size_t r = 0; r < fin.size(); ++r) {
      const auto row = expected.row(fin[r]);
      for (std::size_t d = 0; d < view.feature_count(); ++d) {
        ASSERT_EQ(scratch(r, d), row[d]) << "row bled across cursors";
      }
    }
    view.finished_latencies(&lat_scratch);
    for (std::size_t r = 0; r < fin.size(); ++r) {
      ASSERT_EQ(lat_scratch[r], job->latency(fin[r]));
    }
  }
  EXPECT_FALSE(a.has_next());
  EXPECT_FALSE(b.has_next());
}

TEST(Replay, NextIndexTracksTheCursor) {
  const auto job = test_job();
  Replay replay(job);
  EXPECT_EQ(replay.next_index(), 0u);
  replay.advance();
  EXPECT_EQ(replay.next_index(), 1u);
  while (replay.has_next()) replay.advance();
  EXPECT_EQ(replay.next_index(), job.checkpoint_count());
}

TEST(Replay, ViewIsBackedByTheColumnarStore) {
  const auto job = test_job();
  Replay replay(job);
  replay.advance();
  const auto view = replay.view();
  EXPECT_EQ(view.index(), 0u);
  // Rows come straight from the store's version data — no copies.
  EXPECT_EQ(view.row(0).data(), job.trace.row(0, 0).data());
  const auto fin = view.finished();
  EXPECT_EQ(std::vector<std::size_t>(fin.begin(), fin.end()),
            job.trace.finished(0));
}

}  // namespace
}  // namespace nurd::trace
