#include "trace/trace_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "trace/checkpoint_view.h"
#include "trace/generator.h"

namespace nurd::trace {
namespace {

std::vector<std::size_t> vec(std::span<const std::size_t> s) {
  return {s.begin(), s.end()};
}

// Hand-built store: 4 tasks with known latencies, 2 features, 3 checkpoints.
// Rows encode (task, horizon) so reconstruction is checkable by eye.
TraceStore tiny_store() {
  TraceStore store({1.0, 5.0, 9.0, 20.0}, 2);
  for (const double tau : {2.0, 6.0, 10.0}) {
    store.append_checkpoint(tau, [tau](std::size_t task,
                                       std::span<double> row) {
      row[0] = static_cast<double>(task);
      row[1] = 100.0 * static_cast<double>(task) + tau;
    });
  }
  store.finalize();
  return store;
}

TEST(TraceStore, PartitionInTaskIdOrder) {
  const auto store = tiny_store();
  ASSERT_EQ(store.checkpoint_count(), 3u);
  EXPECT_EQ(store.finished(0), (std::vector<std::size_t>{0}));
  EXPECT_EQ(store.running(0), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(store.finished(1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(store.finished(2), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(store.running(2), (std::vector<std::size_t>{3}));
  EXPECT_EQ(store.finished_count(1), 2u);
}

TEST(TraceStore, PartitionOrderRevealsNoLatencyInformation) {
  // Latencies deliberately NOT aligned with task ids: the latency-sorted
  // order of the running set at checkpoint 0 would be {3, 1, 2} — handing
  // that out would rank still-running tasks by their unrevealed latencies.
  // The public partition must come back in ascending task id regardless.
  TraceStore store({9.0, 12.0, 30.0, 2.0, 7.0}, 1);
  store.append_checkpoint(8.0, [](std::size_t task, std::span<double> row) {
    row[0] = static_cast<double>(task);
  });
  store.append_checkpoint(20.0, [](std::size_t task, std::span<double> row) {
    row[0] = static_cast<double>(task) + 0.5;
  });
  store.finalize();
  EXPECT_EQ(store.finished(0), (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(store.running(0), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(store.finished(1), (std::vector<std::size_t>{0, 1, 3, 4}));
  EXPECT_EQ(store.running(1), (std::vector<std::size_t>{2}));

  const CheckpointView view(store, 0);
  EXPECT_EQ(vec(view.finished()), store.finished(0));
  EXPECT_EQ(vec(view.running()), store.running(0));
}

TEST(TraceStore, PartitionReusesCapacityAndSkipsNullSides) {
  const auto store = tiny_store();
  std::vector<std::size_t> fin, run;
  store.partition(1, &fin, &run);
  EXPECT_EQ(fin, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(run, (std::vector<std::size_t>{2, 3}));
  store.partition(2, &fin, nullptr);
  EXPECT_EQ(fin, (std::vector<std::size_t>{0, 1, 2}));
  store.partition(0, nullptr, &run);
  EXPECT_EQ(run, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(TraceStore, FreezeOnFinish) {
  const auto store = tiny_store();
  // Task 0 (latency 1) froze at checkpoint 0 with its completion
  // observation; it is never re-observed.
  EXPECT_EQ(store.freeze_checkpoint(0), 0u);
  EXPECT_EQ(store.freeze_checkpoint(1), 1u);
  EXPECT_EQ(store.freeze_checkpoint(2), 2u);
  EXPECT_EQ(store.freeze_checkpoint(3), kNeverFrozen);
  // Frozen rows are the same stored version at every later checkpoint.
  EXPECT_EQ(store.row(0, 0).data(), store.row(2, 0).data());
  EXPECT_DOUBLE_EQ(store.row(2, 0)[1], 2.0);  // observed at tau = 2
  // A running task's row tracks the horizon.
  EXPECT_DOUBLE_EQ(store.row(0, 3)[1], 302.0);
  EXPECT_DOUBLE_EQ(store.row(2, 3)[1], 310.0);
}

TEST(TraceStore, ChangeDetectionDeduplicatesStaticRows) {
  // Rows independent of the horizon: only the base versions are stored no
  // matter how many checkpoints stream by.
  TraceStore store({1.0, 10.0, 10.0}, 3);
  for (const double tau : {2.0, 4.0, 6.0, 8.0}) {
    store.append_checkpoint(tau, [](std::size_t task, std::span<double> row) {
      for (auto& v : row) v = static_cast<double>(task) + 0.5;
    });
  }
  store.finalize();
  EXPECT_EQ(store.version_count(), 3u);  // one version per task, ever
  EXPECT_EQ(store.row(0, 1).data(), store.row(3, 1).data());
}

TEST(TraceStore, IsFinishedMatchesPartition) {
  const auto store = tiny_store();
  for (std::size_t t = 0; t < store.checkpoint_count(); ++t) {
    for (std::size_t i = 0; i < store.task_count(); ++i) {
      EXPECT_EQ(store.is_finished(t, i), store.latency(i) <= store.tau_run(t));
    }
  }
}

TEST(TraceStore, MaterializeReconstructsEveryRow) {
  const auto store = tiny_store();
  for (std::size_t t = 0; t < store.checkpoint_count(); ++t) {
    const Matrix snap = store.materialize(t);
    ASSERT_EQ(snap.rows(), store.task_count());
    ASSERT_EQ(snap.cols(), store.feature_count());
    for (std::size_t i = 0; i < store.task_count(); ++i) {
      const auto expect = store.row(t, i);
      for (std::size_t f = 0; f < expect.size(); ++f) {
        EXPECT_DOUBLE_EQ(snap(i, f), expect[f]);
      }
    }
  }
}

TEST(TraceStore, TiedLatenciesLandOnOneSideOfTheSplit) {
  TraceStore store({3.0, 3.0, 7.0}, 1);
  store.append_checkpoint(3.0, [](std::size_t, std::span<double> row) {
    row[0] = 0.0;
  });
  store.append_checkpoint(5.0, [](std::size_t, std::span<double> row) {
    row[0] = 1.0;
  });
  store.finalize();
  EXPECT_EQ(store.finished(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(store.running(0), (std::vector<std::size_t>{2}));
}

TEST(TraceStore, BuildProtocolViolationsThrow) {
  TraceStore store({1.0, 2.0}, 1);
  store.append_checkpoint(1.5, [](std::size_t, std::span<double> row) {
    row[0] = 0.0;
  });
  // Non-ascending tau.
  EXPECT_THROW(store.append_checkpoint(
                   1.5, [](std::size_t, std::span<double>) {}),
               std::invalid_argument);
  // Reads before finalize.
  EXPECT_THROW(store.row(0, 0), std::invalid_argument);
  EXPECT_THROW(store.finished(0), std::invalid_argument);
  store.finalize();
  // Appends after finalize.
  EXPECT_THROW(store.append_checkpoint(
                   9.0, [](std::size_t, std::span<double>) {}),
               std::invalid_argument);
  // Out-of-range reads.
  EXPECT_THROW(store.row(5, 0), std::invalid_argument);
  EXPECT_THROW(store.row(0, 9), std::invalid_argument);
  EXPECT_THROW(store.tau_run(7), std::invalid_argument);
}

TEST(TraceStore, RejectsDegenerateConstruction) {
  EXPECT_THROW(TraceStore({}, 3), std::invalid_argument);
  EXPECT_THROW(TraceStore({1.0}, 0), std::invalid_argument);
}

TEST(TraceStore, WriterCalledOncePerNeededRowOnly) {
  TraceStore store({1.0, 5.0, 20.0}, 1);
  std::vector<std::size_t> calls;
  const auto writer = [&calls](std::size_t task, std::span<double> row) {
    calls.push_back(task);
    row[0] = static_cast<double>(task);
  };
  store.append_checkpoint(2.0, writer);   // task 0 freezes; 1, 2 running
  EXPECT_EQ(calls, (std::vector<std::size_t>{0, 1, 2}));
  calls.clear();
  store.append_checkpoint(6.0, writer);   // task 1 freezes; 0 never asked
  EXPECT_EQ(calls, (std::vector<std::size_t>{1, 2}));
  calls.clear();
  store.append_checkpoint(10.0, writer);  // only task 2 still observed
  EXPECT_EQ(calls, (std::vector<std::size_t>{2}));
}

TEST(TraceStore, ColumnarBeatsMaterializedMemoryOnGeneratedJobs) {
  auto c = GoogleLikeGenerator::google_defaults();
  c.min_tasks = 120;
  c.max_tasks = 160;
  GoogleLikeGenerator gen(c);
  for (const auto& job : gen.generate(4)) {
    EXPECT_LT(job.trace.memory_bytes(), job.trace.materialized_bytes() / 2)
        << "columnar store should be far below the dense representation";
    EXPECT_GE(job.trace.version_count(), job.task_count());
  }
}

Job generated_job(std::size_t tasks) {
  auto c = GoogleLikeGenerator::google_defaults();
  c.min_tasks = tasks;
  c.max_tasks = tasks;
  GoogleLikeGenerator gen(c);
  return gen.generate(1)[0];
}

// Walks every checkpoint with one rebound view: horizons rise, the finished
// fraction never falls, and only finished latencies are revealed — so a
// task running at the first checkpoint is hidden until it finishes.
TEST(CheckpointViewTest, EnforcesOnlineDiscipline) {
  const auto tiny = tiny_store();
  const auto job = generated_job(100);
  for (const TraceStore* store : {&tiny, &job.trace}) {
    CheckpointView view(*store, 0);
    const auto last = store->checkpoint_count() - 1;
    std::size_t late = store->task_count();
    for (auto i : view.running()) {
      if (store->latency(i) <= store->tau_run(last)) {
        late = i;
        break;
      }
    }
    ASSERT_LT(late, store->task_count());
    double prev_tau = -1.0;
    double prev_fraction = -1.0;
    for (std::size_t t = 0; t <= last; ++t) {
      view.rebind(t);
      EXPECT_GT(view.tau_run(), prev_tau);
      EXPECT_GE(view.finished_fraction(), prev_fraction);
      prev_tau = view.tau_run();
      prev_fraction = view.finished_fraction();
      for (auto i : view.finished()) {
        EXPECT_DOUBLE_EQ(view.revealed_latency(i), store->latency(i));
      }
      for (auto i : view.running()) {
        EXPECT_THROW(view.revealed_latency(i), std::invalid_argument);
      }
    }
    EXPECT_DOUBLE_EQ(view.revealed_latency(late), store->latency(late));
  }
}

TEST(CheckpointViewTest, GatherRowsReusesCapacity) {
  const auto store = tiny_store();
  const CheckpointView view(store, 2);
  Matrix scratch;
  view.gather_rows(view.finished(), &scratch);
  EXPECT_EQ(scratch.rows(), view.finished().size());
  const auto* before = scratch.flat().data();
  // A second gather of no more rows must not reallocate.
  view.gather_rows(view.finished(), &scratch);
  EXPECT_EQ(scratch.flat().data(), before);
  ASSERT_EQ(scratch.cols(), 2u);
  EXPECT_DOUBLE_EQ(scratch(0, 0), 0.0);  // finished order: task 0 first
}

TEST(CheckpointViewTest, DenseBackedViewMatchesColumnar) {
  const auto store = tiny_store();
  for (std::size_t t = 0; t < store.checkpoint_count(); ++t) {
    const Matrix snap = store.materialize(t);
    const CheckpointView columnar(store, t);
    const CheckpointView dense(store, t, snap);
    EXPECT_EQ(vec(columnar.finished()), vec(dense.finished()));
    EXPECT_EQ(vec(columnar.running()), vec(dense.running()));
    for (std::size_t i = 0; i < store.task_count(); ++i) {
      const auto a = columnar.row(i);
      const auto b = dense.row(i);
      for (std::size_t f = 0; f < a.size(); ++f) {
        EXPECT_DOUBLE_EQ(a[f], b[f]);
      }
    }
  }
}

TEST(CheckpointViewTest, RebindAdvancesWithoutLosingThePartition) {
  const auto store = tiny_store();
  CheckpointView view(store, 0);
  EXPECT_EQ(vec(view.running()), store.running(0));
  view.rebind(2);
  EXPECT_EQ(view.index(), 2u);
  EXPECT_EQ(vec(view.finished()), store.finished(2));
  EXPECT_EQ(vec(view.running()), store.running(2));
  // Rows come straight from the store's version data — no copies.
  for (std::size_t i = 0; i < store.task_count(); ++i) {
    EXPECT_EQ(view.row(i).data(), store.row(2, i).data());
  }
  // Dense-backed views are snapshot-bound and must not rebind.
  const Matrix snap = store.materialize(1);
  CheckpointView dense(store, 1, snap);
  EXPECT_THROW(dense.rebind(2), std::invalid_argument);
}

// The serving layer's pattern: many jobs' views rebound in an interleaved
// order, sharing gather scratch. Each view must stay a pure function of (its
// store, its checkpoint) — nothing may bleed across views through the shared
// scratch or the rebind path.
TEST(CheckpointViewTest, InterleavedRebindsStayIndependent) {
  const Job jobs[] = {generated_job(60), generated_job(90)};
  CheckpointView views[] = {{jobs[0].trace, 0}, {jobs[1].trace, 0}};
  std::size_t next[] = {0, 0};
  Matrix scratch;
  nurd::AlignedVector<double> lat_scratch;
  // Job 0 advances every turn and job 1 every second turn, until both end.
  for (std::size_t turn = 0;; ++turn) {
    const bool a_left = next[0] < jobs[0].checkpoint_count();
    const bool b_left = next[1] < jobs[1].checkpoint_count();
    if (!a_left && !b_left) break;
    const std::size_t k = a_left && (turn % 2 == 0 || !b_left) ? 0 : 1;
    const std::size_t t = next[k]++;
    CheckpointView& view = views[k];
    view.rebind(t);

    const auto expected = jobs[k].checkpoint(t);
    EXPECT_DOUBLE_EQ(view.tau_run(), expected.tau_run());
    const auto fin = view.finished();
    ASSERT_EQ(vec(fin), vec(expected.finished()));
    ASSERT_EQ(vec(view.running()), vec(expected.running()));
    view.gather_rows(fin, &scratch);
    for (std::size_t r = 0; r < fin.size(); ++r) {
      const auto row = expected.row(fin[r]);
      for (std::size_t d = 0; d < view.feature_count(); ++d) {
        ASSERT_EQ(scratch(r, d), row[d]) << "row bled across views";
      }
    }
    view.finished_latencies(&lat_scratch);
    for (std::size_t r = 0; r < fin.size(); ++r) {
      ASSERT_EQ(lat_scratch[r], jobs[k].latency(fin[r]));
    }
  }
}

TEST(CheckpointViewTest, FinishedLatenciesInFinishedOrder) {
  const auto store = tiny_store();
  const CheckpointView view(store, 2);
  nurd::AlignedVector<double> lat;
  view.finished_latencies(&lat);
  EXPECT_EQ(lat, (nurd::AlignedVector<double>{1.0, 5.0, 9.0}));
}

// ---- the view-delta API ----------------------------------------------------

TEST(TraceStoreDelta, HandBuiltDeltasMatchTheStream) {
  // tiny_store: latencies {1,5,9,20}, taus {2,6,10}; every row drifts with
  // tau, so every still-observed task is a changed row at each checkpoint.
  const auto store = tiny_store();
  std::vector<std::size_t> fin, chg;

  store.delta(kNoCheckpoint, 0, &fin, &chg);
  EXPECT_EQ(fin, (std::vector<std::size_t>{0}));
  EXPECT_EQ(chg, (std::vector<std::size_t>{0, 1, 2, 3}));  // base versions

  store.delta(0, 1, &fin, &chg);
  EXPECT_EQ(fin, (std::vector<std::size_t>{1}));
  // Task 0 froze at cp 0 — never a changed row again; 1 froze at cp 1 with a
  // fresh observation, 2 and 3 drifted.
  EXPECT_EQ(chg, (std::vector<std::size_t>{1, 2, 3}));

  store.delta(1, 2, &fin, &chg);
  EXPECT_EQ(fin, (std::vector<std::size_t>{2}));
  EXPECT_EQ(chg, (std::vector<std::size_t>{2, 3}));

  // Multi-step delta spans (0, 2]: union of the two steps.
  store.delta(0, 2, &fin, &chg);
  EXPECT_EQ(fin, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(chg, (std::vector<std::size_t>{1, 2, 3}));

  // A null side is skipped.
  store.delta(0, 2, nullptr, &chg);
  EXPECT_EQ(chg, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(TraceStoreDelta, RepeatedViewsYieldEmptyDeltas) {
  const auto store = tiny_store();
  for (std::size_t t = 0; t < store.checkpoint_count(); ++t) {
    std::vector<std::size_t> fin{99}, chg{99};
    CheckpointView(store, t).delta_since(t, &fin, &chg);
    EXPECT_TRUE(fin.empty());
    EXPECT_TRUE(chg.empty());
  }
  // The store only streams forward: a backwards delta is a caller bug.
  std::vector<std::size_t> fin;
  EXPECT_THROW(store.delta(2, 1, &fin, nullptr), std::invalid_argument);
}

TEST(TraceStoreDelta, ReplayedDeltasSumToTheFullFinishedSet) {
  auto c = GoogleLikeGenerator::google_defaults();
  c.min_tasks = 120;
  c.max_tasks = 150;
  GoogleLikeGenerator gen(c);
  for (const auto& job : gen.generate(3)) {
    std::vector<std::size_t> accumulated;
    std::size_t prev = kNoCheckpoint;
    for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
      const auto view = job.checkpoint(t);
      std::vector<std::size_t> fin;
      view.delta_since(prev, &fin, nullptr);
      // Steps are disjoint: nothing newly finished twice.
      for (const auto task : fin) {
        EXPECT_EQ(std::find(accumulated.begin(), accumulated.end(), task),
                  accumulated.end());
      }
      accumulated.insert(accumulated.end(), fin.begin(), fin.end());
      prev = t;
    }
    std::sort(accumulated.begin(), accumulated.end());
    EXPECT_EQ(accumulated,
              job.trace.finished(job.checkpoint_count() - 1));
  }
}

TEST(TraceStoreDelta, ChangedRowsMatchChangeDetectedOverlays) {
  auto c = GoogleLikeGenerator::google_defaults();
  c.min_tasks = 100;
  c.max_tasks = 120;
  GoogleLikeGenerator gen(c);
  for (const auto& job : gen.generate(2)) {
    const auto& store = job.trace;
    for (std::size_t t = 1; t < store.checkpoint_count(); ++t) {
      std::vector<std::size_t> chg;
      store.delta(t - 1, t, nullptr, &chg);
      // The delta must be EXACTLY the rows whose reconstruction differs
      // between the two checkpoints — i.e. the stored overlays.
      std::vector<std::size_t> expect;
      for (std::size_t i = 0; i < store.task_count(); ++i) {
        const auto a = store.row(t - 1, i);
        const auto b = store.row(t, i);
        if (!std::equal(a.begin(), a.end(), b.begin())) expect.push_back(i);
      }
      EXPECT_EQ(chg, expect) << job.id << " checkpoint " << t;
    }
  }
}

}  // namespace
}  // namespace nurd::trace
