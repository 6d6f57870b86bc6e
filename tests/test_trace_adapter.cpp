// Property suite for the foreign-trace adapter (scenario/trace_adapter.h).
//
// Two property families:
//   * ROUND-TRIP — a generator store exported to a foreign task-event CSV
//     (Google- and Alibaba-style schemas, including the microsecond time
//     unit) and ingested back is BITWISE the original: latencies, checkpoint
//     horizons, freeze checkpoints, every row version, and the stored
//     version count.
//   * FUZZ — seeded random corruption of well-formed exports (truncated
//     fields, NaNs, garbage cells, negative and out-of-order timestamps,
//     duplicated rows, shuffled row order) never crashes the adapter, every
//     drop is counted under exactly one reason, and the accounting identity
//       rows_read == rows_ingested + stats.dropped()
//     holds on every iteration. Runs under the ASan/UBSan CI leg.
#include "scenario/trace_adapter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/generator.h"
#include "trace/job.h"

namespace nurd::scenario {
namespace {

trace::Job make_google_job(std::uint64_t seed = 7) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.seed = seed;
  config.min_tasks = 40;
  config.max_tasks = 80;
  trace::GoogleLikeGenerator gen(config);
  return gen.generate(1, 1).front();
}

trace::Job make_alibaba_job(std::uint64_t seed = 11) {
  auto config = trace::AlibabaLikeGenerator::alibaba_defaults();
  config.seed = seed;
  config.min_tasks = 40;
  config.max_tasks = 80;
  trace::AlibabaLikeGenerator gen(config);
  return gen.generate(1, 1).front();
}

std::string export_csv(const trace::Job& job, const ColumnMap& map) {
  std::ostringstream out;
  write_foreign_csv(out, job, map);
  return out.str();
}

IngestResult ingest(const std::string& csv, const ColumnMap& map) {
  std::istringstream in(csv);
  return ingest_foreign_csv(in, map);
}

void expect_round_trip(const trace::Job& job, const ColumnMap& map) {
  const auto result = ingest(export_csv(job, map), map);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stats.dropped(), 0u);
  EXPECT_EQ(result.stats.rows_read, result.stats.rows_ingested);
  ASSERT_EQ(result.job.task_count(), job.task_count());
  // Compacted ids of a clean export are the identity mapping.
  for (std::size_t i = 0; i < result.original_task_ids.size(); ++i) {
    EXPECT_EQ(result.original_task_ids[i], i);
  }
  EXPECT_TRUE(stores_bitwise_equal(job.trace, result.job.trace));
}

TEST(TraceAdapterRoundTrip, GoogleSchemaBitIdentical) {
  const auto job = make_google_job();
  expect_round_trip(job, google_task_events_columns(job.feature_count()));
}

TEST(TraceAdapterRoundTrip, AlibabaSchemaBitIdentical) {
  const auto job = make_alibaba_job();
  expect_round_trip(job, alibaba_instance_columns(job.feature_count()));
}

TEST(TraceAdapterRoundTrip, ManySeedsBothSchemas) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = make_google_job(seed);
    expect_round_trip(g, google_task_events_columns(g.feature_count()));
    const auto a = make_alibaba_job(seed);
    expect_round_trip(a, alibaba_instance_columns(a.feature_count()));
  }
}

TEST(TraceAdapterRoundTrip, DecimalExponentShiftIsExact) {
  // Unit conversion happens in decimal text, where powers of ten are exact:
  // shifting +6 (seconds -> microseconds) and back -6 must reproduce every
  // latency and horizon BITWISE. (A binary multiply by 1e-6 would not — the
  // two units' ulp grids interleave, and some doubles have no representable
  // microsecond preimage at all.)
  const auto job = make_google_job(3);
  const auto round_trip = [](double internal) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", internal);
    const auto micros = shift_decimal_exponent(buf, 6);
    const auto back = shift_decimal_exponent(micros, -6);
    return std::strtod(back.c_str(), nullptr);
  };
  for (std::size_t i = 0; i < job.task_count(); ++i) {
    EXPECT_EQ(round_trip(job.latency(i)), job.latency(i));
  }
  for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
    EXPECT_EQ(round_trip(job.trace.tau_run(t)), job.trace.tau_run(t));
  }
  EXPECT_EQ(shift_decimal_exponent("845.261", 6), "845.261e6");
  EXPECT_EQ(shift_decimal_exponent("8.45e+02", 6), "8.45e8");
  EXPECT_EQ(shift_decimal_exponent("8.45e+02", 0), "8.45e+02");
}

TEST(TraceAdapterRoundTrip, RowOrderDoesNotMatter) {
  // Task-event tables are only approximately sorted in the wild; ingestion
  // must be a pure function of the row SET.
  const auto job = make_google_job(5);
  const auto map = google_task_events_columns(job.feature_count());
  std::vector<std::string> lines;
  {
    std::istringstream in(export_csv(job, map));
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  Rng rng(99);
  const auto perm = rng.permutation(lines.size());
  std::string shuffled;
  for (const std::size_t i : perm) shuffled += lines[i] + "\n";
  const auto result = ingest(shuffled, map);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.stats.dropped(), 0u);
  EXPECT_TRUE(stores_bitwise_equal(job.trace, result.job.trace));
}

// ---- malformed-data policy -------------------------------------------------

ColumnMap tiny_map() {
  ColumnMap map;
  map.name = "tiny";
  map.columns = 5;
  map.time_col = 0;
  map.task_col = 1;
  map.event_col = 2;
  map.feature_cols = {3, 4};
  map.measure_event = "M";
  map.finish_event = "F";
  return map;
}

TEST(TraceAdapterPolicy, CountsEachDropReasonOnce) {
  const std::string csv =
      "1.0,0,M,0.5,0.5\n"        // good measure
      "2.0,0,F,1.0,1.0\n"        // good finish
      "1.0,1,M,0.5\n"            // bad cell count
      "1.0,x,M,0.5,0.5\n"        // unparsable task id
      "oops,1,M,0.5,0.5\n"       // unparsable time
      "nan,1,M,0.5,0.5\n"        // non-finite time
      "-3.0,1,M,0.5,0.5\n"       // non-positive time
      "1.0,1,WAT,0.5,0.5\n"      // unknown event
      "1.0,1,M,0.5,nan\n"        // non-finite feature
      "1.0,0,M,9.0,9.0\n"        // duplicate (task 0, t=1) measurement
      "3.0,0,M,2.0,2.0\n"        // measurement after task 0 finished
      "1.5,7,M,0.1,0.1\n";       // orphan: task 7 never finishes
  const auto result = ingest(csv, tiny_map());
  ASSERT_TRUE(result.ok) << result.error;
  const AdapterStats& s = result.stats;
  EXPECT_EQ(s.rows_read, 12u);
  EXPECT_EQ(s.rows_ingested, 2u);
  EXPECT_EQ(s.bad_cell_count, 1u);
  EXPECT_EQ(s.unparsable_number, 2u);  // task id + time
  EXPECT_EQ(s.non_finite, 2u);         // time + feature
  EXPECT_EQ(s.bad_time, 1u);
  EXPECT_EQ(s.unknown_event, 1u);
  EXPECT_EQ(s.duplicate_row, 1u);
  EXPECT_EQ(s.post_freeze_rows, 1u);
  EXPECT_EQ(s.orphan_rows, 1u);
  EXPECT_EQ(s.tasks_dropped, 1u);
  EXPECT_EQ(s.rows_read, s.rows_ingested + s.dropped());
  EXPECT_EQ(result.job.task_count(), 1u);
  EXPECT_EQ(result.original_task_ids, (std::vector<std::uint64_t>{0}));
  EXPECT_DOUBLE_EQ(result.job.latency(0), 2.0);
}

TEST(TraceAdapterPolicy, DuplicateFinishKeepsFirst) {
  const std::string csv =
      "1.0,0,M,0.5,0.5\n"
      "2.0,0,F,1.0,1.0\n"
      "5.0,0,F,9.0,9.0\n";  // second finish dropped, first wins
  const auto result = ingest(csv, tiny_map());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.duplicate_row, 1u);
  EXPECT_DOUBLE_EQ(result.job.latency(0), 2.0);
}

TEST(TraceAdapterPolicy, NoFinishedTaskFailsCleanly) {
  const auto result = ingest("1.0,0,M,0.5,0.5\n", tiny_map());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(result.stats.rows_read,
            result.stats.rows_ingested + result.stats.dropped());
}

TEST(TraceAdapterPolicy, MissingGridCellsCarryForward) {
  // Task 1 has no measurement at t=2; its t=1 observation carries forward.
  const std::string csv =
      "1.0,0,M,1.0,1.0\n"
      "2.0,0,M,2.0,2.0\n"
      "9.0,0,F,3.0,3.0\n"
      "1.0,1,M,7.0,7.0\n"
      "9.5,1,F,8.0,8.0\n";
  const auto result = ingest(csv, tiny_map());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stats.carried_forward, 1u);
  ASSERT_EQ(result.job.checkpoint_count(), 2u);
  const auto row = result.job.trace.row(1, 1);
  EXPECT_DOUBLE_EQ(row[0], 7.0);
  EXPECT_DOUBLE_EQ(row[1], 7.0);
}

TEST(TraceAdapterPolicy, InvalidColumnMapThrows) {
  auto broken = tiny_map();
  broken.feature_cols = {0, 3};  // collides with time_col
  std::istringstream in("");
  EXPECT_THROW(ingest_foreign_csv(in, broken), std::invalid_argument);
  broken = tiny_map();
  broken.time_power10 = 99;
  std::istringstream in2("");
  EXPECT_THROW(ingest_foreign_csv(in2, broken), std::invalid_argument);
}

// ---- fuzz ------------------------------------------------------------------

// Random structured corruption of a clean export. Each round applies a
// random batch of mutations and asserts only the INVARIANTS: no crash, the
// accounting identity, and a finalized store whenever ok.
TEST(TraceAdapterFuzz, CorruptedExportsNeverCrashAndAlwaysBalance) {
  const auto job = make_google_job(13);
  const auto map = google_task_events_columns(job.feature_count());
  std::vector<std::string> clean;
  {
    std::istringstream in(export_csv(job, map));
    std::string line;
    while (std::getline(in, line)) clean.push_back(line);
  }
  Rng rng(2024);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::string> lines = clean;
    const int mutations = static_cast<int>(rng.uniform_int(1, 20));
    for (int m = 0; m < mutations; ++m) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1));
      switch (rng.uniform_int(0, 7)) {
        case 0:  // truncate the line mid-field
          lines[at] = lines[at].substr(
              0, static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(lines[at].size()))));
          break;
        case 1:  // NaN into a random cell
          lines[at] = "nan" + lines[at].substr(lines[at].find(','));
          break;
        case 2:  // pure garbage
          lines[at] = "<<>>garbage,,,???";
          break;
        case 3:  // negative timestamp
          lines[at] = "-" + lines[at];
          break;
        case 4:  // duplicate a row
          lines.push_back(lines[at]);
          break;
        case 5:  // blank line (not a data row)
          lines[at].clear();
          break;
        case 6:  // unknown event token
          lines.push_back(lines[at] + ",tail");  // also wrong cell count
          break;
        case 7: {  // swap two rows (out-of-order timestamps)
          const auto other = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(lines.size()) - 1));
          std::swap(lines[at], lines[other]);
          break;
        }
      }
    }
    std::string csv;
    for (const auto& line : lines) csv += line + "\n";
    const auto result = ingest(csv, map);  // must not crash or throw
    EXPECT_EQ(result.stats.rows_read,
              result.stats.rows_ingested + result.stats.dropped())
        << "round " << round;
    if (result.ok) {
      EXPECT_TRUE(result.job.trace.finalized());
      EXPECT_GT(result.job.task_count(), 0u);
      for (std::size_t i = 0; i < result.job.task_count(); ++i) {
        EXPECT_TRUE(std::isfinite(result.job.latency(i)));
        EXPECT_GT(result.job.latency(i), 0.0);
      }
    } else {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST(TraceAdapterFuzz, RandomBytesNeverCrash) {
  const auto map = tiny_map();
  Rng rng(4242);
  const std::string alphabet = "0123456789.,-+eEnaif\n \tXF M";
  for (int round = 0; round < 40; ++round) {
    std::string csv;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    for (std::size_t i = 0; i < len; ++i) {
      csv += alphabet[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    const auto result = ingest(csv, map);
    EXPECT_EQ(result.stats.rows_read,
              result.stats.rows_ingested + result.stats.dropped());
  }
}

TEST(TraceAdapter, UnreadablePathFailsCleanly) {
  const auto result =
      load_foreign_csv("/nonexistent/no-such-file.csv", tiny_map());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(TraceAdapter, SaveReloadsBitIdenticalAndReportsWriteFailure) {
  const auto job = make_google_job();
  const auto map = google_task_events_columns(job.feature_count());
  const std::string path = ::testing::TempDir() + "nurd_saved_job.csv";
  save_foreign_csv(path, job, map);
  const auto back = load_foreign_csv(path, map, "from-disk");
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.job.id, "from-disk");
  EXPECT_TRUE(stores_bitwise_equal(job.trace, back.job.trace));
  std::remove(path.c_str());

  // A device that accepts the open but fails every write: the save must
  // throw rather than leave a silently truncated file behind.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(save_foreign_csv("/dev/full", job, map), std::runtime_error);
}

}  // namespace
}  // namespace nurd::scenario
