// Foreign-trace ingestion: external cluster-trace CSV schemas -> TraceStore.
//
// Real cluster traces (Google ClusterData-2011, Alibaba cluster-trace-v2018)
// ship as TASK-EVENT TABLES: one CSV row per event, where a task's lifetime
// is a sequence of periodic measurement events (timestamp + its current
// metric values) closed by a terminal finish event (timestamp = completion
// time, frozen metrics). That is exactly TraceStore's information content,
// read sideways:
//
//   * the union of measurement timestamps is the checkpoint grid;
//   * a task's finish-event timestamp is its true latency, and the finish
//     row its frozen observation;
//   * a task's measurement row at a grid time is its observed row at that
//     checkpoint (missing cells carry the last observation forward, exactly
//     as a monitoring pipeline would, and are counted).
//
// The adapter is schema-pluggable through ColumnMap: which column holds the
// timestamp / task id / event type / metrics, what the event tokens are, and
// the time unit (Google timestamps are microseconds; the map's time_power10
// normalizes to the library's internal seconds). Unit conversion is done IN
// DECIMAL, not by multiplying doubles: a power-of-ten rescale adjusts the
// exponent of the CSV cell's decimal text (shift_decimal_exponent), which is
// exact in both directions — whereas binary multiplication by 1e-6 rounds,
// and some doubles have NO representable microsecond preimage at all (the
// two units' ulp grids interleave at ratio up to 2). Two ready-made maps
// mirror the real schemas:
// google_task_events_columns (headerless, microsecond timestamps, numeric
// event codes, junk columns the adapter ignores) and
// alibaba_instance_columns (headered, second timestamps, status strings).
//
// Malformed-row policy: ingest NEVER throws on data (only on programmer
// errors — an invalid ColumnMap). Every dropped row is counted by reason in
// AdapterStats, and the accounting identity
//     rows_read == rows_ingested + stats.dropped()
// holds on every return — the property the fuzz suite pins. Rows may arrive
// in ANY order (the tables are only approximately time-sorted in the wild).
//
// Round-trip contract: write_foreign_csv is the exact inverse — for any
// finalized store whose every checkpoint has at least one running task
// (true of every generator grid; a checkpoint all tasks have outlived is
// not reconstructible from task events alone), export + ingest reproduces
// the store BITWISE: latencies, checkpoint horizons, every row version, and
// the version count. Values are printed with round-trip precision (%.17g)
// and time cells are unit-converted by decimal exponent shifts, so the
// foreign representation loses nothing whatever the unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/job.h"

namespace nurd::scenario {

/// How to read one foreign CSV schema. Field columns may appear in any
/// order; columns not named here are ignored on ingest and written as "0" on
/// export. Validated on use: throws std::invalid_argument on out-of-range or
/// colliding indices (a broken MAP is a programmer error; broken DATA never
/// throws).
struct ColumnMap {
  std::string name;          ///< schema name, for diagnostics and job ids
  std::size_t columns = 0;   ///< total columns per data row
  std::size_t time_col = 0;  ///< event timestamp (foreign units)
  std::size_t task_col = 0;  ///< numeric task id (need not be dense)
  std::size_t event_col = 0;  ///< event-type token
  std::vector<std::size_t> feature_cols;  ///< metric columns, schema order
  std::string measure_event;  ///< event_col token of a measurement row
  std::string finish_event;   ///< event_col token of a terminal finish row
  int time_power10 = 0;       ///< internal seconds = foreign * 10^this
                              ///< (microseconds -> -6); applied in decimal
  bool has_header = false;    ///< first line is a header (skipped on ingest,
                              ///< emitted from column_names on export)
  std::vector<std::string> column_names;  ///< size `columns` iff has_header
};

/// Google ClusterData-2011 task_events-style map: headerless, microsecond
/// timestamps (time_power10 = -6), numeric event codes (measure "8" =
/// UPDATE_RUNNING, finish "4" = FINISH), and the usual junk columns
/// (missing-info, job id, machine id, user, scheduling class, priority)
/// before `feature_count` metric columns.
ColumnMap google_task_events_columns(std::size_t feature_count);

/// Alibaba cluster-trace batch_instance-style map: headered, second
/// timestamps, status strings (measure "Running", finish "Terminated"),
/// metrics after the status/time columns.
ColumnMap alibaba_instance_columns(std::size_t feature_count);

/// Ingestion accounting. Drop reasons are disjoint — the FIRST failing check
/// claims a row — and sum to dropped().
struct AdapterStats {
  std::size_t rows_read = 0;      ///< data rows seen (header/blank excluded)
  std::size_t rows_ingested = 0;  ///< rows that informed the store
  // -- counted drops, by reason --------------------------------------------
  std::size_t bad_cell_count = 0;     ///< wrong number of columns
  std::size_t unparsable_number = 0;  ///< time/task/metric cell not a number
  std::size_t non_finite = 0;         ///< NaN or infinity in time or metrics
  std::size_t bad_time = 0;           ///< non-positive normalized timestamp
  std::size_t unknown_event = 0;      ///< event token the map does not ingest
  std::size_t duplicate_row = 0;      ///< repeated (task, time) measurement
                                      ///< or a second finish for a task
  std::size_t post_freeze_rows = 0;   ///< measurements at/after the task's
                                      ///< finish time
  std::size_t orphan_rows = 0;  ///< measurements of tasks with no finish row
  // -- non-row counters ------------------------------------------------------
  std::size_t tasks_dropped = 0;    ///< tasks discarded for lack of a finish
  std::size_t carried_forward = 0;  ///< grid cells filled from the task's
                                    ///< nearest observation (no measurement
                                    ///< at that exact grid time)

  /// Total dropped rows; rows_read == rows_ingested + dropped() always.
  std::size_t dropped() const {
    return bad_cell_count + unparsable_number + non_finite + bad_time +
           unknown_event + duplicate_row + post_freeze_rows + orphan_rows;
  }
};

/// Outcome of one ingestion. `ok` is false only when no usable store could
/// be built at all (unreadable stream, zero completed tasks, or an empty
/// checkpoint grid); partial data with counted drops still succeeds.
struct IngestResult {
  bool ok = false;
  std::string error;  ///< set iff !ok
  trace::Job job;     ///< finalized store; task ids compacted to 0..n-1 in
                      ///< ascending original-id order
  std::vector<std::uint64_t> original_task_ids;  ///< per compacted id
  AdapterStats stats;
};

/// Ingests one job's task-event rows from `in` under `map`. Never throws on
/// data; see AdapterStats. `job_id` defaults to "<map.name>-import".
IngestResult ingest_foreign_csv(std::istream& in, const ColumnMap& map,
                                std::string job_id = "");

/// File-path convenience wrapper (unreadable path -> ok = false).
IngestResult load_foreign_csv(const std::string& path, const ColumnMap& map,
                              std::string job_id = "");

/// Exports `job` as foreign task-event rows under `map`: for every
/// checkpoint, one measurement row per still-running task (ascending id),
/// then one finish row per task. The exact inverse of ingest_foreign_csv —
/// see the round-trip contract in the file comment.
void write_foreign_csv(std::ostream& out, const trace::Job& job,
                       const ColumnMap& map);

/// File-path convenience wrapper — how a generated job is persisted. Throws
/// std::runtime_error if the path cannot be opened for writing or if any
/// write (including the final flush) fails.
void save_foreign_csv(const std::string& path, const trace::Job& job,
                      const ColumnMap& map);

/// Shifts the decimal exponent of a number's text representation by
/// `power10` — the exact power-of-ten rescale behind time_power10:
/// "845.261" shifted +6 is "845.261e6", "8.4e+02" shifted +6 is "8.4e8".
/// Assumes `value` is a valid decimal number (parse it first); exposed for
/// the round-trip tests.
std::string shift_decimal_exponent(const std::string& value, int power10);

/// Bitwise store equality: dimensions, checkpoint horizons, latencies,
/// freeze checkpoints, every observed row, and the stored version count.
/// The round-trip test oracle.
bool stores_bitwise_equal(const trace::TraceStore& a,
                          const trace::TraceStore& b);

}  // namespace nurd::scenario
