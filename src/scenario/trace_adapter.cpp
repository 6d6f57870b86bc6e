#include "scenario/trace_adapter.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace nurd::scenario {

namespace {

void validate_map(const ColumnMap& map) {
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("ColumnMap '" + map.name + "': " + what);
  };
  if (map.columns == 0) fail("columns must be > 0");
  if (map.feature_cols.empty()) fail("needs at least one feature column");
  if (map.time_power10 < -18 || map.time_power10 > 18) {
    fail("time_power10 must lie in [-18, 18]");
  }
  if (map.measure_event.empty() || map.finish_event.empty()) {
    fail("event tokens must be non-empty");
  }
  if (map.measure_event == map.finish_event) {
    fail("measure and finish event tokens must differ");
  }
  std::set<std::size_t> used{map.time_col, map.task_col, map.event_col};
  if (used.size() != 3) fail("time/task/event columns must be distinct");
  for (std::size_t c : map.feature_cols) {
    if (!used.insert(c).second) {
      fail("feature columns must not collide with each other or with the "
           "time/task/event columns");
    }
  }
  for (std::size_t c : used) {
    if (c >= map.columns) fail("column index out of range");
  }
  if (map.has_header && map.column_names.size() != map.columns) {
    fail("has_header requires one column_names entry per column");
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// Splits on commas, keeping empty cells (including a trailing one).
void split_cells(std::string_view line, std::vector<std::string_view>* out) {
  out->clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      out->push_back(line.substr(start));
      return;
    }
    out->push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

// Full-cell double parse (round-trip safe via strtod). Returns false when
// the cell is empty or not entirely a number; finiteness is the caller's
// check (so NaN rows are counted as non_finite, not unparsable). Hex floats
// are rejected — decimal exponent shifting (time_power10) has no meaning
// for them.
bool parse_double(std::string_view cell, double* out) {
  const std::string buf(trim(cell));
  if (buf.empty()) return false;
  if (buf.find('x') != std::string::npos ||
      buf.find('X') != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool parse_task_id(std::string_view cell, std::uint64_t* out) {
  const std::string buf(trim(cell));
  if (buf.empty() || buf[0] == '-' || buf[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Per-task accumulator during ingest: the finish event plus every accepted
// measurement, keyed by normalized time (a std::map so grid assembly and
// carry-forward walk in deterministic time order).
struct TaskAccum {
  double latency = -1.0;  ///< < 0 until a finish event lands
  std::vector<double> finish_row;
  std::map<double, std::vector<double>> measures;
};

IngestResult fail_ingest(std::string error, AdapterStats stats) {
  IngestResult out;
  out.error = std::move(error);
  out.stats = stats;
  return out;
}

}  // namespace

ColumnMap google_task_events_columns(std::size_t feature_count) {
  NURD_CHECK(feature_count > 0, "need at least one feature column");
  ColumnMap map;
  map.name = "google-task-events";
  // timestamp, missing-info, job id, task index, machine id, event type,
  // user, scheduling class, priority, then the metric columns.
  map.columns = 9 + feature_count;
  map.time_col = 0;
  map.task_col = 3;
  map.event_col = 5;
  map.feature_cols.resize(feature_count);
  for (std::size_t f = 0; f < feature_count; ++f) map.feature_cols[f] = 9 + f;
  map.measure_event = "8";  // UPDATE_RUNNING
  map.finish_event = "4";   // FINISH
  map.time_power10 = -6;    // microseconds -> seconds
  map.has_header = false;   // the real dumps ship headerless
  return map;
}

ColumnMap alibaba_instance_columns(std::size_t feature_count) {
  NURD_CHECK(feature_count > 0, "need at least one feature column");
  ColumnMap map;
  map.name = "alibaba-batch-instance";
  // instance id, job name, status, timestamp, then the metric columns.
  map.columns = 4 + feature_count;
  map.time_col = 3;
  map.task_col = 0;
  map.event_col = 2;
  map.feature_cols.resize(feature_count);
  for (std::size_t f = 0; f < feature_count; ++f) map.feature_cols[f] = 4 + f;
  map.measure_event = "Running";
  map.finish_event = "Terminated";
  map.time_power10 = 0;  // already seconds
  map.has_header = true;
  map.column_names = {"instance_id", "job_name", "status", "timestamp"};
  for (std::size_t f = 0; f < feature_count; ++f) {
    map.column_names.push_back("metric_" + std::to_string(f));
  }
  return map;
}

IngestResult ingest_foreign_csv(std::istream& in, const ColumnMap& map,
                                std::string job_id) {
  validate_map(map);
  AdapterStats stats;
  const std::size_t d = map.feature_cols.size();

  std::map<std::uint64_t, TaskAccum> tasks;
  std::vector<std::string_view> cells;
  std::string line;
  bool header_pending = map.has_header;
  while (std::getline(in, line)) {
    const std::string_view stripped = trim(line);
    if (stripped.empty()) continue;  // blank lines are not data rows
    if (header_pending) {
      header_pending = false;
      continue;
    }
    ++stats.rows_read;
    split_cells(stripped, &cells);
    if (cells.size() != map.columns) {
      ++stats.bad_cell_count;
      continue;
    }
    std::uint64_t task_id = 0;
    double t_raw = 0.0;
    if (!parse_task_id(cells[map.task_col], &task_id) ||
        !parse_double(cells[map.time_col], &t_raw)) {
      ++stats.unparsable_number;
      continue;
    }
    if (!std::isfinite(t_raw)) {
      ++stats.non_finite;
      continue;
    }
    double t = t_raw;
    if (map.time_power10 != 0 &&
        !parse_double(shift_decimal_exponent(
                          std::string(trim(cells[map.time_col])),
                          map.time_power10),
                      &t)) {
      ++stats.unparsable_number;
      continue;
    }
    if (!(t > 0.0) || !std::isfinite(t)) {
      ++stats.bad_time;
      continue;
    }
    const std::string_view event = trim(cells[map.event_col]);
    const bool is_finish = event == map.finish_event;
    if (!is_finish && event != map.measure_event) {
      ++stats.unknown_event;
      continue;
    }
    std::vector<double> row(d);
    bool parsed = true;
    bool finite = true;
    for (std::size_t f = 0; f < d; ++f) {
      if (!parse_double(cells[map.feature_cols[f]], &row[f])) {
        parsed = false;
        break;
      }
      finite = finite && std::isfinite(row[f]);
    }
    if (!parsed) {
      ++stats.unparsable_number;
      continue;
    }
    if (!finite) {
      ++stats.non_finite;
      continue;
    }
    TaskAccum& acc = tasks[task_id];
    if (is_finish) {
      if (acc.latency >= 0.0) {
        ++stats.duplicate_row;
        continue;
      }
      acc.latency = t;
      acc.finish_row = std::move(row);
    } else if (!acc.measures.emplace(t, std::move(row)).second) {
      ++stats.duplicate_row;
      continue;
    }
  }

  // --- Assembly: keep finished tasks, drop post-freeze measurements, and
  // form the checkpoint grid from the surviving measurement times.
  std::vector<std::uint64_t> kept_ids;
  std::set<double> grid;
  for (auto& [id, acc] : tasks) {
    if (acc.latency < 0.0) {
      ++stats.tasks_dropped;
      stats.orphan_rows += acc.measures.size();
      continue;
    }
    for (auto it = acc.measures.begin(); it != acc.measures.end();) {
      if (it->first >= acc.latency) {
        ++stats.post_freeze_rows;
        it = acc.measures.erase(it);
      } else {
        grid.insert(it->first);
        ++it;
      }
    }
    stats.rows_ingested += 1 + acc.measures.size();  // finish + measurements
    kept_ids.push_back(id);
  }
  NURD_CHECK(stats.rows_read == stats.rows_ingested + stats.dropped(),
             "adapter accounting identity violated");
  if (kept_ids.empty()) {
    return fail_ingest("no task has a finish event — cannot recover any "
                       "latency",
                       stats);
  }
  if (grid.empty()) {
    return fail_ingest("no usable measurement rows — cannot form a "
                       "checkpoint grid",
                       stats);
  }

  std::vector<double> latencies(kept_ids.size());
  for (std::size_t i = 0; i < kept_ids.size(); ++i) {
    latencies[i] = tasks[kept_ids[i]].latency;
  }

  IngestResult out;
  out.job.id = job_id.empty() ? map.name + "-import" : std::move(job_id);
  out.job.trace = trace::TraceStore(std::move(latencies), d);
  for (const double tau : grid) {
    out.job.trace.append_checkpoint(
        tau, [&](std::size_t i, std::span<double> row) {
          const TaskAccum& acc = tasks[kept_ids[i]];
          // Newly finished (latency in (prev, tau]): the frozen observation
          // is the finish row. Still running: the measurement at exactly
          // this grid time, or the nearest observation carried forward.
          const std::vector<double>* src = &acc.finish_row;
          if (acc.latency > tau) {
            const auto exact = acc.measures.find(tau);
            if (exact != acc.measures.end()) {
              src = &exact->second;
            } else {
              ++stats.carried_forward;
              auto after = acc.measures.upper_bound(tau);
              if (after != acc.measures.begin()) {
                src = &std::prev(after)->second;  // last observation before
              } else if (after != acc.measures.end()) {
                src = &after->second;  // backfill from the first one
              }  // no measurements at all: the finish row stands in
            }
          }
          std::copy(src->begin(), src->end(), row.begin());
        });
  }
  out.job.trace.finalize();
  out.original_task_ids = std::move(kept_ids);
  out.stats = stats;
  out.ok = true;
  return out;
}

IngestResult load_foreign_csv(const std::string& path, const ColumnMap& map,
                              std::string job_id) {
  std::ifstream in(path);
  if (!in) {
    return fail_ingest("cannot open '" + path + "' for reading", {});
  }
  return ingest_foreign_csv(in, map, std::move(job_id));
}

void write_foreign_csv(std::ostream& out, const trace::Job& job,
                       const ColumnMap& map) {
  validate_map(map);
  const std::size_t d = map.feature_cols.size();
  NURD_CHECK(job.feature_count() == d,
             "job feature count does not match the column map");
  NURD_CHECK(job.trace.finalized(), "export requires a finalized store");

  if (map.has_header) {
    for (std::size_t c = 0; c < map.columns; ++c) {
      out << (c ? "," : "") << map.column_names[c];
    }
    out << '\n';
  }

  std::vector<std::string> row(map.columns, "0");
  const auto emit = [&](double time, std::size_t task,
                        const std::string& event, std::span<const double> x) {
    row.assign(map.columns, "0");
    row[map.time_col] =
        shift_decimal_exponent(format_double(time), -map.time_power10);
    row[map.task_col] = std::to_string(task);
    row[map.event_col] = event;
    for (std::size_t f = 0; f < d; ++f) {
      row[map.feature_cols[f]] = format_double(x[f]);
    }
    for (std::size_t c = 0; c < map.columns; ++c) {
      out << (c ? "," : "") << row[c];
    }
    out << '\n';
  };

  const trace::TraceStore& store = job.trace;
  std::vector<std::size_t> running;
  for (std::size_t t = 0; t < store.checkpoint_count(); ++t) {
    store.partition(t, nullptr, &running);
    for (const std::size_t i : running) {
      emit(store.tau_run(t), i, map.measure_event, store.row(t, i));
    }
  }
  const std::size_t last = store.checkpoint_count() - 1;
  for (std::size_t i = 0; i < store.task_count(); ++i) {
    // A task frozen within the grid exports its frozen observation; one
    // still running at the last checkpoint exports its latest row (its true
    // frozen row was never stored — and a re-ingest never needs it, since
    // the task outlives every reconstructed checkpoint).
    const std::size_t frozen = store.freeze_checkpoint(i);
    const std::size_t at = frozen == trace::kNeverFrozen ? last : frozen;
    emit(store.latency(i), i, map.finish_event, store.row(at, i));
  }
}

void save_foreign_csv(const std::string& path, const trace::Job& job,
                      const ColumnMap& map) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  write_foreign_csv(out, job, map);
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::string shift_decimal_exponent(const std::string& value, int power10) {
  if (power10 == 0) return value;
  const std::size_t e = value.find_first_of("eE");
  if (e == std::string::npos) {
    return value + "e" + std::to_string(power10);
  }
  const long old_exp = std::strtol(value.c_str() + e + 1, nullptr, 10);
  return value.substr(0, e + 1) + std::to_string(old_exp + power10);
}

bool stores_bitwise_equal(const trace::TraceStore& a,
                          const trace::TraceStore& b) {
  if (a.task_count() != b.task_count() ||
      a.feature_count() != b.feature_count() ||
      a.checkpoint_count() != b.checkpoint_count() ||
      a.version_count() != b.version_count()) {
    return false;
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t t = 0; t < a.checkpoint_count(); ++t) {
    if (bits(a.tau_run(t)) != bits(b.tau_run(t))) return false;
  }
  for (std::size_t i = 0; i < a.task_count(); ++i) {
    if (bits(a.latency(i)) != bits(b.latency(i))) return false;
    if (a.freeze_checkpoint(i) != b.freeze_checkpoint(i)) return false;
    for (std::size_t t = 0; t < a.checkpoint_count(); ++t) {
      const auto ra = a.row(t, i);
      const auto rb = b.row(t, i);
      for (std::size_t f = 0; f < ra.size(); ++f) {
        if (bits(ra[f]) != bits(rb[f])) return false;
      }
    }
  }
  return true;
}

}  // namespace nurd::scenario
