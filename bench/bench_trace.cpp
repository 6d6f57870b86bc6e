// Trace-layer bench: the before/after of the columnar TraceStore refactor.
//
//   $ ./bench_trace [--jobs=24] [--dataset=google|alibaba|both] [--threads=0]
//
// Reports, per dataset at the default T=10 checkpoint grid:
//   * per-job trace memory — the seed's fully-materialized representation
//     (T dense n×d matrices + partition indexes) vs the columnar store's
//     actual bytes, and the reduction factor (acceptance: ≥ 4×);
//   * stored row-versions vs the T·n dense rows they replace;
//   * trace-generation throughput, serial vs thread-pool fan-out, with a
//     bit-identity spot check between the two runs;
//   * replay throughput: one CheckpointView per job, rebound forward through
//     every checkpoint, touching every task's current row, in rows/s and
//     effective GB/s.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "trace/checkpoint_view.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nurd;
  const auto n_jobs =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "jobs", 24));
  const auto threads =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "threads", 0));
  const auto which = bench::arg_string(argc, argv, "dataset", "both");

  std::vector<bench::Dataset> datasets;
  if (which == "google" || which == "both") {
    datasets.push_back(bench::Dataset::kGoogle);
  }
  if (which == "alibaba" || which == "both") {
    datasets.push_back(bench::Dataset::kAlibaba);
  }

  for (const auto dataset : datasets) {
    std::cout << "=== bench_trace — " << bench::dataset_name(dataset) << " ("
              << n_jobs << " jobs, default T=10 grid) ===\n";

    // --- Memory: materialized (before) vs columnar (after) ---------------
    const auto jobs = bench::make_jobs(dataset, n_jobs);
    double dense_bytes = 0.0, columnar_bytes = 0.0;
    double dense_rows = 0.0, stored_rows = 0.0;
    for (const auto& job : jobs) {
      dense_bytes += static_cast<double>(job.trace.materialized_bytes());
      columnar_bytes += static_cast<double>(job.trace.memory_bytes());
      dense_rows += static_cast<double>(job.task_count() *
                                        job.checkpoint_count());
      stored_rows += static_cast<double>(job.trace.version_count());
    }
    const double n = static_cast<double>(jobs.size());
    TextTable mem({"representation", "per-job bytes", "stored rows/job"});
    mem.add_row({"materialized (seed: T dense n x d)",
                 TextTable::num(dense_bytes / n, 0),
                 TextTable::num(dense_rows / n, 0)});
    mem.add_row({"columnar TraceStore",
                 TextTable::num(columnar_bytes / n, 0),
                 TextTable::num(stored_rows / n, 0)});
    std::cout << mem.render();
    std::cout << "memory reduction: "
              << TextTable::num(dense_bytes / columnar_bytes, 2)
              << "x (target >= 4x)\n\n";

    // --- Generation throughput: serial vs pooled --------------------------
    const auto gen_run = [&](std::size_t lanes) {
      auto config = dataset == bench::Dataset::kGoogle
                        ? trace::GoogleLikeGenerator::google_defaults()
                        : trace::AlibabaLikeGenerator::alibaba_defaults();
      const auto start = Clock::now();
      std::vector<trace::Job> out;
      if (dataset == bench::Dataset::kGoogle) {
        trace::GoogleLikeGenerator gen(config);
        out = gen.generate(n_jobs, lanes);
      } else {
        trace::AlibabaLikeGenerator gen(config);
        out = gen.generate(n_jobs, lanes);
      }
      return std::make_pair(seconds_since(start), std::move(out));
    };
    const auto [serial_s, serial_jobs] = gen_run(1);
    const auto [pooled_s, pooled_jobs] = gen_run(threads);
    bool identical = serial_jobs.size() == pooled_jobs.size();
    for (std::size_t j = 0; identical && j < serial_jobs.size(); ++j) {
      identical = serial_jobs[j].trace.version_count() ==
                      pooled_jobs[j].trace.version_count() &&
                  serial_jobs[j].latency(0) == pooled_jobs[j].latency(0);
    }
    TextTable gen_table({"generation", "seconds", "jobs/s"});
    gen_table.add_row({"serial (threads=1)", TextTable::num(serial_s, 3),
                       TextTable::num(n / serial_s, 1)});
    gen_table.add_row({"thread pool", TextTable::num(pooled_s, 3),
                       TextTable::num(n / pooled_s, 1)});
    std::cout << gen_table.render();
    std::cout << "speedup: " << TextTable::num(serial_s / pooled_s, 2)
              << "x, outputs bit-identical: " << (identical ? "yes" : "NO")
              << "\n\n";

    // --- Checkpoint-walk (replay) throughput ------------------------------
    const auto start = Clock::now();
    double checksum = 0.0;
    std::size_t rows_read = 0;
    for (const auto& job : jobs) {
      trace::CheckpointView view(job.trace, 0);
      for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
        view.rebind(t);
        for (std::size_t i = 0; i < view.task_count(); ++i) {
          checksum += view.row(i)[0];
          ++rows_read;
        }
      }
    }
    const double replay_s = seconds_since(start);
    const double bytes_read =
        dense_rows > 0.0
            ? static_cast<double>(rows_read) *
                  static_cast<double>(jobs.front().feature_count()) * 8.0
            : 0.0;
    std::cout << "replay: " << rows_read << " row reads in "
              << TextTable::num(replay_s * 1e3, 1) << " ms ("
              << TextTable::num(static_cast<double>(rows_read) / replay_s / 1e6,
                                1)
              << " M rows/s, "
              << TextTable::num(bytes_read / replay_s / 1e9, 2)
              << " GB/s effective; checksum "
              << TextTable::num(checksum, 1) << ")\n\n";
  }
  bench::print_resource_report("bench_trace");
  return 0;
}
