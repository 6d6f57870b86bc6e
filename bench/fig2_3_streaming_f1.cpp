// Figures 2 and 3 reproduction: cumulative F1 at each of the 10 normalized
// time checkpoints, averaged over all jobs, for all 23 methods.
//
//   $ ./fig2_3_streaming_f1 [--jobs=40] [--dataset=google|alibaba|both]
//
// The paper's qualitative claims: NURD outperforms all other methods at all
// time points (except possibly the very beginning on Google), i.e. it
// identifies stragglers earlier.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/registry.h"
#include "eval/harness.h"

int main(int argc, char** argv) {
  using namespace nurd;
  const auto n_jobs = bench::arg_count(argc, argv, "jobs", 40);
  const auto datasets = bench::arg_datasets(argc, argv, "both");

  for (const auto dataset : datasets) {
    const auto jobs = bench::make_jobs(dataset, n_jobs);
    const std::size_t T = jobs.front().checkpoint_count();

    std::cout << "=== Figure " << (dataset == bench::Dataset::kGoogle ? 2 : 3)
              << " — F1 vs normalized time, " << bench::dataset_name(dataset)
              << " (" << jobs.size() << " jobs) ===\n";
    std::vector<std::string> header{"Method"};
    for (std::size_t t = 0; t < T; ++t) {
      header.push_back("t=" + TextTable::num(
                                  static_cast<double>(t + 1) /
                                      static_cast<double>(T), 1));
    }
    TextTable table(header);
    for (const auto& method :
         core::all_predictors(bench::tuned_config(dataset))) {
      const auto res = eval::evaluate_method(method, jobs);
      std::vector<std::string> row{res.name};
      for (double f1 : res.f1_timeline) row.push_back(TextTable::num(f1));
      table.add_row(std::move(row));
      std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    std::cout << table.render() << "\n";
  }
  return 0;
}
