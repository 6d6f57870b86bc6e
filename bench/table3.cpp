// Table 3 reproduction: averaged TPR / FPR / FNR / F1 over all jobs for all
// 23 methods, on the Google-like and Alibaba-like trace datasets.
//
//   $ ./table3 [--jobs=40] [--dataset=google|alibaba|both] [--seed-offset=0]
//
// The paper's qualitative claims this bench should reproduce:
//   * NURD has the best F1 on both datasets;
//   * GBTR has low TPR (negative-only training bias);
//   * outlier detectors score low F1 (high TPR + high FPR, or low + low);
//   * PU methods have high TPR but inconsistent FPR;
//   * censored/survival methods land between;
//   * NURD-NC has high TPR but much higher FPR than NURD.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/registry.h"
#include "eval/harness.h"

int main(int argc, char** argv) {
  using namespace nurd;
  bench::accept_flags(argc, argv, {"jobs", "seed-offset", "dataset"});
  const auto n_jobs = bench::arg_count(argc, argv, "jobs", 40);
  const auto seed_offset = static_cast<std::uint64_t>(
      bench::arg_long(argc, argv, "seed-offset", 0));
  const auto datasets = bench::arg_datasets(argc, argv, "both");

  for (const auto dataset : datasets) {
    const auto jobs = bench::make_jobs(dataset, n_jobs, seed_offset);
    std::cout << "=== Table 3 — " << bench::dataset_name(dataset) << " ("
              << jobs.size() << " jobs, seed offset " << seed_offset
              << ") ===\n";
    // "F1" is the paper's end-of-job score; "F1@t̄" (mean cumulative F1 over
    // the 10 normalized-time checkpoints, i.e. the area under Figure 2/3's
    // curve) quantifies earliness — late flags score on F1 but not on F1@t̄.
    TextTable table({"Method", "TPR", "FPR", "FNR", "F1", "F1@t-mean"});
    std::string best_name, best_early_name;
    double best_f1 = -1.0, best_early = -1.0;
    for (const auto& method : core::all_predictors(bench::tuned_config(dataset))) {
      const auto res = eval::evaluate_method(method, jobs);
      double early = 0.0;
      for (double f : res.f1_timeline) early += f;
      early /= static_cast<double>(res.f1_timeline.size());
      table.add_row({res.name, TextTable::num(res.tpr), TextTable::num(res.fpr),
                     TextTable::num(res.fnr), TextTable::num(res.f1),
                     TextTable::num(early)});
      if (res.f1 > best_f1) {
        best_f1 = res.f1;
        best_name = res.name;
      }
      if (early > best_early) {
        best_early = early;
        best_early_name = res.name;
      }
      std::cerr << "." << std::flush;  // progress without polluting stdout
    }
    std::cerr << "\n";
    std::cout << table.render();
    std::cout << "best final F1: " << best_name << " ("
              << TextTable::num(best_f1) << "); best time-averaged F1: "
              << best_early_name << " (" << TextTable::num(best_early)
              << ")\n\n";
  }
  return 0;
}
