// Method-runner example: evaluate any Table-3 method by name over a freshly
// generated dataset — the quickest way to poke at a single baseline.
//
//   $ ./run_method NURD
//   $ ./run_method Grabit --dataset=alibaba --jobs=8 --seed=7
//
// A malformed integer flag, --jobs=0 or an unknown --dataset exits 2.
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "core/registry.h"
#include "eval/harness.h"

int main(int argc, char** argv) {
  using namespace nurd;
  if (argc < 2 || argv[1][0] == '-') {
    std::cerr << "usage: run_method <METHOD> [--dataset=google|alibaba] "
                 "[--jobs=N] [--seed=S]\nmethods:";
    for (const auto& m : core::all_predictors()) std::cerr << " " << m.name;
    std::cerr << "\n";
    return 2;
  }
  const std::string name = argv[1];
  const std::string dataset =
      bench::arg_string(argc, argv, "dataset", "google");
  const auto n_jobs = bench::arg_count(argc, argv, "jobs", 12);
  const auto seed =
      static_cast<std::uint64_t>(bench::arg_long(argc, argv, "seed", 0));
  if (dataset != "google" && dataset != "alibaba") {
    std::cerr << argv[0] << ": unknown --dataset=" << dataset
              << " (google|alibaba)\n";
    return 2;
  }
  const auto d = dataset == "google" ? bench::Dataset::kGoogle
                                     : bench::Dataset::kAlibaba;
  const auto jobs = bench::make_jobs(d, n_jobs, seed);

  const auto method = core::predictor_by_name(name, bench::tuned_config(d));
  const auto res = eval::evaluate_method(method, jobs);

  std::cout << name << " on " << jobs.size() << " " << dataset
            << "-like jobs (seed offset " << seed << ")\n";
  TextTable table({"metric", "value"});
  table.add_row({"TPR", TextTable::num(res.tpr, 3)});
  table.add_row({"FPR", TextTable::num(res.fpr, 3)});
  table.add_row({"FNR", TextTable::num(res.fnr, 3)});
  table.add_row({"F1", TextTable::num(res.f1, 3)});
  std::cout << table.render();

  std::cout << "\ncumulative F1 by normalized time:\n";
  for (std::size_t t = 0; t < res.f1_timeline.size(); ++t) {
    const auto bar = static_cast<std::size_t>(res.f1_timeline[t] * 50);
    std::cout << "t=" << TextTable::num(
                     static_cast<double>(t + 1) /
                         static_cast<double>(res.f1_timeline.size()), 1)
              << " " << std::string(bar, '#') << " "
              << TextTable::num(res.f1_timeline[t], 3) << "\n";
  }
  return 0;
}
