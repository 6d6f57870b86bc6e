// Ablations for NURD's design choices (paper §4 and §6):
//   * α sweep — the calibration range (paper sets 0.5 after pilot tuning);
//   * ε sweep — the minimum positive weight;
//   * calibration on/off — NURD vs NURD-NC (the paper's own ablation);
//   * latency-threshold robustness — p70..p95 (§4.2: "Tests with a wide
//     variety of thresholds show that NURD produces results that are robust
//     to the different latency thresholds");
//   * ρ by regime — verifies the §4.2 claim that the centroid ratio is
//     smaller for far-tail jobs than near-tail jobs.
//
//   $ ./ablation_nurd [--jobs=24] [--dataset=google|alibaba|both]
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/nurd.h"
#include "core/registry.h"
#include "eval/harness.h"

namespace {

nurd::core::NamedPredictor nurd_with(nurd::core::NurdParams params) {
  return {"NURD", [params]() {
            return std::make_unique<nurd::core::NurdPredictor>(params);
          }};
}

void run_ablations(nurd::bench::Dataset dataset, std::size_t n_jobs) {
  using namespace nurd;
  const auto jobs = bench::make_jobs(dataset, n_jobs);
  const auto tuned = bench::tuned_config(dataset);

  core::NurdParams base;
  base.alpha = tuned.nurd_alpha;
  base.epsilon = tuned.nurd_epsilon;
  base.gbt.n_rounds = tuned.nurd_gbt_rounds;
  base.gbt.tree.max_depth = tuned.nurd_tree_depth;
  base.propensity.l2 = tuned.nurd_propensity_l2;

  std::cout << "=== NURD ablations — " << bench::dataset_name(dataset) << " ("
            << jobs.size() << " jobs) ===\n\n";

  {
    std::cout << "--- alpha sweep (tuned value " << base.alpha << ") ---\n";
    TextTable t({"alpha", "F1", "TPR", "FPR"});
    for (double a : {0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.50}) {
      auto p = base;
      p.alpha = a;
      const auto r = eval::evaluate_method(nurd_with(p), jobs);
      t.add_row({TextTable::num(a), TextTable::num(r.f1),
                 TextTable::num(r.tpr), TextTable::num(r.fpr)});
    }
    std::cout << t.render() << "\n";
  }

  {
    std::cout << "--- epsilon sweep (paper value 0.05) ---\n";
    TextTable t({"epsilon", "F1", "TPR", "FPR"});
    for (double e : {0.01, 0.02, 0.05, 0.10, 0.20}) {
      auto p = base;
      p.epsilon = e;
      const auto r = eval::evaluate_method(nurd_with(p), jobs);
      t.add_row({TextTable::num(e), TextTable::num(r.f1),
                 TextTable::num(r.tpr), TextTable::num(r.fpr)});
    }
    std::cout << t.render() << "\n";
  }

  {
    std::cout << "--- calibration on/off (NURD vs NURD-NC) ---\n";
    TextTable t({"variant", "F1", "TPR", "FPR"});
    for (bool cal : {true, false}) {
      auto p = base;
      p.calibrate = cal;
      const auto r = eval::evaluate_method(nurd_with(p), jobs);
      t.add_row({cal ? "NURD (calibrated)" : "NURD-NC (w = z)",
                 TextTable::num(r.f1), TextTable::num(r.tpr),
                 TextTable::num(r.fpr)});
    }
    std::cout << t.render() << "\n";
  }

  {
    std::cout << "--- latency-threshold robustness (p70..p95) ---\n";
    TextTable t({"threshold", "F1", "TPR", "FPR"});
    for (double pct : {70.0, 75.0, 80.0, 85.0, 90.0, 95.0}) {
      double f1 = 0.0, tpr = 0.0, fpr = 0.0;
      for (const auto& job : jobs) {
        core::NurdPredictor predictor(base);
        const auto run = eval::run_job(job, predictor, pct);
        f1 += run.final.f1();
        tpr += run.final.tpr();
        fpr += run.final.fpr();
      }
      const auto n = static_cast<double>(jobs.size());
      t.add_row({"p" + TextTable::num(pct, 0), TextTable::num(f1 / n),
                 TextTable::num(tpr / n), TextTable::num(fpr / n)});
    }
    std::cout << t.render() << "\n";
  }

  {
    std::cout << "--- centroid ratio rho by tail regime (section 4.2) ---\n";
    std::vector<double> far_rho, near_rho;
    for (const auto& job : jobs) {
      core::NurdPredictor p(base);
      // ρ is a property of the first checkpoint's centroids alone.
      p.calibrate(job.checkpoint(0));
      (job.id.starts_with("far") ? far_rho : near_rho).push_back(p.rho());
    }
    TextTable t({"regime", "jobs", "median rho"});
    if (!far_rho.empty()) {
      t.add_row({"far tail (threshold < max/2)",
                 std::to_string(far_rho.size()),
                 TextTable::num(median(far_rho))});
    }
    if (!near_rho.empty()) {
      t.add_row({"near tail (threshold > max/2)",
                 std::to_string(near_rho.size()),
                 TextTable::num(median(near_rho))});
    }
    std::cout << t.render() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto n_jobs = nurd::bench::arg_count(argc, argv, "jobs", 24);
  for (const auto dataset : nurd::bench::arg_datasets(argc, argv, "google")) {
    run_ablations(dataset, n_jobs);
  }
  return 0;
}
