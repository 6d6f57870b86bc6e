// Full vs incremental checkpoint refits (RefitPolicy::kFull vs
// kIncremental) for the warm-startable learners: per-checkpoint refit cost
// and end-metric drift, on both tuned configs.
//
//   $ ./bench_refit [--jobs=16] [--dataset=google|alibaba|both]
//                   [--min-tasks=100] [--max-tasks=400] [--checkpoints=10]
//                   [--methods=NURD,NURD-NC,GBTR,Grabit] [--check=0]
//
// The output header names the kernel table ops() picked for this CPU, so
// timings are attributable; every table computes bit-identical results.
//
// Defaults mirror the Table-3 evaluation protocol (the regime every warm
// knob is tuned against); --min-tasks/--max-tasks/--checkpoints scale the
// study up to larger jobs and denser checkpoint grids.
//
// Reports, per method and dataset:
//   * mean per-checkpoint predict_stragglers() cost (featurize + refit +
//     score) for each checkpoint index, both policies;
//   * the LATE-checkpoint ratio (mean over the last quartile of the
//     checkpoint grid) — the paper's Algorithm 1 refits from scratch as the
//     finished set peaks, which is exactly where the warm path's
//     continuation is cheapest;
//   * macro-F1 / TPR / FPR under both policies and the drift between them.
//
// --check=1 (the CI smoke mode) exits non-zero unless the late-checkpoint
// ratio is >= 3 and |macro-F1 drift| <= 0.01 for every method on both tuned
// configs — the acceptance bar for the incremental refit path. A check
// that covered no (dataset, method) cell fails too. An unknown flag,
// --dataset or --methods name exits 2 before any job is generated.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/predictor.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "kernel/kernel.h"

namespace {

using namespace nurd;
using Clock = std::chrono::steady_clock;

/// Delegating predictor that accumulates per-checkpoint wall-clock spent in
/// predict_stragglers — the whole per-checkpoint cost a scheduler would pay.
class TimedPredictor final : public core::StragglerPredictor {
 public:
  TimedPredictor(std::unique_ptr<core::StragglerPredictor> inner,
                 std::vector<double>* seconds_per_checkpoint)
      : inner_(std::move(inner)), seconds_(seconds_per_checkpoint) {}

  std::string name() const override { return inner_->name(); }
  core::Privilege privilege() const override { return inner_->privilege(); }
  void initialize(const core::JobContext& context) override {
    inner_->initialize(context);
  }
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override {
    const auto start = Clock::now();
    auto out = inner_->predict_stragglers(view, candidates);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    if (view.index() >= seconds_->size()) seconds_->resize(view.index() + 1);
    (*seconds_)[view.index()] += elapsed.count();
    return out;
  }

 private:
  std::unique_ptr<core::StragglerPredictor> inner_;
  std::vector<double>* seconds_;
};

struct PolicyRun {
  eval::MethodResult metrics;
  std::vector<double> seconds;  ///< summed per checkpoint index, all jobs
};

PolicyRun run_policy(const core::NamedPredictor& method,
                     std::span<const trace::Job> jobs) {
  PolicyRun run;
  std::vector<eval::JobRunResult> results;
  results.reserve(jobs.size());
  for (const auto& job : jobs) {
    TimedPredictor timed(method.make(), &run.seconds);
    results.push_back(eval::run_job(job, timed));
  }
  run.metrics = eval::aggregate_method(method.name, results);
  return run;
}

double late_quartile_mean(const std::vector<double>& seconds) {
  if (seconds.empty()) return 0.0;
  const std::size_t from = seconds.size() - (seconds.size() + 3) / 4;
  double sum = 0.0;
  for (std::size_t t = from; t < seconds.size(); ++t) sum += seconds[t];
  return sum / static_cast<double>(seconds.size() - from);
}

}  // namespace

int main(int argc, char** argv) {
  bench::accept_flags(argc, argv,
                      {"jobs", "min-tasks", "max-tasks", "checkpoints",
                       "check", "dataset", "methods"});
  const auto n_jobs = bench::arg_count(argc, argv, "jobs", 16);
  const auto min_tasks = static_cast<std::size_t>(
      bench::arg_long(argc, argv, "min-tasks", 100));
  const auto max_tasks = static_cast<std::size_t>(
      bench::arg_long(argc, argv, "max-tasks", 400));
  const auto checkpoints = static_cast<std::size_t>(
      bench::arg_long(argc, argv, "checkpoints", 10));
  const bool check = bench::arg_long(argc, argv, "check", 0) != 0;
  const auto datasets = bench::arg_datasets(argc, argv, "both");
  const auto methods =
      bench::split_csv(bench::arg_string(argc, argv, "methods",
                                  "NURD,NURD-NC,GBTR,Grabit"));
  // Every name is checked before any job is generated.
  for (const auto& name : methods) {
    bench::method_by_name(argv[0], name, core::google_tuned());
  }

  const auto make_scaled_jobs = [&](bench::Dataset dataset) {
    if (dataset == bench::Dataset::kGoogle) {
      auto config = trace::GoogleLikeGenerator::google_defaults();
      config.min_tasks = min_tasks;
      config.max_tasks = max_tasks;
      config.checkpoints = checkpoints;
      return trace::GoogleLikeGenerator(config).generate(n_jobs);
    }
    auto config = trace::AlibabaLikeGenerator::alibaba_defaults();
    config.min_tasks = min_tasks;
    config.max_tasks = max_tasks;
    config.checkpoints = checkpoints;
    return trace::AlibabaLikeGenerator(config).generate(n_jobs);
  };

  bool ok = true;
  std::size_t cells = 0;
  for (const auto dataset : datasets) {
    const auto jobs = make_scaled_jobs(dataset);
    auto full_config = bench::tuned_config(dataset);
    auto incremental_config = full_config;
    incremental_config.refit = core::RefitPolicy::kIncremental;

    std::printf("=== bench_refit — %s (%zu jobs, kernel backend: %s) ===\n",
                bench::dataset_name(dataset), jobs.size(),
                kernel::backend_name());
    for (const auto& name : methods) {
      const auto full =
          run_policy(core::predictor_by_name(name, full_config), jobs);
      const auto inc =
          run_policy(core::predictor_by_name(name, incremental_config), jobs);
      ++cells;

      std::printf("--- %s ---\n", name.c_str());
      std::printf("  cp:   ");
      for (std::size_t t = 0; t < full.seconds.size(); ++t) {
        std::printf("%8zu", t);
      }
      std::printf("\n  full: ");
      for (const double s : full.seconds) std::printf("%7.2fms", 1e3 * s);
      std::printf("\n  inc:  ");
      for (const double s : inc.seconds) std::printf("%7.2fms", 1e3 * s);
      const double late_full = late_quartile_mean(full.seconds);
      const double late_inc = late_quartile_mean(inc.seconds);
      const double ratio = late_inc > 0.0 ? late_full / late_inc : 0.0;
      const double drift = inc.metrics.f1 - full.metrics.f1;
      std::printf(
          "\n  late-checkpoint cost: full %.2fms, incremental %.2fms — "
          "%.1fx lower\n",
          1e3 * late_full, 1e3 * late_inc, ratio);
      std::printf(
          "  macro-F1: full %.4f, incremental %.4f (drift %+.4f); "
          "TPR %+.4f FPR %+.4f\n",
          full.metrics.f1, inc.metrics.f1, drift,
          inc.metrics.tpr - full.metrics.tpr,
          inc.metrics.fpr - full.metrics.fpr);

      if (ratio < 3.0) {
        std::printf("  [check] FAIL: late-checkpoint ratio %.2fx < 3x\n",
                    ratio);
        ok = false;
      }
      if (drift > 0.01 || drift < -0.01) {
        std::printf("  [check] FAIL: |macro-F1 drift| %.4f > 0.01\n", drift);
        ok = false;
      }
    }
    std::printf("\n");
  }
  if (check && cells == 0) {
    std::printf("bench_refit --check: FAILED (no cell was checked)\n");
    return 1;
  }
  if (check && !ok) {
    std::printf("bench_refit --check: FAILED\n");
    return 1;
  }
  if (check) std::printf("bench_refit --check: OK\n");
  return 0;
}
