// Adapters exposing every baseline from the paper's §6 "Comparisons" through
// the online StragglerPredictor interface. Each adapter documents how the
// underlying (usually offline) method is driven by streaming checkpoint
// data; the adaptations follow the paper and DESIGN.md §3.
//
// All adapters consume trace::CheckpointView through a shared FitSession —
// the featurization layer that assembles each checkpoint's design blocks
// (finished rows, membership labels, the dense snapshot) exactly once into
// reused scratch, bit-identical to the hand-rolled per-adapter gathers it
// replaced. Every adapter but GBTR refits its model whole at every
// checkpoint, on one path. GBTR's finished-block booster is the one baseline
// a RefitPolicy changes: under kIncremental it warm-continues (see
// refit_finished_gbt).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "censored/coxph.h"
#include "censored/tobit.h"
#include "core/fit_session.h"
#include "core/predictor.h"
#include "ml/gbt.h"
#include "ml/linear_svm.h"
#include "outlier/detector.h"
#include "outlier/ensemble_detectors.h"
#include "pu/pu_bg.h"
#include "pu/pu_en.h"

namespace nurd::core {

/// Supervised baseline: gradient-boosted regression on finished tasks only;
/// flags a task when the (unweighted) latency prediction reaches τstra.
/// Exactly NURD's ht without the reweighting stage — the paper's
/// demonstration of negative-only training bias. Under kIncremental the
/// booster warm-continues on the appended completions like NURD's ht.
class GbtrPredictor final : public StragglerPredictor {
 public:
  explicit GbtrPredictor(ml::GbtParams params = {},
                         RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "GBTR"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

  /// Refit stage (see StragglerPredictor): replicates the guard-then-fit
  /// sequence; predict_stragglers then only scores.
  void refit_checkpoint(const trace::CheckpointView& view,
                        std::span<const std::size_t> candidates) override;

 private:
  ml::GbtParams params_;
  double tau_stra_ = 0.0;
  FitSession session_;
  GbtRefitState model_;
  std::size_t fitted_checkpoint_ = trace::kNoCheckpoint;
  Matrix candidate_rows_;  ///< scored as one block; reused
};

/// Generic adapter for the 13 unsupervised detectors: at each checkpoint the
/// detector is fitted on the full feature snapshot and candidates whose
/// scores exceed the contamination threshold (default 0.1, matching the p90
/// straggler definition) are flagged. The snapshot comes from the session,
/// which patches only the rows the trace delta reports changed.
class OutlierPredictor final : public StragglerPredictor {
 public:
  using DetectorFactory =
      std::function<std::unique_ptr<outlier::Detector>()>;

  OutlierPredictor(std::string name, DetectorFactory make,
                   double contamination = 0.1);
  std::string name() const override { return name_; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  std::string name_;
  DetectorFactory make_;
  double contamination_;
  FitSession session_;
};

/// XGBOD adapter: TOS-augmented boosted classifier trained on the
/// finished(0)/running(1) pseudo-labels available online (DESIGN.md §1).
class XgbodPredictor final : public StragglerPredictor {
 public:
  explicit XgbodPredictor(outlier::XgbodParams params = {},
                          double contamination = 0.1);
  std::string name() const override { return "XGBOD"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  outlier::XgbodParams params_;
  double contamination_;
  FitSession session_;
};

/// PU-EN adapter (Elkan–Noto with swapped roles): flags a candidate when the
/// calibrated probability of belonging to the labeled (finished) class drops
/// below 1/2. The labeled side is the session's finished block; the
/// unlabeled side (shrinking running set) is gathered per checkpoint.
class PuEnPredictor final : public StragglerPredictor {
 public:
  explicit PuEnPredictor(pu::PuEnParams params = {});
  std::string name() const override { return "PU-EN"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  pu::PuEnParams params_;
  FitSession session_;
  Matrix unlabeled_;
};

/// PU-BG adapter (bagging SVM): flags a candidate when its aggregated
/// out-of-bag decision value leans toward the non-finished side (> 0).
class PuBgPredictor final : public StragglerPredictor {
 public:
  explicit PuBgPredictor(pu::PuBgParams params = {});
  std::string name() const override { return "PU-BG"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  pu::PuBgParams params_;
  FitSession session_;
  Matrix unlabeled_;
};

/// Linear Tobit adapter: all tasks enter the fit (finished uncensored,
/// running right-censored at τrun_t); flags when the latent prediction
/// reaches τstra.
class TobitPredictor final : public StragglerPredictor {
 public:
  explicit TobitPredictor(censored::TobitParams params = {});
  std::string name() const override { return "Tobit"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  censored::TobitParams params_;
  double tau_stra_ = 0.0;
  FitSession session_;
};

/// Grabit adapter: gradient boosting with the Tobit loss over the snapshot,
/// finished tasks exact and running ones right-censored at τrun; σ is set to
/// the stddev of the finished tasks' latencies. A fresh booster is fitted at
/// every checkpoint.
class GrabitPredictor final : public StragglerPredictor {
 public:
  explicit GrabitPredictor(ml::GbtParams params = {});
  std::string name() const override { return "Grabit"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  ml::GbtParams params_;
  double tau_stra_ = 0.0;
  FitSession session_;
  Matrix candidate_rows_;  ///< scored as one block; reused
};

/// CoxPH adapter: completion is the event; flags when the predicted
/// probability of surviving past τstra reaches 1/2.
class CoxPredictor final : public StragglerPredictor {
 public:
  explicit CoxPredictor(censored::CoxParams params = {});
  std::string name() const override { return "CoxPH"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  censored::CoxParams params_;
  double tau_stra_ = 0.0;
  FitSession session_;
};

/// Wrangler (Yadwadkar et al. 2014): the one privileged baseline — a random
/// 2/3 of the job's tasks (with their true labels, stragglers included) form
/// an offline training sample, stragglers are oversampled to balance, and a
/// linear SVM classifies the rest at every checkpoint. Mirrors §6 exactly.
/// The true labels arrive through the explicit OfflineSample capability the
/// harness grants to Privilege::kOfflineLabels methods. The training rows
/// are gathered afresh at every checkpoint.
class WranglerPredictor final : public StragglerPredictor {
 public:
  explicit WranglerPredictor(ml::SvmParams params = {},
                             double train_fraction = 2.0 / 3.0,
                             std::uint64_t seed = 97);
  std::string name() const override { return "Wrangler"; }
  Privilege privilege() const override { return Privilege::kOfflineLabels; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  ml::SvmParams params_;
  double train_fraction_;
  std::uint64_t seed_;
  std::vector<std::size_t> train_ids_;
  std::vector<int> labels_;
  Matrix x_;
  // Sample weights (straggler oversampling) are fixed per job; built on the
  // first non-degenerate fit.
  std::vector<double> y_;
  std::vector<double> w_;
};

}  // namespace nurd::core
