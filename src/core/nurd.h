// NURD — the paper's primary contribution (Algorithm 1).
//
// At each checkpoint t:
//   1. Train a latency predictor ht on finished tasks (negatives only).
//   2. Train a propensity-score model gt: P(finished by now | features),
//      a logistic regression on finished(1) vs running(0).
//   3. Reweight: ŷadj = ht(x) / max(ε, min(gt(x) + δ, 1)), where the
//      calibration term δ = 1/(1+ρ) − α is set once from the feature-space
//      centroid ratio ρ = ‖c_fin‖₂ / ‖c_run − c_fin‖₂ at the first
//      checkpoint (§4.2 "Calibration").
//   4. Flag task i as a straggler when ŷadj ≥ τstra; flagged tasks leave the
//      evaluation pool.
// Both models are refitted from the growing finished set at every
// checkpoint (§4.3 "Updating models online").
//
// NURD-NC is the ablation with w = z (no calibration term).
//
// Under the CheckpointView API the calibration happens at the FIRST view
// the predictor observes (the harness always starts at checkpoint 0) —
// calibrate() is idempotent and exposed so benches can calibrate against a
// chosen checkpoint explicitly. Featurization runs through the shared
// FitSession layer: under RefitPolicy::kFull both models refit from scratch
// on the session's seed-ordered blocks (bit-identical to the published
// Algorithm 1); under kIncremental ht keeps its ensemble and warm-starts
// extra rounds on the appended completions (skipping entirely when a
// checkpoint reveals none) and gt warm-starts Newton from the previous
// checkpoint's weights.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/matrix.h"
#include "core/fit_session.h"
#include "core/predictor.h"
#include "ml/gbt.h"
#include "ml/logistic.h"

namespace nurd::core {

/// NURD hyperparameters (§6: α = 0.5, ε = 0.05).
struct NurdParams {
  double alpha = 0.5;     ///< calibration range: δ ∈ (−α, α)
  double epsilon = 0.05;  ///< minimum positive weight ε
  bool calibrate = true;  ///< false ⇒ NURD-NC (w = z)
  /// Latency-model settings. Algorithm 1 refits ht at every checkpoint on
  /// the growing finished set, and those refits are the reproduction's hot
  /// path. The finished set is mostly below ml::kHistogramMinRows rows, so
  /// most refits run exact greedy, which sorts the block once per fit and
  /// then scans and partitions presorted orders; only large late blocks
  /// take the histogram backend.
  ml::GbtParams gbt;
  ml::LogisticParams propensity;  ///< PS-model settings
  /// Checkpoint refit strategy (see core/fit_session.h for the contract).
  RefitPolicy refit = RefitPolicy::kFull;
};

/// Online NURD predictor (one instance per job).
class NurdPredictor final : public StragglerPredictor {
 public:
  explicit NurdPredictor(NurdParams params = {});

  std::string name() const override {
    return params_.calibrate ? "NURD" : "NURD-NC";
  }

  void initialize(const JobContext& context) override;

  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

  /// Refit stage: replicates predict_stragglers' calibrate-then-guard-then-
  /// fit sequence; predict_stragglers detects the pre-fitted checkpoint and
  /// only scores.
  void refit_checkpoint(const trace::CheckpointView& view,
                        std::span<const std::size_t> candidates) override;

  /// Computes ρ and δ from `view`'s finished/running centroids (Algorithm 1
  /// lines 4–6). Called automatically on the first predicted view;
  /// idempotent afterwards.
  void calibrate(const trace::CheckpointView& view);

  /// Centroid ratio ρ computed at calibration (exposed for tests and the
  /// calibration ablation bench).
  double rho() const { return rho_; }

  /// Calibration term δ = 1/(1+ρ) − α.
  double delta() const { return delta_; }

  /// The final weight w = max(ε, min(z + δ, 1)) for a propensity z — the
  /// paper's Eq. 4 denominator. Exposed for tests.
  double weight(double propensity) const;

 private:
  /// The two models Algorithm 1 fits at a checkpoint: the latency predictor
  /// ht (null when no task has finished) and the propensity model gt (null
  /// when one class is empty). The pointees live in the predictor and stay
  /// valid until the next fit_models/initialize call — under kIncremental
  /// they are the SAME models being continued checkpoint to checkpoint.
  struct CheckpointModels {
    const ml::GradientBoosting* ht = nullptr;
    const ml::LogisticRegression* gt = nullptr;
  };

  /// Observes `view` through the FitSession and refits/continues ht and gt
  /// per the configured RefitPolicy. Cheap to repeat per checkpoint but not
  /// thread-safe across views.
  CheckpointModels fit_models(const trace::CheckpointView& view);

  NurdParams params_;
  double tau_stra_ = 0.0;
  bool calibrated_ = false;
  double rho_ = 1.0;
  double delta_ = 0.0;

  FitSession session_;
  GbtRefitState ht_;
  std::optional<ml::LogisticRegression> gt_;

  /// Checkpoint refit_checkpoint() last fitted (kNoCheckpoint otherwise):
  /// predict_stragglers for the same view reuses fitted_models_ instead of
  /// refitting.
  std::size_t fitted_checkpoint_ = trace::kNoCheckpoint;
  CheckpointModels fitted_models_;

  /// The checkpoint's candidate rows, gathered once and scored by both
  /// models; reused across checkpoints.
  Matrix candidate_rows_;
};

}  // namespace nurd::core
