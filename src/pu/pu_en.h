// PU learning, Elkan & Noto (2008), adapted to the negative-unlabeled
// straggler setting (paper §3.3). The classical method assumes the labeled
// set is a random sample of the positive class; here the labeled set is the
// *negative* class (finished tasks), so roles are swapped: the
// "nontraditional" classifier estimates P(labeled|x) = P(finished-by-now|x),
// the calibration constant c = E[g(x) | labeled] corrects for incomplete
// labeling, and a task is predicted to straggle when the calibrated
// probability of belonging to the labeled (finished) class falls below 1/2.
//
// The paper notes this method's core assumption — labels independent of
// features given the class — is violated for stragglers (only *fast*
// non-stragglers are labeled early), which is exactly why it underperforms
// NURD; we reproduce the method faithfully, violation included.
#pragma once

#include <vector>

#include "common/matrix.h"
#include "ml/gbt.h"

namespace nurd::pu {

/// Elkan–Noto hyperparameters.
struct PuEnParams {
  ml::GbtParams gbt;          ///< nontraditional classifier settings
  double holdout_fraction = 0.2;  ///< labeled fraction reserved to estimate c
  std::uint64_t seed = 29;
};

/// Elkan–Noto PU classifier over a boosted logistic base learner.
class PuElkanNoto {
 public:
  explicit PuElkanNoto(PuEnParams params = {});

  /// Hyperparameters this model was constructed with.
  const PuEnParams& params() const { return params_; }

  /// Fits on labeled rows (the known class) and unlabeled rows (mixture).
  void fit(const Matrix& labeled, const Matrix& unlabeled);

  /// Calibrated probability that each row of `rows` belongs to the labeled
  /// class, g(x)/c clipped to [0,1]; the rows are scored as one block.
  std::vector<double> prob_labeled_class(const Matrix& rows) const;

  /// Estimated label frequency c = E[g(x)|labeled].
  double c_estimate() const { return c_; }

  bool fitted() const { return fitted_; }

 private:
  PuEnParams params_;
  ml::GradientBoosting clf_;
  double c_ = 1.0;
  bool fitted_ = false;
};

}  // namespace nurd::pu
