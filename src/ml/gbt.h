// Gradient boosting over regression trees with a pluggable second-order
// loss. This single engine provides:
//   * GBTR (squared loss)            — the paper's supervised baseline and
//                                      NURD's latency predictor ht
//   * boosted logistic classifier    — XGBOD / PU-EN base learner
//   * Grabit (Tobit loss)            — censored-regression baseline
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "ml/loss.h"
#include "ml/tree.h"

namespace nurd::ml {

/// Fits with at least this many rows use the histogram backend; smaller ones
/// use exact greedy.
inline constexpr std::size_t kHistogramMinRows = 256;

/// Boosting hyperparameters (tree params embedded). At histogram scale (see
/// kHistogramMinRows) fit() quantile-bins every feature once into
/// `tree.max_bins` bins and shares the binning across all boosting rounds.
struct GbtParams {
  int n_rounds = 50;
  double learning_rate = 0.1;
  TreeParams tree;
  std::uint64_t seed = 7;  ///< seeds continue_fit()'s anchor-row sampling
  /// Retain warm-start state across fits: the per-row training scores, the
  /// feature binner (edges frozen at the first histogram-scale fit), and the
  /// anchor-sampling RNG, so continue_fit() can extend the ensemble on grown
  /// data instead of refitting from scratch. Costs O(n) doubles + the binner;
  /// leave off (the default) for one-shot fits — fit() itself is
  /// bit-identical either way.
  bool warm_start = false;
  /// Step-size factor for continue_fit() rounds relative to learning_rate
  /// (capped at 0.5 absolute). A damped rate recovers a moved row's residual
  /// only as 1−(1−rate)^rounds, so this is the knob that balances a warm
  /// continuation's tail tracking against overshoot — tuned per dataset
  /// through RegistryConfig so the warm path's macro-F1 stays within 0.01
  /// of the full-refit reference (bench_refit --check). At the default 1.0,
  /// fit(a)+continue_fit(b) on unchanged data is bit-identical to fit(a+b).
  double warm_rate_factor = 1.0;
};

/// Newton-boosted tree ensemble. Fit once; predict is const and thread-safe.
class GradientBoosting {
 public:
  /// Constructs with a loss (owned) and hyperparameters.
  GradientBoosting(std::unique_ptr<Loss> loss, GbtParams params);

  /// Convenience: squared-loss regressor.
  static GradientBoosting regressor(GbtParams params = {});

  /// Convenience: logistic-loss classifier (predict() returns probability).
  static GradientBoosting classifier(GbtParams params = {});

  /// Convenience: Tobit-loss (Grabit) regressor with latent scale sigma.
  static GradientBoosting grabit(double sigma, GbtParams params = {});

  /// Fits the ensemble to rows of `x` with targets (value + censoring flag).
  void fit(const Matrix& x, std::span<const Target> targets);

  /// Fits with plain values (no censoring) — regression/classification path.
  void fit(const Matrix& x, std::span<const double> y);

  /// Warm-start continuation (requires params.warm_start and a prior fit):
  /// keeps every existing tree and boosts `rounds` more on the current data.
  /// Targets are plain (uncensored) values: only the squared-loss
  /// finished-block learners continue. Rows of `x` must be the previous
  /// fit's rows, unchanged and in their old relative order, with the new
  /// rows at the strictly ascending positions `inserted_rows`, which must
  /// list every new row (a tail append lists the tail). Inserted rows are
  /// binned against the frozen edges and pass through the ensemble once;
  /// every other row's bins and cached score are remapped over. A cached
  /// score catches up on the trees it missed only when its row is next read
  /// (see boost). Targets may change freely between calls (each round
  /// recomputes gradients).
  /// `rounds == 0` just absorbs the new rows.
  ///
  /// Continuation rounds run at warm_rate_factor × learning_rate (capped at
  /// 0.5): the rows a continuation must absorb are exactly the
  /// just-revealed latency tail that the flag threshold reads, so the
  /// continuation trades a little of full boosting's shrinkage for a tail
  /// that tracks the reference refit much more closely.
  void continue_fit(const Matrix& x, std::span<const double> y, int rounds,
                    std::span<const std::size_t> inserted_rows = {});

  /// Transformed prediction for one row (identity for regression, probability
  /// for logistic). The row must be as wide as the fitted matrix.
  double predict(std::span<const double> row) const;

  /// Transformed predictions for every row of `x`, which must be as wide as
  /// the fitted matrix; bitwise equal to predict() row by row. Scores the
  /// block tree by tree, the fast way to score many rows.
  std::vector<double> predict(const Matrix& x) const;

  /// Raw (untransformed) boosted score for one row.
  double predict_raw(std::span<const double> row) const;

  /// Number of boosting rounds actually fitted.
  std::size_t tree_count() const { return trees_.size(); }

  /// Rows covered by the last fit/continue_fit (0 unless warm_start): the
  /// warm-start bookkeeping callers use to detect "the training block grew
  /// since this model last saw it".
  std::size_t trained_rows() const { return n_trained_; }

  /// Rows covered by the last FULL fit() (0 unless warm_start). Warm-start
  /// policies use this for geometric refresh: once the data has grown well
  /// past the ensemble's from-scratch foundation (say 2x), a fresh fit costs
  /// amortized O(1) per checkpoint and clears accumulated early-data bias.
  std::size_t full_fit_rows() const { return n_full_fit_; }

  /// Training loss trajectory is not retained; this reports the base score.
  double base_score() const { return base_score_; }

  bool fitted() const { return fitted_; }

 private:
  /// The shared boosting loop: `rounds` gradient/tree/score iterations at
  /// step size `rate`, appending to trees_ (each tree remembers its own rate
  /// in tree_rate_). With `subset` empty every round trains on all rows of
  /// `x` and updates every row's score (fit()'s path, and a whole-block
  /// continuation); with a non-empty `subset` the rounds are active-set
  /// continuations: gradients, tree fits and score updates cover the subset
  /// only, and continue_fit() catches the other rows up when they are next
  /// read. Either way a row's score update reads the leaf value the tree
  /// wrote for it while growing (RegressionTree::fit's leaf_value_of_row),
  /// not a predict() per row. A null `binner` selects exact greedy trees, a
  /// non-null one histogram trees.
  /// Exact greedy presorts the training rows once per call
  /// (RegressionTree::presort) and every round's tree scans those orders.
  void boost(const Matrix& x, std::span<const Target> targets, int rounds,
             double rate, std::vector<double>& score,
             const FeatureBinner* binner,
             std::span<const std::size_t> subset = {});

  std::unique_ptr<Loss> loss_;
  GbtParams params_;
  std::vector<RegressionTree> trees_;
  /// Per-tree step size. fit() trees all carry params.learning_rate;
  /// continue_fit() trees carry the continuation rate (see continue_fit),
  /// so the two can coexist in one ensemble.
  std::vector<double> tree_rate_;
  double base_score_ = 0.0;
  std::size_t n_features_ = 0;  ///< columns of the fitted matrix
  bool fitted_ = false;

  // Warm-start state, retained only when params_.warm_start.
  std::vector<double> train_score_;      ///< cached raw score per training row
  std::optional<FeatureBinner> binner_;  ///< frozen-edge binner
  Rng rng_{0};                           ///< anchor sampling; fit() reseeds
  std::size_t n_trained_ = 0;            ///< rows covered by the last fit
  std::size_t n_full_fit_ = 0;           ///< rows covered by the last fit()

  /// Trees folded into each row's train_score_; continue_fit() adds the rest
  /// when the row is next read.
  std::vector<std::size_t> trees_scored_;
};

}  // namespace nurd::ml
