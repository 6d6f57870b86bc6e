// The unified online straggler-prediction interface. Every method in the
// paper's Table 3 — NURD, NURD-NC, and the 21 baselines — implements this
// interface, so the evaluation harness, scheduler simulations, and benches
// treat them identically.
//
// Protocol (paper §2 and §7.1): the harness walks a job's checkpoints in
// order and asks the predictor which of the not-yet-flagged running tasks
// will straggle. A task flagged positive is never asked about again; a task
// predicted negative is re-evaluated while it remains running.
//
// Observation discipline: a predictor sees a job only through
//   * JobContext at initialize() — static metadata plus, for methods that
//     explicitly declare the privilege, an OfflineSample capability; and
//   * trace::CheckpointView at each predict_stragglers() call — the exact
//     state observable at that horizon (finished latencies revealed,
//     running latencies hidden by construction).
// The seed interface handed every method the whole materialized Job and
// relied on convention; here the type system enforces it. Wrangler's
// privileged offline sample (its published protocol, §6) is the one
// sanctioned exception, granted as an explicit capability the harness can
// audit rather than a loophole.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/checkpoint_view.h"

namespace nurd::core {

/// The privileged offline capability: true straggler labels for the whole
/// job, available before execution. Only Wrangler's protocol uses it; the
/// harness constructs it solely for predictors declaring
/// Privilege::kOfflineLabels.
class OfflineSample {
 public:
  explicit OfflineSample(std::vector<int> straggler_labels)
      : labels_(std::move(straggler_labels)) {}

  /// True straggler labels (1 = straggler) at the protocol's fixed p90
  /// threshold (the harness builds them with straggler_labels(90.0)
  /// regardless of the evaluation percentile).
  std::span<const int> labels() const { return labels_; }
  std::size_t task_count() const { return labels_.size(); }

 private:
  std::vector<int> labels_;
};

/// What a predictor is allowed to observe beyond the online stream.
enum class Privilege {
  kOnline,         ///< checkpoint views only (every method but one)
  kOfflineLabels,  ///< + OfflineSample at initialize (Wrangler, §6)
};

/// Per-job static context handed to initialize(). Deliberately free of
/// feature or latency data: everything dynamic arrives via CheckpointView.
struct JobContext {
  std::string_view job_id;
  std::size_t task_count = 0;
  std::size_t feature_count = 0;
  std::size_t checkpoint_count = 0;
  double tau_stra = 0.0;  ///< operator straggler threshold (p90 in the paper)
  /// Non-null only for predictors whose privilege() is kOfflineLabels.
  const OfflineSample* offline = nullptr;
};

/// Stateful per-job online predictor. Create one instance per job (via
/// PredictorFactory); the harness calls initialize() once and then
/// predict_stragglers() with each checkpoint's view in ascending order.
///
/// Thread-safety and ordering contract (relied on by eval::run_method and
/// serve::ShardedMonitor alike):
///   * an instance is NOT thread-safe — it is confined to one job and
///     driven by one thread at a time, with no exceptions. Concurrency comes
///     from many instances on many jobs, never from sharing one;
///   * initialize() happens-before the first predict_stragglers(), and
///     views arrive strictly in ascending checkpoint order with no gaps —
///     the serving layer's executor runs one checkpoint of a job at a time,
///     so checkpoint t+1 never observes state newer than t's model;
///   * a driver may hand the instance between threads across checkpoints
///     (a checkpoint can run on any executor lane) as long as the hand-off
///     synchronizes (the executor's lock does), so implementations must
///     not cache thread-local state across calls;
///   * predictions must be a deterministic function of the views observed
///     so far (all randomness from explicit seeds) — this is what makes a
///     concurrent serving run's flag set bit-identical to the serialized
///     one.
class StragglerPredictor {
 public:
  virtual ~StragglerPredictor() = default;

  /// Method name as printed in Table 3 (e.g. "NURD", "Grabit").
  virtual std::string name() const = 0;

  /// Declared observation privilege; the harness grants capabilities
  /// accordingly. Default: strictly online.
  virtual Privilege privilege() const { return Privilege::kOnline; }

  /// Called once before the first checkpoint.
  virtual void initialize(const JobContext& context) = 0;

  /// Returns the subset of `candidates` (running, not yet flagged) predicted
  /// to straggle at the viewed checkpoint.
  virtual std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) = 0;

  // ---- stage hooks (eval::OnlineJobRun's featurize and refit stages) ------
  // A checkpoint runs as featurize → refit → predict → flag, back to back.
  // A predictor may split its work so that refit_checkpoint(t) updates the
  // models and predict_stragglers(t) then only scores; the split must be
  // semantics-preserving: refit → predict yields bit-identical flags to
  // calling predict_stragglers alone, including the skip guards (which is
  // why refit_checkpoint receives the candidate set — guards like "no
  // finished tasks or no candidates ⇒ don't touch the models" must fire
  // identically on both paths). Predictors that do not split keep the
  // defaults and do all their work in predict_stragglers.

  /// No predictor in src/ overrides this; it stays, with its default,
  /// because the repository benchmark's timing wrapper (nurd_bench's
  /// TimedPredictor) overrides it.
  virtual bool staged() const { return false; }

  /// (Featurize stage) No predictor in src/ overrides this — featurization
  /// happens inside refit_checkpoint (FitSession::observe). The default
  /// no-op stays because nurd_bench's TimedPredictor overrides it to time
  /// the featurize stage.
  virtual void featurize_checkpoint(const trace::CheckpointView& view) {
    (void)view;
  }

  /// (Refit stage) Featurizes and refits the models exactly as
  /// predict_stragglers(view, candidates) would have. A following
  /// predict_stragglers call with the same view must not refit again.
  virtual void refit_checkpoint(const trace::CheckpointView& view,
                                std::span<const std::size_t> candidates) {
    (void)view;
    (void)candidates;
  }
};

/// Factory producing a fresh predictor per job. Factories are immutable
/// after construction and safe to invoke from any thread concurrently (the
/// harness and the serving layer both call make() from pool lanes); only
/// the instances they produce are single-threaded.
using PredictorFactory =
    std::function<std::unique_ptr<StragglerPredictor>()>;

/// A named factory, the registry currency.
struct NamedPredictor {
  std::string name;
  PredictorFactory make;
};

}  // namespace nurd::core
