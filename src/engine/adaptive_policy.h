#ifndef PSENS_ENGINE_ADAPTIVE_POLICY_H_
#define PSENS_ENGINE_ADAPTIVE_POLICY_H_

#include "core/greedy.h"

namespace psens {

/// Latency-SLO scheduler selection (ServingConfig::slo_ms). Each slot,
/// AcquisitionEngine::Select asks the policy which engine to run given the
/// slot's features and how much of the budget the slot's turnover
/// already spent; after a lazy selection runs, Observe() feeds its
/// realized latency back into lazy's online cost model.
///
/// Cost model: one EWMA coefficient — milliseconds per "work unit", where
/// lazy's work units scale with members x queries (WorkUnits). PredictMs
/// is coefficient x units, so a single observation at one slot size
/// extrapolates to other sizes and the model tracks drift (thermal,
/// contention) through the EWMA.
///
/// Choose walks the quality ladder downward from the configured ceiling
///
///   lazy -> sieve   (a sieve ceiling is the sieve alone)
///
/// and returns lazy when its predicted cost fits inside a safety-factored
/// share of the remaining budget (slo_ms - turnover_ms). Lazy with no
/// observations yet is chosen optimistically — one trial seeds its
/// coefficient. Otherwise the ladder's floor (the sieve) runs, and it
/// runs whether or not it fits, so it needs no cost model: the SLO
/// degrades quality, never correctness. Recovery is symmetric — when a
/// spike passes, lazy's predicted cost falls back under budget and
/// Choose climbs the ladder again.
///
/// Determinism: Choose is a pure function of (features, turnover, the
/// observation history). Live runs feed wall-clock observations, so live
/// choices are machine-dependent — which is exactly why the chosen
/// engines are recorded per slot in version-2 traces and pinned on
/// replay (AcquisitionEngine::PinNextSelectEngine) instead of re-derived.
class AdaptivePolicy {
 public:
  /// Slot features the cost model predicts from.
  struct SlotFeatures {
    int members = 0;  ///< slot context size (announced, in-region sensors)
    int queries = 0;  ///< bound queries in the slot's batch
  };

  /// `ceiling` is the best engine the policy may pick (the configured
  /// ServingConfig::scheduler); the ladder runs from it down to kSieve.
  AdaptivePolicy(double slo_ms, GreedyEngine ceiling);

  /// Picks the engine for the next Select. `turnover_ms` is the measured
  /// ApplyDelta+BeginSlot time of this slot (0 when unknown).
  GreedyEngine Choose(const SlotFeatures& features, double turnover_ms) const;

  /// Feeds one realized lazy selection latency back into the coefficient
  /// (EWMA, alpha = kAlpha).
  void Observe(const SlotFeatures& features, double selection_ms);

  /// Predicted lazy selection cost on a slot shaped like `features`. 0
  /// until lazy has been observed once.
  double PredictMs(const SlotFeatures& features) const;

  bool observed() const { return seen_; }
  double slo_ms() const { return slo_ms_; }
  GreedyEngine ceiling() const { return ceiling_; }

  /// The feature->work mapping: lazy scales with members x queries.
  static double WorkUnits(const SlotFeatures& features);

  /// Fraction of the remaining budget a prediction must fit inside —
  /// headroom for prediction error before a deadline is actually missed.
  static constexpr double kSafety = 0.9;
  /// EWMA weight of the newest observation.
  static constexpr double kAlpha = 0.4;

 private:
  double slo_ms_;
  GreedyEngine ceiling_;
  double ms_per_unit_ = 0.0;
  bool seen_ = false;
};

}  // namespace psens

#endif  // PSENS_ENGINE_ADAPTIVE_POLICY_H_
