#ifndef PSENS_ENGINE_ADAPTIVE_POLICY_H_
#define PSENS_ENGINE_ADAPTIVE_POLICY_H_

#include "core/greedy.h"

namespace psens {

/// Latency-SLO scheduler selection (ServingConfig::slo_ms). Each slot,
/// AcquisitionEngine::Select asks the policy which engine to run given the
/// slot's features and how much of the budget the slot's turnover
/// already spent; after the selection runs, Observe() feeds the realized
/// latency back into a per-engine online cost model.
///
/// Cost model: one EWMA coefficient per engine — milliseconds per "work
/// unit", where an engine's work units scale the way its algorithm does
/// (full-sweep engines with members x queries, the sieve with
/// churn x queries; see WorkUnits). PredictMs is coefficient x units, so
/// a single observation at one slot size extrapolates to other sizes and
/// the model tracks drift (thermal, contention) through the EWMA.
///
/// Choose walks the quality ladder downward from the configured ceiling
///
///   lazy/eager -> sieve
///
/// and returns the first engine whose predicted cost fits inside a
/// safety-factored share of the remaining budget (slo_ms - turnover_ms).
/// An engine with no observations yet is chosen optimistically the first
/// time it is reached — one trial seeds its coefficient. When nothing
/// fits, the ladder's floor (the sieve) runs anyway: the SLO degrades
/// quality, never correctness. Recovery is symmetric — when a spike
/// passes, the predicted cost of higher-quality engines falls back under
/// budget and Choose climbs the ladder again.
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
    int churn = 0;    ///< delta entries absorbed this slot
    int queries = 0;  ///< bound queries in the slot's batch
  };

  /// `ceiling` is the best engine the policy may pick (the configured
  /// ServingConfig::scheduler); the ladder runs from it down to kSieve.
  AdaptivePolicy(double slo_ms, GreedyEngine ceiling);

  /// Picks the engine for the next Select. `turnover_ms` is the measured
  /// ApplyDelta+BeginSlot time of this slot (0 when unknown).
  GreedyEngine Choose(const SlotFeatures& features, double turnover_ms) const;

  /// Feeds one realized selection latency back into `engine`'s
  /// coefficient (EWMA, alpha = kAlpha).
  void Observe(GreedyEngine engine, const SlotFeatures& features,
               double selection_ms);

  /// Predicted selection cost of `engine` on a slot shaped like
  /// `features`. 0 until the engine has been observed once.
  double PredictMs(GreedyEngine engine, const SlotFeatures& features) const;

  bool observed(GreedyEngine engine) const;
  double slo_ms() const { return slo_ms_; }
  GreedyEngine ceiling() const { return ceiling_; }

  /// The feature->work mapping per engine: the full-sweep engines (eager,
  /// lazy) scale with members x queries; the sieve's delta path scales
  /// with (churn + 1) x queries, independent of population.
  static double WorkUnits(GreedyEngine engine, const SlotFeatures& features);

  /// Fraction of the remaining budget a prediction must fit inside —
  /// headroom for prediction error before a deadline is actually missed.
  static constexpr double kSafety = 0.9;
  /// EWMA weight of the newest observation.
  static constexpr double kAlpha = 0.4;

 private:
  /// Indexed by the GreedyEngine value (kSieve = 3; slot 2 stays unused).
  static constexpr int kNumEngines = 4;

  double slo_ms_;
  GreedyEngine ceiling_;
  double ms_per_unit_[kNumEngines] = {0.0, 0.0, 0.0, 0.0};
  bool seen_[kNumEngines] = {false, false, false, false};
};

}  // namespace psens

#endif  // PSENS_ENGINE_ADAPTIVE_POLICY_H_
