#include "engine/adaptive_policy.h"

#include <algorithm>

namespace psens {

AdaptivePolicy::AdaptivePolicy(double slo_ms, GreedyEngine ceiling)
    : slo_ms_(slo_ms), ceiling_(ceiling) {}

double AdaptivePolicy::WorkUnits(GreedyEngine engine,
                                 const SlotFeatures& features) {
  const double q = std::max(1, features.queries);
  if (engine == GreedyEngine::kSieve) {
    // Delta path: bucket replays touch carried members + arrivals, both
    // bounded by churn, never the population.
    return std::max(1.0, (features.churn + 1) * q);
  }
  return std::max(1, features.members) * q;
}

GreedyEngine AdaptivePolicy::Choose(const SlotFeatures& features,
                                    double turnover_ms) const {
  const double budget = std::max(0.0, slo_ms_ - turnover_ms);
  // Optimistic first trial: lazy with no coefficient yet runs once so the
  // model learns it; mispredicting "free" forever would pin the policy
  // at the ceiling.
  if (ceiling_ == GreedyEngine::kLazy &&
      (!observed(GreedyEngine::kLazy) ||
       PredictMs(GreedyEngine::kLazy, features) <= kSafety * budget)) {
    return GreedyEngine::kLazy;
  }
  // The floor runs whether or not it fits: the SLO degrades quality, it
  // never skips a slot.
  return GreedyEngine::kSieve;
}

void AdaptivePolicy::Observe(GreedyEngine engine, const SlotFeatures& features,
                             double selection_ms) {
  const int idx = Rung(engine);
  if (selection_ms < 0.0) selection_ms = 0.0;
  const double per_unit = selection_ms / WorkUnits(engine, features);
  if (!seen_[idx]) {
    ms_per_unit_[idx] = per_unit;
    seen_[idx] = true;
    return;
  }
  ms_per_unit_[idx] = (1.0 - kAlpha) * ms_per_unit_[idx] + kAlpha * per_unit;
}

double AdaptivePolicy::PredictMs(GreedyEngine engine,
                                 const SlotFeatures& features) const {
  const int idx = Rung(engine);
  if (!seen_[idx]) return 0.0;
  return ms_per_unit_[idx] * WorkUnits(engine, features);
}

bool AdaptivePolicy::observed(GreedyEngine engine) const {
  return seen_[Rung(engine)];
}

}  // namespace psens
