#include "engine/adaptive_policy.h"

#include <algorithm>

namespace psens {

AdaptivePolicy::AdaptivePolicy(double slo_ms, GreedyEngine ceiling)
    : slo_ms_(slo_ms), ceiling_(ceiling) {}

double AdaptivePolicy::WorkUnits(const SlotFeatures& features) {
  const double q = std::max(1, features.queries);
  return std::max(1, features.members) * q;
}

GreedyEngine AdaptivePolicy::Choose(const SlotFeatures& features,
                                    double turnover_ms) const {
  const double budget = std::max(0.0, slo_ms_ - turnover_ms);
  // Optimistic first trial: lazy with no coefficient yet runs once so the
  // model learns it; mispredicting "free" forever would pin the policy
  // at the ceiling.
  if (ceiling_ == GreedyEngine::kLazy &&
      (!seen_ || PredictMs(features) <= kSafety * budget)) {
    return GreedyEngine::kLazy;
  }
  // The floor runs whether or not it fits: the SLO degrades quality, it
  // never skips a slot.
  return GreedyEngine::kSieve;
}

void AdaptivePolicy::Observe(const SlotFeatures& features,
                             double selection_ms) {
  if (selection_ms < 0.0) selection_ms = 0.0;
  const double per_unit = selection_ms / WorkUnits(features);
  if (!seen_) {
    ms_per_unit_ = per_unit;
    seen_ = true;
    return;
  }
  ms_per_unit_ = (1.0 - kAlpha) * ms_per_unit_ + kAlpha * per_unit;
}

double AdaptivePolicy::PredictMs(const SlotFeatures& features) const {
  if (!seen_) return 0.0;
  return ms_per_unit_ * WorkUnits(features);
}

}  // namespace psens
