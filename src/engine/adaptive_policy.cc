#include "engine/adaptive_policy.h"

#include <algorithm>

namespace psens {
namespace {

// Quality ladder from a given ceiling, best first. Lazy and eager are
// quality-identical, so neither appears below the other — a ceiling of
// either steps straight to the sieve.
int Ladder(GreedyEngine ceiling, GreedyEngine out[2]) {
  int n = 0;
  if (ceiling != GreedyEngine::kSieve) out[n++] = ceiling;
  out[n++] = GreedyEngine::kSieve;
  return n;
}

}  // namespace

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
  GreedyEngine ladder[2];
  const int n = Ladder(ceiling_, ladder);
  const double budget = std::max(0.0, slo_ms_ - turnover_ms);
  for (int i = 0; i < n; ++i) {
    const GreedyEngine e = ladder[i];
    // Optimistic first trial: an engine with no coefficient yet runs once
    // so the model learns it; mispredicting "free" forever would pin the
    // policy at the ceiling.
    if (!observed(e)) return e;
    if (PredictMs(e, features) <= kSafety * budget) return e;
  }
  // Nothing fits: run the floor anyway. The SLO degrades quality, it
  // never skips a slot.
  return ladder[n - 1];
}

void AdaptivePolicy::Observe(GreedyEngine engine, const SlotFeatures& features,
                             double selection_ms) {
  const int idx = static_cast<int>(engine);
  if (idx < 0 || idx >= kNumEngines) return;
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
  const int idx = static_cast<int>(engine);
  if (idx < 0 || idx >= kNumEngines || !seen_[idx]) return 0.0;
  return ms_per_unit_[idx] * WorkUnits(engine, features);
}

bool AdaptivePolicy::observed(GreedyEngine engine) const {
  const int idx = static_cast<int>(engine);
  return idx >= 0 && idx < kNumEngines && seen_[idx];
}

}  // namespace psens
