#ifndef PSENS_CORE_MULTI_SENSOR_POINT_QUERY_H_
#define PSENS_CORE_MULTI_SENSOR_POINT_QUERY_H_

#include <vector>

#include "core/multi_query.h"

namespace psens {

/// A multiple-sensor point query (Section 2.2.1): the application wants up
/// to `redundancy` readings of the phenomenon at one location — e.g. "to
/// assess the trustworthiness of a particular sensor", redundant
/// measurements are needed. The valuation generalizes Eq. (3):
///
///   v_q(S) = B_q * (sum of the top-k qualities among S) / k,
///
/// with k = `redundancy` and per-reading qualities theta(s, l_q) of
/// Eq. (4) filtered by theta_min. Monotone and submodular in S (adding a
/// sensor can only raise a top-k sum, with diminishing returns), so both
/// greedy Algorithm 1 and the local-search machinery apply.
class MultiSensorPointQuery : public MultiQueryBase {
 public:
  struct Params {
    int id = 0;
    Point location;
    double budget = 0.0;
    double theta_min = 0.2;
    /// Number of redundant readings wanted (k >= 1).
    int redundancy = 3;
  };

  MultiSensorPointQuery(const Params& params, const SlotContext* slot)
      : MultiQueryBase(params.id), params_(params), slot_(slot) {}

  double MarginalValue(int sensor) const override;
  /// Keyed probe: a key's quality is one load of the candidate quality
  /// cache. The committed qualities are sorted once per
  /// batch, and each key's top-k value comes from an O(k) merge of its
  /// quality into that shared order — the same non-increasing value
  /// sequence (and so the same floating-point sum) MarginalValue's
  /// copy+sort produces.
  void MarginalsAt(std::span<const int> keys,
                   std::span<double> out) const override;
  void Commit(int sensor, double payment) override;
  double MaxValue() const override { return params_.budget; }

  /// Sensors within dmax of the queried location (quality — and so the
  /// top-k valuation — is exactly zero beyond it), from SlotRowsInRange.
  const std::vector<int>* CandidateSensors() const override;

  void ResetSelection() override {
    MultiQueryBase::ResetSelection();
    qualities_.clear();
  }

  /// Qualities of the committed readings (unsorted).
  const std::vector<double>& qualities() const { return qualities_; }

  /// Number of readings still wanted to reach the redundancy target.
  int RemainingReadings() const;

  const Params& params() const { return params_; }

 private:
  /// Reading quality theta of `sensor` from its assembled row, filtered
  /// by theta_min: the reference MarginalValue and Commit use.
  double Quality(int sensor) const;
  /// Quality(sensor) computed straight from the slot's columns
  /// (bit-identical): what the candidate cache holds.
  double QualityFromColumns(int sensor) const;
  /// Valuation from a set of reading qualities (top-k mean scaled by B).
  double ValueFromQualities(std::vector<double> qualities) const;

  Params params_;
  const SlotContext* slot_;
  std::vector<double> qualities_;
  mutable std::vector<int> candidates_;
  mutable bool candidates_ready_ = false;
  /// Filtered quality theta per candidate (indexed by key, parallel to
  /// candidates_), computed once per slot binding — the quality depends
  /// only on (query, sensor), so keyed probes resolve against this cache.
  /// Same fill/read discipline as PointMultiQuery's candidate value cache.
  mutable std::vector<double> cand_theta_;
  /// Per-batch scratch: qualities_ sorted descending (see MarginalsAt).
  mutable std::vector<double> batch_sorted_;
};

}  // namespace psens

#endif  // PSENS_CORE_MULTI_SENSOR_POINT_QUERY_H_
