#ifndef PSENS_CORE_SIEVE_STREAMING_H_
#define PSENS_CORE_SIEVE_STREAMING_H_

#include <vector>

#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/slot.h"

namespace psens {

struct SensorDelta;

/// Sieve-streaming (Badanidiyuru et al.) selection for the Algorithm 1
/// objective sum_q delta-v - cost. Instead of ranking candidates round by
/// round, the sieve keeps a geometric grid of acceptance thresholds
///
///   tau_j = (1 + epsilon)^j,   epsilon * m <= tau_j <= m,
///
/// (m = the best single-sensor net seen so far) plus a tau = 0 floor
/// bucket, and streams candidates once per bucket in announcement order:
/// a sensor joins bucket j iff its net marginal against the bucket's
/// current selection is at least tau_j. The best bucket by realized
/// utility is committed with Algorithm 1's proportional payments, then a
/// refinement pass runs CELF-style greedy rounds from scratch over a
/// population-independent candidate pool — the union of all buckets'
/// members, a persistent "bench" of the best singleton-net candidates
/// ever streamed (capped at kRefineBenchSize), and a per-slot seeded
/// exploration sample of the candidate scan (kRefineSampleSize) — and
/// keeps whichever selection, winner replay or refined, realizes the
/// higher utility.
/// The bench recovers stream-order rejects with large singleton nets;
/// the sample tracks queries that moved since initialization (the
/// delta path only streams arrivals). The sample RNG seeds from the
/// engine-stamped slot seed, so replays reproduce it bit-for-bit.
///
/// Two modes:
///
///   - SieveStreamingSensorSelection / SelectFull: one slot, full stream.
///     Each bucket only streams candidates whose *single-sensor* net
///     reaches its threshold (an upper bound on any later marginal for
///     submodular valuations), so high-threshold buckets touch few
///     sensors.
///   - SelectDelta: the cross-slot mode. Bucket membership is keyed by
///     global sensor id and carried across slots; a churn delta is
///     absorbed by replaying each bucket's (small) member list against
///     the new slot context — departures drop out naturally, repriced
///     members are re-validated — and offering only the *arriving*
///     sensors to the thresholds. Per-slot valuation work is
///     O(buckets * (members + arrivals)), independent of the population,
///     where every exact engine pays at least one full candidate sweep.
///
/// Deterministic: the one RNG draw is the refinement's exploration
/// sample, seeded from the slot context's stamped ApproxSlotSeed, so
/// identical inputs (slot context bits, delta stream, slot seed) produce
/// identical selections.
class SieveStreamingScheduler {
 public:
  explicit SieveStreamingScheduler(const ApproxParams& params = {});

  /// (Re)initializes the sieve from the slot's full candidate stream and
  /// commits the winning bucket onto `queries`.
  SelectionResult SelectFull(const std::vector<MultiQuery*>& queries,
                             const SlotContext& slot,
                             const std::vector<double>* cost_scale = nullptr);

  /// Absorbs one churn delta: replays carried bucket members against the
  /// new slot context and offers the delta's arrivals (and moved sensors,
  /// which may have entered the working region) to every bucket. Falls
  /// back to SelectFull when the sieve has no state yet.
  SelectionResult SelectDelta(const std::vector<MultiQuery*>& queries,
                              const SlotContext& slot,
                              const SensorDelta& delta,
                              const std::vector<double>* cost_scale = nullptr);

  /// Same as SelectDelta with the arriving global sensor ids already
  /// extracted (the form tests drive directly).
  SelectionResult SelectArrivals(const std::vector<MultiQuery*>& queries,
                                 const SlotContext& slot,
                                 const std::vector<int>& arrival_ids,
                                 const std::vector<double>* cost_scale = nullptr);

  /// Global sensor ids of the last Select* call's committed selection:
  /// the winning bucket's members in acceptance order, or the
  /// refinement pass's picks in commit order when those realize more.
  /// Empty before the first call.
  const std::vector<int>& winner_members() const { return winner_members_; }

 private:
  struct Bucket {
    /// Threshold exponent: tau = (1 + epsilon)^exponent, or the tau = 0
    /// floor when `floor` is set.
    int exponent = 0;
    bool floor = false;
    /// Global sensor ids in acceptance order.
    std::vector<int> members;
  };

  double Tau(const Bucket& bucket) const;
  /// Extends the threshold grid to cover a new best single net `m`.
  void EnsureBuckets(double m);

  double epsilon_;
  double max_single_net_ = 0.0;
  bool initialized_ = false;
  std::vector<Bucket> buckets_;  // descending tau; floor bucket last
  std::vector<int> winner_members_;
  /// Refinement bench: the top streamed candidates by singleton net,
  /// (net, global id) sorted descending, capped — sensors no bucket
  /// accepted but whose singleton net says they belong in refinement
  /// contention.
  std::vector<std::pair<double, int>> bench_;
};

/// One-shot per-slot sieve selection, for callers without cross-slot
/// state (the serving engine keeps a SieveStreamingScheduler instead).
/// Equivalent to SieveStreamingScheduler(slot.approx).SelectFull(...).
SelectionResult SieveStreamingSensorSelection(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const std::vector<double>* cost_scale = nullptr);

}  // namespace psens

#endif  // PSENS_CORE_SIEVE_STREAMING_H_
