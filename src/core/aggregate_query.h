#ifndef PSENS_CORE_AGGREGATE_QUERY_H_
#define PSENS_CORE_AGGREGATE_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "core/multi_query.h"

namespace psens {

/// Spatial-aggregate query (Section 2.2.2) with the example valuation of
/// Eq. (5):
///
///   v_q(S) = B_q * G_q(S) * (sum_{s in S} theta_s) / |S|,
///
/// where G_q is the fraction of the query's cells covered by the selected
/// sensors' sensing disks and theta_s = (1 - gamma_s) * tau_s is the
/// sensor's location-independent reading quality. The mean-quality factor
/// makes the valuation non-submodular and non-monotone (Section 3.2),
/// which is why the paper schedules these queries with greedy Algorithm 1
/// rather than the local-search approximation.
///
/// Queries over trajectories (Section 2.2.3) are the same valuation with
/// the coverage computed over the cells near the trajectory. The two
/// constructors differ only in which cells they rasterize and how they
/// bind sensors to them; everything after binding is shared.
class AggregateQuery : public MultiQueryBase {
 public:
  struct Params {
    int id = 0;
    Rect region;
    double budget = 0.0;
    /// Sensing range of a sensor (disk radius), Section 4.4 sets 10 units.
    double sensing_range = 10.0;
    /// Rasterization cell size for the coverage function.
    double cell_size = 2.0;
  };

  /// A query over a trajectory: its cells are those of the trajectory's
  /// bounding box, grown by `corridor`, whose centers lie within
  /// `corridor` of the polyline.
  struct TrajectoryParams {
    int id = 0;
    Trajectory trajectory;
    double budget = 0.0;
    double sensing_range = 10.0;
    double cell_size = 2.0;
    /// Half-width of the corridor of interest around the trajectory.
    double corridor = 2.0;
  };

  /// Largest rasterization grid (columns x rows) a region query may ask
  /// for. In-repo workloads build at most 2,500 cells. The region
  /// constructor assumes finite params, a positive cell size, a
  /// non-negative range, an uninverted region and a grid within this cap;
  /// trace decode refuses replayed records that break any of these.
  static constexpr int kMaxCells = 1 << 20;

  /// Binds the query to the slot: precomputes each candidate sensor's
  /// covered-cell bitset, testing only the cells inside the exact
  /// per-axis window its disk can reach. Sensors whose disk misses the
  /// region entirely are not candidates.
  AggregateQuery(const Params& params, const SlotContext& slot);
  /// Binds a trajectory query: each sensor near the corridor tests every
  /// corridor cell.
  AggregateQuery(const TrajectoryParams& params, const SlotContext& slot);

  /// Sensor-addressed reference probe; the sensor's candidate ordinal
  /// comes from a binary search over candidates_ (as in Commit and
  /// ValueOf).
  double MarginalValue(int sensor) const override;
  /// Keyed sweep over the precomputed coverage bitsets: one virtual call
  /// per batch instead of per sensor. A key *is* the candidate ordinal.
  ///
  /// The sweep memoizes each candidate's delta in cached_at_ /
  /// cached_delta_ under state_version_, which every Commit and
  /// ResetSelection bumps. A hit replays the exact double this kernel
  /// computed under identical inputs (acc_mask_, theta_sum_, |S| and the
  /// current value are all unchanged since the stamp), so served values
  /// are bit-identical to recomputation; valuation-call accounting is
  /// external (the round evaluator) and does not observe hits. In a joint
  /// greedy round only the queries the last commit touched recompute.
  void MarginalsAt(std::span<const int> keys,
                   std::span<double> out) const override;
  void Commit(int sensor, double payment) override;
  double MaxValue() const override { return budget_; }

  /// Sensors whose sensing disk covers at least one of the query's cells
  /// (marginal value is exactly zero for all others).
  const std::vector<int>* CandidateSensors() const override;

  void ResetSelection() override;

  /// Coverage G(S) in [0, 1] for the current selection.
  double CurrentCoverage() const;

  /// Value of an arbitrary sensor set (non-incremental; used by the
  /// baseline and tests).
  double ValueOf(const std::vector<int>& sensors) const;

 private:
  /// Shared bind tail: every slot row inside `reach` (a rect no covering
  /// sensor lies outside) whose `cover(location, mask)` sets a bit in its
  /// zeroed NumWords()-word mask becomes the next candidate ordinal.
  template <typename Cover>
  void BindCandidates(const SlotContext& slot, const Rect& reach,
                      const Cover& cover);
  int NumWords() const { return static_cast<int>((num_cells_ + 63) / 64); }
  const uint64_t* MaskOf(int ord) const {
    return mask_words_.data() +
           static_cast<size_t>(ord) * static_cast<size_t>(NumWords());
  }
  double ValueFrom(int covered_cells, double theta_sum, int count) const;

  double budget_ = 0.0;
  int num_cells_ = 0;
  /// Coverage masks in one flat word slab, NumWords() words per candidate
  /// ordinal, so a keyed probe reads one contiguous word run. All bind
  /// state is candidate-sized: nothing here spans the slot membership.
  std::vector<uint64_t> mask_words_;
  /// Per candidate ordinal: the sensor's theta (filled beside candidates_).
  std::vector<double> theta_;
  /// Sensors with non-empty masks, ascending; position = ordinal.
  std::vector<int> candidates_;

  // Incremental selection state.
  std::vector<uint64_t> acc_mask_;
  int covered_cells_ = 0;
  double theta_sum_ = 0.0;

  /// Round-delta memo of the keyed kernel (MarginalValue, the counted
  /// reference, recomputes every probe); see MarginalsAt.
  uint64_t state_version_ = 1;
  mutable std::vector<uint64_t> cached_at_;
  mutable std::vector<double> cached_delta_;
};

}  // namespace psens

#endif  // PSENS_CORE_AGGREGATE_QUERY_H_
