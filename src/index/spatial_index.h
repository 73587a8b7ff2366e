#ifndef PSENS_INDEX_SPATIAL_INDEX_H_
#define PSENS_INDEX_SPATIAL_INDEX_H_

#include <vector>

#include "common/geometry.h"

namespace psens {

/// Spatial index over a set of 2-D points (the slot's sensor locations).
/// All query methods return *exactly* the same point set a brute-force
/// scan with the same predicate would return — interior pruning is
/// conservative and the final filter uses the same `Distance` /
/// `Rect::Contains` arithmetic as the valuation code — and results are
/// always sorted ascending by point index. Both properties together are
/// what lets the schedulers swap a full scan for an index probe without
/// changing a single selected sensor, payment, or tie-break
/// (see docs/ARCHITECTURE.md, "Spatial index layer").
///
/// Two grids implement it. `UniformGridIndex` (index/uniform_grid.h) is a
/// CSR grid built once from a point vector whose positions 0..n-1 are the
/// indices queries hand back; `BuildSlotContext` attaches one to every
/// built slot. `DynamicGridIndex` (index/dynamic_index.h) is keyed by
/// arbitrary non-negative ids and adds one batched mutator, `Apply`, so
/// the serving engine repairs it from each slot's churn instead of
/// rebuilding it.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Appends to `out` the indices (ascending) of all points p with
  /// Distance(p, center) <= radius. `out` is cleared first.
  virtual void RangeQuery(const Point& center, double radius,
                          std::vector<int>* out) const = 0;

  /// Appends to `out` the indices (ascending) of all points contained in
  /// `rect` (inclusive bounds, same as Rect::Contains). `out` is cleared
  /// first.
  virtual void RectQuery(const Rect& rect, std::vector<int>* out) const = 0;

  /// Human-readable implementation name ("uniform-grid" for the CSR grid,
  /// "dynamic-grid" for the engine's id-keyed grid).
  virtual const char* Name() const = 0;
};

}  // namespace psens

#endif  // PSENS_INDEX_SPATIAL_INDEX_H_
