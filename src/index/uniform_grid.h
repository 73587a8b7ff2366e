#ifndef PSENS_INDEX_UNIFORM_GRID_H_
#define PSENS_INDEX_UNIFORM_GRID_H_

#include <vector>

#include "index/grid_geometry.h"
#include "index/spatial_index.h"

namespace psens {

/// Uniform bucket grid over the points' bounding box, stored CSR-style
/// (cell offsets + one flat index array). Coordinates are duplicated into
/// flat arrays in cell order, so probe scans read contiguous memory
/// instead of chasing the original point array — the difference between
/// cache hits and misses on 100k+ populations. Point indices within a
/// cell are ascending by construction (counting sort), so per-cell scans
/// emit candidates in index order and only the cross-cell merge needs a
/// final sort. Binning and pruning arithmetic is shared with the dynamic
/// grid (index/grid_geometry.h).
class UniformGridIndex : public SpatialIndex {
 public:
  explicit UniformGridIndex(const std::vector<Point>& points);

  void RangeQuery(const Point& center, double radius,
                  std::vector<int>* out) const override;
  void RectQuery(const Rect& rect, std::vector<int>* out) const override;
  const char* Name() const override { return "uniform-grid"; }

 private:
  GridGeometry geo_;
  std::vector<int> cell_start_;  // nx*ny + 1 CSR offsets
  std::vector<int> cell_items_;  // point indices, ascending per cell
  std::vector<double> xs_;       // coordinates in cell_items_ order
  std::vector<double> ys_;
};

}  // namespace psens

#endif  // PSENS_INDEX_UNIFORM_GRID_H_
