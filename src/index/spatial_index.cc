#include "index/spatial_index.h"

#include <memory>
#include <utility>

#include "core/slot.h"
#include "index/kd_tree.h"
#include "index/uniform_grid.h"

namespace psens {

std::unique_ptr<SpatialIndex> BuildUniformGridIndex(const std::vector<Point>& points,
                                                    double cell_size) {
  return std::make_unique<UniformGridIndex>(points, cell_size);
}

std::unique_ptr<SpatialIndex> BuildKdTreeIndex(const std::vector<Point>& points) {
  return std::make_unique<KdTreeIndex>(points);
}

std::unique_ptr<SpatialIndex> BuildSpatialIndexAuto(const std::vector<Point>& points) {
  // Building the grid is O(n) — cheap enough to double as the density
  // probe. Keep it when enough cells are occupied; otherwise the points
  // are clustered and the k-d tree's adaptive splits pay off.
  auto grid = std::make_unique<UniformGridIndex>(points);
  if (grid->OccupiedCellFraction() >= kGridOccupancyThreshold) return grid;
  return std::make_unique<KdTreeIndex>(points);
}

void AttachSlotIndex(SlotContext& slot) {
  slot.index.reset();
  if (slot.index_policy == SlotIndexPolicy::kNone) return;
  const int n = static_cast<int>(slot.sensors.size());
  if (slot.index_policy == SlotIndexPolicy::kAuto && n < slot.index_auto_threshold)
    return;
  if (n == 0) return;
  std::vector<Point> points;
  points.reserve(slot.sensors.size());
  for (int i = 0; i < n; ++i) {
    points.push_back(Point{slot.sensors.x[i], slot.sensors.y[i]});
  }
  switch (slot.index_policy) {
    case SlotIndexPolicy::kGrid:
      slot.index = BuildUniformGridIndex(points);
      break;
    case SlotIndexPolicy::kKdTree:
      slot.index = BuildKdTreeIndex(points);
      break;
    case SlotIndexPolicy::kAuto:
      slot.index = BuildSpatialIndexAuto(points);
      break;
    case SlotIndexPolicy::kNone:
      break;  // handled above
  }
}

}  // namespace psens
