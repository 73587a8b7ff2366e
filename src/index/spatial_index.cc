#include "index/spatial_index.h"

#include <memory>

#include "core/slot.h"
#include "index/uniform_grid.h"

namespace psens {

void AttachSlotIndex(SlotContext& slot) {
  slot.index.reset();
  const size_t n = slot.sensors.size();
  if (slot.index_policy == SlotIndexPolicy::kNone || n == 0) return;
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(Point{slot.sensors.x[i], slot.sensors.y[i]});
  }
  slot.index = std::make_shared<UniformGridIndex>(points);
}

}  // namespace psens
