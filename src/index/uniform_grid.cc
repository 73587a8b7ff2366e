#include "index/uniform_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/probe_order.h"

namespace psens {

UniformGridIndex::UniformGridIndex(const std::vector<Point>& points, double cell_size) {
  geo_ = GridGeometry::Layout(GridGeometry::BoundsOf(points), points.size(),
                              cell_size);

  // Counting sort into CSR; iterating points in index order keeps each
  // cell's item list ascending. Cell ids are computed once and cached —
  // the floor/clamp arithmetic is the build's hottest instruction.
  std::vector<int> cell_of(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    cell_of[i] = geo_.CellOf(points[i]);
  }
  cell_start_.assign(geo_.NumCells() + 1, 0);
  for (int c : cell_of) ++cell_start_[c + 1];
  for (size_t c = 1; c < cell_start_.size(); ++c) cell_start_[c] += cell_start_[c - 1];
  cell_items_.resize(points.size());
  xs_.resize(points.size());
  ys_.resize(points.size());
  std::vector<int> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (size_t i = 0; i < points.size(); ++i) {
    const int k = cursor[cell_of[i]]++;
    cell_items_[k] = static_cast<int>(i);
    xs_[k] = points[i].x;
    ys_[k] = points[i].y;
  }
}

void UniformGridIndex::RangeQuery(const Point& center, double radius,
                                  std::vector<int>* out) const {
  out->clear();
  if (cell_items_.empty() || radius < 0.0) return;
  const RangeFilter filter(center, radius);
  const double slack = filter.BoxSlack();
  const int cx0 = geo_.CellX(center.x - radius - slack);
  const int cx1 = geo_.CellX(center.x + radius + slack);
  const int cy0 = geo_.CellY(center.y - radius - slack);
  const int cy1 = geo_.CellY(center.y + radius + slack);
  for (int cy = cy0; cy <= cy1; ++cy) {
    const int row = cy * geo_.nx;
    for (int cx = cx0; cx <= cx1; ++cx) {
      const int c = row + cx;
      for (int k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
        if (filter.Accept(Point{xs_[k], ys_[k]})) {
          out->push_back(cell_items_[k]);
        }
      }
    }
  }
  SortProbeIds(out);
}

void UniformGridIndex::RectQuery(const Rect& rect, std::vector<int>* out) const {
  out->clear();
  if (cell_items_.empty()) return;
  if (rect.x_max < geo_.bounds.x_min || rect.x_min > geo_.bounds.x_max ||
      rect.y_max < geo_.bounds.y_min || rect.y_min > geo_.bounds.y_max) {
    return;
  }
  // Rect bounds feed the exact Contains filter verbatim; the cell range
  // covers every cell that can hold a contained point because the floor
  // arithmetic is monotone in the coordinate (same binning as the build).
  const int cx0 = geo_.CellX(rect.x_min);
  const int cx1 = geo_.CellX(rect.x_max);
  const int cy0 = geo_.CellY(rect.y_min);
  const int cy1 = geo_.CellY(rect.y_max);
  for (int cy = cy0; cy <= cy1; ++cy) {
    const int row = cy * geo_.nx;
    for (int cx = cx0; cx <= cx1; ++cx) {
      const int c = row + cx;
      for (int k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
        if (rect.Contains(Point{xs_[k], ys_[k]})) out->push_back(cell_items_[k]);
      }
    }
  }
  SortProbeIds(out);
}

int UniformGridIndex::Nearest(const Point& p) const {
  if (cell_items_.empty()) return -1;
  const int pcx = geo_.CellX(p.x);
  const int pcy = geo_.CellY(p.y);
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  const int max_ring = std::max(geo_.nx, geo_.ny);
  for (int ring = 0; ring <= max_ring; ++ring) {
    bool any_cell_in_range = false;
    for (int cy = pcy - ring; cy <= pcy + ring; ++cy) {
      if (cy < 0 || cy >= geo_.ny) continue;
      for (int cx = pcx - ring; cx <= pcx + ring; ++cx) {
        if (cx < 0 || cx >= geo_.nx) continue;
        // Only the ring's perimeter; the interior was handled earlier.
        if (ring > 0 && std::abs(cx - pcx) != ring && std::abs(cy - pcy) != ring)
          continue;
        // <= so that an equal-distance, lower-index point is still found.
        if (geo_.CellMinDist2(p, cx, cy) > best_d2) continue;
        any_cell_in_range = true;
        const int c = cy * geo_.nx + cx;
        for (int k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
          const double dx = xs_[k] - p.x;
          const double dy = ys_[k] - p.y;
          const double d2 = dx * dx + dy * dy;
          const int i = cell_items_[k];
          if (d2 < best_d2 || (d2 == best_d2 && i < best)) {
            best_d2 = d2;
            best = i;
          }
        }
      }
    }
    if (best >= 0 && !any_cell_in_range && ring > 0) break;
  }
  return best;
}

double UniformGridIndex::OccupiedCellFraction() const {
  const size_t total = geo_.NumCells();
  if (total == 0) return 0.0;
  size_t occupied = 0;
  for (size_t c = 0; c + 1 < cell_start_.size(); ++c) {
    if (cell_start_[c + 1] > cell_start_[c]) ++occupied;
  }
  return static_cast<double>(occupied) / static_cast<double>(total);
}

}  // namespace psens
