#include "index/uniform_grid.h"

#include "index/probe_order.h"

namespace psens {

UniformGridIndex::UniformGridIndex(const std::vector<Point>& points) {
  geo_ = GridGeometry::Layout(GridGeometry::BoundsOf(points), points.size());

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

}  // namespace psens
