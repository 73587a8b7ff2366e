#include "index/dynamic_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/probe_order.h"

namespace psens {

DynamicGridIndex::DynamicGridIndex(const Rect& bounds, int expected_count) {
  const size_t expected = static_cast<size_t>(std::max(expected_count, 1));
  geo_ = GridGeometry::Layout(bounds, expected);
  cells_.resize(geo_.NumCells());
  live_.reserve(expected);
  pos_of_id_.reserve(expected);
}

DynamicGridIndex::~DynamicGridIndex() { FreeCells(); }

void DynamicGridIndex::FreeCells() {
  for (Cell& cell : cells_) {
    if (cell.spilled()) delete[] cell.heap_ids;
  }
}

void DynamicGridIndex::CellPush(Cell& cell, int id) {
  if (!cell.spilled()) {
    if (cell.count < Cell::kInline) {
      cell.inline_ids[cell.count++] = id;
      return;
    }
    int32_t* heap = new int32_t[2 * Cell::kInline];
    std::copy(cell.inline_ids, cell.inline_ids + Cell::kInline, heap);
    cell.heap_ids = heap;
    cell.capacity = 2 * Cell::kInline;
  } else if (cell.count == cell.capacity) {
    int32_t* heap = new int32_t[2 * cell.capacity];
    std::copy(cell.heap_ids, cell.heap_ids + cell.count, heap);
    delete[] cell.heap_ids;
    cell.heap_ids = heap;
    cell.capacity *= 2;
  }
  cell.heap_ids[cell.count++] = id;
}

void DynamicGridIndex::CellErase(Cell& cell, int id) {
  int32_t* ids = cell.data();
  for (int k = 0; k < cell.count; ++k) {
    if (ids[k] == id) {
      ids[k] = ids[cell.count - 1];
      --cell.count;
      return;
    }
  }
}

void DynamicGridIndex::EnsureId(int id) {
  if (id >= static_cast<int>(live_.size())) {
    live_.resize(static_cast<size_t>(id) + 1, 0);
    pos_of_id_.resize(static_cast<size_t>(id) + 1);
  }
}

bool DynamicGridIndex::Insert(int id, const Point& p) {
  if (id < 0) return false;
  EnsureId(id);
  if (live_[id]) return Move(id, p);
  CellPush(cells_[geo_.CellOf(p)], id);
  if (!geo_.bounds.Contains(p)) ++outlier_count_;
  pos_of_id_[id] = p;
  live_[id] = 1;
  ++live_count_;
  return true;
}

bool DynamicGridIndex::Remove(int id) {
  if (id < 0 || id >= static_cast<int>(live_.size()) || !live_[id]) return false;
  CellErase(cells_[geo_.CellOf(pos_of_id_[id])], id);
  if (!geo_.bounds.Contains(pos_of_id_[id])) --outlier_count_;
  live_[id] = 0;
  --live_count_;
  return true;
}

bool DynamicGridIndex::Move(int id, const Point& p) {
  if (id < 0 || id >= static_cast<int>(live_.size()) || !live_[id]) {
    return Insert(id, p);
  }
  const int old_cell = geo_.CellOf(pos_of_id_[id]);
  const int new_cell = geo_.CellOf(p);
  if (old_cell == new_cell) {
    if (!geo_.bounds.Contains(pos_of_id_[id])) --outlier_count_;
    if (!geo_.bounds.Contains(p)) ++outlier_count_;
    pos_of_id_[id] = p;
    return true;
  }
  Remove(id);
  return Insert(id, p);
}

void DynamicGridIndex::RangeQuery(const Point& center, double radius,
                                  std::vector<int>* out) const {
  out->clear();
  if (live_count_ == 0 || radius < 0.0) return;
  const RangeFilter filter(center, radius);
  const double slack = filter.BoxSlack();
  const int cx0 = geo_.CellX(center.x - radius - slack);
  const int cx1 = geo_.CellX(center.x + radius + slack);
  const int cy0 = geo_.CellY(center.y - radius - slack);
  const int cy1 = geo_.CellY(center.y + radius + slack);
  for (int cy = cy0; cy <= cy1; ++cy) {
    const int row = cy * geo_.nx;
    for (int cx = cx0; cx <= cx1; ++cx) {
      const Cell& cell = cells_[row + cx];
      const int32_t* ids = cell.data();
      for (int k = 0; k < cell.count; ++k) {
        if (filter.Accept(pos_of_id_[ids[k]])) out->push_back(ids[k]);
      }
    }
  }
  SortProbeIds(out);
}

void DynamicGridIndex::RectQuery(const Rect& rect, std::vector<int>* out) const {
  out->clear();
  if (live_count_ == 0) return;
  // Unlike the static grid, the fixed bounds may not cover every point
  // (clamped edge cells hold outliers), so there is no early bounds
  // rejection; the clamped cell range still covers every candidate cell.
  const int cx0 = geo_.CellX(rect.x_min);
  const int cx1 = geo_.CellX(rect.x_max);
  const int cy0 = geo_.CellY(rect.y_min);
  const int cy1 = geo_.CellY(rect.y_max);
  if (rect.x_max < rect.x_min || rect.y_max < rect.y_min) return;
  for (int cy = cy0; cy <= cy1; ++cy) {
    const int row = cy * geo_.nx;
    for (int cx = cx0; cx <= cx1; ++cx) {
      const Cell& cell = cells_[row + cx];
      const int32_t* ids = cell.data();
      for (int k = 0; k < cell.count; ++k) {
        if (rect.Contains(pos_of_id_[ids[k]])) out->push_back(ids[k]);
      }
    }
  }
  SortProbeIds(out);
}

int DynamicGridIndex::Nearest(const Point& p) const {
  if (live_count_ == 0) return -1;
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
        if (ring > 0 && std::abs(cx - pcx) != ring && std::abs(cy - pcy) != ring)
          continue;
        if (geo_.CellMinDist2(p, cx, cy, /*open_edges=*/outlier_count_ > 0) > best_d2) continue;
        any_cell_in_range = true;
        const Cell& cell = cells_[cy * geo_.nx + cx];
        const int32_t* ids = cell.data();
        for (int k = 0; k < cell.count; ++k) {
          const int id = ids[k];
          const double dx = pos_of_id_[id].x - p.x;
          const double dy = pos_of_id_[id].y - p.y;
          const double d2 = dx * dx + dy * dy;
          if (d2 < best_d2 || (d2 == best_d2 && id < best)) {
            best_d2 = d2;
            best = id;
          }
        }
      }
    }
    if (best >= 0 && !any_cell_in_range && ring > 0) break;
  }
  return best;
}

}  // namespace psens
