#include "index/dynamic_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/slot.h"
#include "index/probe_order.h"

namespace psens {

// ---------------------------------------------------------------------------
// DynamicGridIndex
// ---------------------------------------------------------------------------

DynamicGridIndex::DynamicGridIndex(const Rect& bounds, int expected_count) {
  geo_ = GridGeometry::Layout(
      bounds, static_cast<size_t>(std::max(expected_count, 1)),
      /*cell_size=*/0.0);
  cells_.resize(geo_.NumCells());
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
  Cell& cell = cells_[geo_.CellOf(p)];
  if (cell.count == 0) ++occupied_cells_;
  CellPush(cell, id);
  if (!geo_.bounds.Contains(p)) ++outlier_count_;
  pos_of_id_[id] = p;
  live_[id] = 1;
  ++live_count_;
  return true;
}

bool DynamicGridIndex::Remove(int id) {
  if (id < 0 || id >= static_cast<int>(live_.size()) || !live_[id]) return false;
  Cell& cell = cells_[geo_.CellOf(pos_of_id_[id])];
  CellErase(cell, id);
  if (cell.count == 0) --occupied_cells_;
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

double DynamicGridIndex::OccupiedCellFraction() const {
  const size_t total = cells_.size();
  return total == 0 ? 0.0
                    : static_cast<double>(occupied_cells_) /
                          static_cast<double>(total);
}

bool DynamicGridIndex::GeometryStale() const {
  // Laid out for ~2 points per cell; stale when the live population is 4x
  // off that target in either direction.
  const double per_cell =
      static_cast<double>(live_count_) / static_cast<double>(cells_.size());
  return per_cell > 8.0 || (per_cell < 0.5 && live_count_ > 64);
}

void DynamicGridIndex::CollectLive(std::vector<std::pair<int, Point>>* out) const {
  for (int id = 0; id < static_cast<int>(live_.size()); ++id) {
    if (live_[id]) out->emplace_back(id, pos_of_id_[id]);
  }
}

// ---------------------------------------------------------------------------
// BufferedKdTreeIndex
// ---------------------------------------------------------------------------

BufferedKdTreeIndex::BufferedKdTreeIndex(std::vector<std::pair<int, Point>> points) {
  for (const auto& [id, p] : points) {
    EnsureId(id);
    pos_of_id_[id] = p;
    buffer_.push_back(id);
    buffer_pos_of_id_[id] = static_cast<int>(buffer_.size()) - 1;
    ++live_count_;
  }
  if (!buffer_.empty()) Rebuild();
}

void BufferedKdTreeIndex::EnsureId(int id) {
  if (id >= static_cast<int>(pos_of_id_.size())) {
    pos_of_id_.resize(static_cast<size_t>(id) + 1);
    snapshot_pos_of_id_.resize(static_cast<size_t>(id) + 1, -1);
    buffer_pos_of_id_.resize(static_cast<size_t>(id) + 1, -1);
  }
}

int BufferedKdTreeIndex::RebuildThreshold() const {
  return std::max(64, static_cast<int>(snapshot_ids_.size()) / 4);
}

void BufferedKdTreeIndex::MaybeRebuild() {
  if (tombstones_ + static_cast<int>(buffer_.size()) > RebuildThreshold()) {
    Rebuild();
  }
}

void BufferedKdTreeIndex::Rebuild() {
  std::vector<std::pair<int, Point>> live;
  live.reserve(static_cast<size_t>(live_count_));
  CollectLive(&live);  // ascending by id
  snapshot_ids_.clear();
  snapshot_ids_.reserve(live.size());
  std::vector<Point> points;
  points.reserve(live.size());
  std::fill(snapshot_pos_of_id_.begin(), snapshot_pos_of_id_.end(), -1);
  std::fill(buffer_pos_of_id_.begin(), buffer_pos_of_id_.end(), -1);
  for (const auto& [id, p] : live) {
    snapshot_pos_of_id_[id] = static_cast<int>(snapshot_ids_.size());
    snapshot_ids_.push_back(id);
    points.push_back(p);
  }
  base_ = points.empty() ? nullptr : std::make_unique<KdTreeIndex>(points);
  dead_.assign(snapshot_ids_.size(), 0);
  tombstones_ = 0;
  buffer_.clear();
  ++rebuilds_;
}

bool BufferedKdTreeIndex::Insert(int id, const Point& p) {
  if (id < 0) return false;
  EnsureId(id);
  if (buffer_pos_of_id_[id] >= 0 ||
      (snapshot_pos_of_id_[id] >= 0 && !dead_[snapshot_pos_of_id_[id]])) {
    return Move(id, p);
  }
  pos_of_id_[id] = p;
  buffer_.push_back(id);
  buffer_pos_of_id_[id] = static_cast<int>(buffer_.size()) - 1;
  ++live_count_;
  MaybeRebuild();
  return true;
}

bool BufferedKdTreeIndex::Remove(int id) {
  if (id < 0 || id >= static_cast<int>(pos_of_id_.size())) return false;
  if (buffer_pos_of_id_[id] >= 0) {
    const int pos = buffer_pos_of_id_[id];
    const int moved = buffer_.back();
    buffer_[pos] = moved;
    buffer_pos_of_id_[moved] = pos;
    buffer_.pop_back();
    buffer_pos_of_id_[id] = -1;
    --live_count_;
    return true;
  }
  const int spos = snapshot_pos_of_id_[id];
  if (spos < 0 || dead_[spos]) return false;
  dead_[spos] = 1;
  ++tombstones_;
  --live_count_;
  MaybeRebuild();
  return true;
}

bool BufferedKdTreeIndex::Move(int id, const Point& p) {
  if (id < 0 || id >= static_cast<int>(pos_of_id_.size())) return Insert(id, p);
  if (buffer_pos_of_id_[id] >= 0) {
    pos_of_id_[id] = p;  // buffer points are scanned with live coordinates
    return true;
  }
  const int spos = snapshot_pos_of_id_[id];
  if (spos < 0 || dead_[spos]) return Insert(id, p);
  // Snapshot point relocating: tombstone the frozen copy, track it in the
  // buffer at its new position.
  Remove(id);
  return Insert(id, p);
}

void BufferedKdTreeIndex::RangeQuery(const Point& center, double radius,
                                     std::vector<int>* out) const {
  out->clear();
  if (radius < 0.0) return;
  if (base_ != nullptr) {
    base_->RangeQuery(center, radius, &snap_scratch_);
    for (int pos : snap_scratch_) {
      if (!dead_[pos]) out->push_back(snapshot_ids_[pos]);
    }
  }
  for (int id : buffer_) {
    if (Distance(pos_of_id_[id], center) <= radius) out->push_back(id);
  }
  SortProbeIds(out);
}

void BufferedKdTreeIndex::RectQuery(const Rect& rect, std::vector<int>* out) const {
  out->clear();
  if (base_ != nullptr) {
    base_->RectQuery(rect, &snap_scratch_);
    for (int pos : snap_scratch_) {
      if (!dead_[pos]) out->push_back(snapshot_ids_[pos]);
    }
  }
  for (int id : buffer_) {
    if (rect.Contains(pos_of_id_[id])) out->push_back(id);
  }
  SortProbeIds(out);
}

int BufferedKdTreeIndex::Nearest(const Point& p) const {
  if (live_count_ == 0) return -1;
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  const auto consider = [&](int id) {
    const double dx = pos_of_id_[id].x - p.x;
    const double dy = pos_of_id_[id].y - p.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_d2 || (d2 == best_d2 && id < best)) {
      best_d2 = d2;
      best = id;
    }
  };
  if (base_ != nullptr) {
    if (tombstones_ == 0) {
      // Snapshot positions ascend with ids, so the base tie-break (lowest
      // position) is the lowest id.
      const int pos = base_->Nearest(p);
      if (pos >= 0) consider(snapshot_ids_[pos]);
    } else {
      // Tombstones can hide the base argmin; fall back to a snapshot scan.
      // Nearest is not on any scheduler hot path (candidate pruning uses
      // Range/Rect probes); the delta stays below RebuildThreshold anyway.
      for (size_t pos = 0; pos < snapshot_ids_.size(); ++pos) {
        if (!dead_[pos]) consider(snapshot_ids_[pos]);
      }
    }
  }
  for (int id : buffer_) consider(id);
  return best;
}

void BufferedKdTreeIndex::CollectLive(
    std::vector<std::pair<int, Point>>* out) const {
  const size_t begin = out->size();
  for (size_t pos = 0; pos < snapshot_ids_.size(); ++pos) {
    if (!dead_[pos]) out->emplace_back(snapshot_ids_[pos], pos_of_id_[snapshot_ids_[pos]]);
  }
  for (int id : buffer_) out->emplace_back(id, pos_of_id_[id]);
  std::sort(out->begin() + begin, out->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

// ---------------------------------------------------------------------------
// DynamicSpatialIndex
// ---------------------------------------------------------------------------

DynamicSpatialIndex::DynamicSpatialIndex(const Rect& bounds,
                                         SlotIndexPolicy policy,
                                         int expected_count)
    : bounds_(bounds), policy_(policy), expected_count_(expected_count) {
  grid_active_ = policy != SlotIndexPolicy::kKdTree;
  if (grid_active_) {
    grid_ = std::make_unique<DynamicGridIndex>(bounds_, expected_count_);
    backend_ = grid_.get();
  } else {
    kd_ = std::make_unique<BufferedKdTreeIndex>();
    backend_ = kd_.get();
  }
}

bool DynamicSpatialIndex::Insert(int id, const Point& p) {
  const bool ok = backend_->Insert(id, p);
  ++churn_since_choice_;
  MaybeRechoose();
  return ok;
}

bool DynamicSpatialIndex::Remove(int id) {
  const bool ok = backend_->Remove(id);
  ++churn_since_choice_;
  MaybeRechoose();
  return ok;
}

bool DynamicSpatialIndex::Move(int id, const Point& p) {
  // Moves shift density without changing membership; they count toward
  // drift at a discount (many tiny moves ~ one churn event) — counting
  // them fully would re-probe every slot under mobility traces.
  return backend_->Move(id, p);
}

void DynamicSpatialIndex::MaybeRechoose() {
  if (policy_ != SlotIndexPolicy::kAuto) return;
  if (churn_since_choice_ <= std::max(64, backend_->size() / 4)) return;
  churn_since_choice_ = 0;
  // Density probe, same verdict rule as BuildSpatialIndexAuto: keep the
  // grid when enough of its cells are occupied. When the k-d backend is
  // active the probe builds a scratch grid from the live set (O(n), but
  // only ever on drift).
  if (grid_active_) {
    if (grid_->OccupiedCellFraction() >= kGridOccupancyThreshold) {
      // Verdict is "grid", but the population may have grown or shrunk
      // well past the size this grid's cells were laid out for (bulk
      // loads start tiny); a 4x-off geometry turns O(points-per-cell)
      // updates into long scans. Re-lay the grid at the current size.
      if (grid_->GeometryStale()) {
        std::vector<std::pair<int, Point>> live;
        grid_->CollectLive(&live);
        auto fresh =
            std::make_unique<DynamicGridIndex>(bounds_, grid_->size());
        for (const auto& [id, p] : live) fresh->Insert(id, p);
        grid_ = std::move(fresh);
        backend_ = grid_.get();
      }
      return;
    }
    std::vector<std::pair<int, Point>> live;
    grid_->CollectLive(&live);
    kd_ = std::make_unique<BufferedKdTreeIndex>(std::move(live));
    grid_.reset();
    grid_active_ = false;
    backend_ = kd_.get();
  } else {
    auto probe = std::make_unique<DynamicGridIndex>(bounds_, kd_->size());
    std::vector<std::pair<int, Point>> live;
    kd_->CollectLive(&live);
    for (const auto& [id, p] : live) probe->Insert(id, p);
    if (probe->OccupiedCellFraction() < kGridOccupancyThreshold) return;
    grid_ = std::move(probe);
    kd_.reset();
    grid_active_ = true;
    backend_ = grid_.get();
  }
}

}  // namespace psens
