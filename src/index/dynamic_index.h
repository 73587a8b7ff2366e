#ifndef PSENS_INDEX_DYNAMIC_INDEX_H_
#define PSENS_INDEX_DYNAMIC_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/grid_geometry.h"
#include "index/spatial_index.h"

namespace psens {

/// Dynamic uniform bucket grid keyed by sparse non-negative ids: the
/// serving engine's index (engine/acquisition_engine.h). Unlike
/// `UniformGridIndex` (CSR over a frozen point vector), cells hold plain
/// id lists, so Insert/Remove/Move are true O(cell-occupancy) updates —
/// a slot with 1% sensor churn pays O(churn) index maintenance instead of
/// an O(n) rebuild. The grid geometry is fixed at construction (bounds +
/// expected population); points outside the bounds land in clamped edge
/// cells, exactly like the static grid's boundary handling, so queries
/// remain exact at any population. Same exactness contract as every
/// SpatialIndex: final filters use the brute-force `Distance`/`Contains`
/// predicates and results are ascending by id.
class DynamicGridIndex : public SpatialIndex {
 public:
  /// `expected_count` sizes the cells (~2 points per cell when the live
  /// population is near it) and reserves the per-id arrays for ids below
  /// it, so the engine's cold build of a dense registry never regrows
  /// them; the structure stays correct at any size and id.
  DynamicGridIndex(const Rect& bounds, int expected_count);

  int size() const override { return live_count_; }
  /// Adds `id` at `p` (an id already live moves there). False for a
  /// negative id.
  bool Insert(int id, const Point& p);
  /// Drops `id`; false when it is not live.
  bool Remove(int id);
  /// Relocates `id` (inserting it when not live). A move within one cell
  /// only updates the stored position.
  bool Move(int id, const Point& p);
  void RangeQuery(const Point& center, double radius,
                  std::vector<int>* out) const override;
  void RectQuery(const Rect& rect, std::vector<int>* out) const override;
  int Nearest(const Point& p) const override;
  const char* Name() const override { return "dynamic-grid"; }

 private:
  /// Cell storage tuned for the auto sizing's ~2 points per cell: up to
  /// kInline ids live inside the cell record itself, so the common
  /// insert/remove touches exactly one cache line instead of chasing a
  /// per-cell heap vector. Crowded cells (cluster cores) spill to a heap
  /// block with amortized-doubling capacity.
  struct Cell {
    int32_t count = 0;
    int32_t capacity = 0;  // 0 while inline; heap capacity after spilling
    static constexpr int kInline = 6;
    union {
      int32_t inline_ids[kInline];
      int32_t* heap_ids;
    };

    Cell() : inline_ids{} {}
    bool spilled() const { return capacity > 0; }
    const int32_t* data() const { return spilled() ? heap_ids : inline_ids; }
    int32_t* data() { return spilled() ? heap_ids : inline_ids; }
  };

  void EnsureId(int id);
  void CellPush(Cell& cell, int id);
  void CellErase(Cell& cell, int id);
  void FreeCells();

  GridGeometry geo_;
  int live_count_ = 0;
  /// Live points outside `geo_.bounds` (clamped into edge cells). While any
  /// exist, Nearest's pruning treats edge cells as unbounded outward.
  int outlier_count_ = 0;
  std::vector<Cell> cells_;       // ids, unsorted within a cell
  std::vector<Point> pos_of_id_;  // dense by id
  std::vector<char> live_;        // dense by id

 public:
  ~DynamicGridIndex() override;
  DynamicGridIndex(const DynamicGridIndex&) = delete;
  DynamicGridIndex& operator=(const DynamicGridIndex&) = delete;
};

}  // namespace psens

#endif  // PSENS_INDEX_DYNAMIC_INDEX_H_
