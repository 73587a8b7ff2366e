#ifndef PSENS_INDEX_DYNAMIC_INDEX_H_
#define PSENS_INDEX_DYNAMIC_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "index/grid_geometry.h"
#include "index/spatial_index.h"

namespace psens {

/// One update of a DynamicGridIndex batch: after the batch, `id` is live
/// at `position` when `live` (inserted, or moved if it already was), and
/// absent when not (removed, or left out if it already was).
struct GridOp {
  Point position;
  int id = 0;
  bool live = false;
};

/// Dynamic uniform bucket grid keyed by sparse non-negative ids: the
/// serving engine's index (engine/acquisition_engine.h). Unlike
/// `UniformGridIndex` (CSR over a frozen point vector), cells hold plain
/// id lists updated in place by `Apply`, so a slot with 1% sensor churn
/// pays for its churn instead of an O(n) rebuild. The grid geometry is
/// fixed at construction (bounds + expected population); points outside
/// the bounds land in clamped edge cells, exactly like the static grid's
/// boundary handling, so queries remain exact at any population. Same
/// exactness contract as every SpatialIndex: final filters use the
/// brute-force `Distance`/`Contains` predicates and results are
/// ascending by id.
class DynamicGridIndex : public SpatialIndex {
 public:
  /// `expected_count` sizes the cells (~2 points per cell when the live
  /// population is near it) and reserves the per-id arrays for ids below
  /// it, so the engine's cold build of a dense registry never regrows
  /// them; the structure stays correct at any size and id.
  DynamicGridIndex(const Rect& bounds, int expected_count);

  /// Live ids.
  int size() const { return live_count_; }
  /// Applies one batch of updates, the grid's only mutator. Ids in a
  /// batch must be non-negative and distinct (asserted in debug builds).
  ///
  /// A pass in op order updates each id's liveness and position and
  /// emits its cell touches: a remove from the old cell, an insert into
  /// the new one, both for a move between cells. A radix sort orders the
  /// touches by (cell, remove before insert), and one walk applies them
  /// in ascending cell order, reading the cell array forward. Removes first keep a full cell that swaps one id for
  /// another inline; a repeated id could meet its own insert and remove
  /// in the wrong order. Cells are unsorted id sets and every probe sorts
  /// its output, so the touch order changes no result.
  void Apply(std::span<const GridOp> ops);
  void RangeQuery(const Point& center, double radius,
                  std::vector<int>* out) const override;
  void RectQuery(const Rect& rect, std::vector<int>* out) const override;
  const char* Name() const override { return "dynamic-grid"; }
  /// Cells whose ids have spilled from the cell record to a heap block.
  /// An O(cells) scan for tests; cells never return inline.
  int SpilledCells() const;

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
  /// Sorts touches_ ascending by their high word, (cell << 1) | insert.
  void SortTouches();
  void FreeCells();

  GridGeometry geo_;
  int live_count_ = 0;
  std::vector<Cell> cells_;       // ids, unsorted within a cell
  std::vector<Point> pos_of_id_;  // dense by id
  std::vector<char> live_;        // dense by id
  /// Apply's cell touches, ((cell << 1 | insert) << 32) | id, and the
  /// radix sort's second buffer; both keep their capacity across batches.
  std::vector<uint64_t> touches_;
  std::vector<uint64_t> touch_scratch_;

 public:
  ~DynamicGridIndex() override;
  DynamicGridIndex(const DynamicGridIndex&) = delete;
  DynamicGridIndex& operator=(const DynamicGridIndex&) = delete;
};

}  // namespace psens

#endif  // PSENS_INDEX_DYNAMIC_INDEX_H_
