#ifndef PSENS_ENGINE_MEMBERSHIP_MERGE_H_
#define PSENS_ENGINE_MEMBERSHIP_MERGE_H_

#include <cassert>
#include <cstring>
#include <vector>

#include "core/slot.h"

namespace psens {

/// Old-table row where a new member with `id` slots into a member table
/// sorted ascending by sensor id: the row of the next live member above
/// it. Registries are near-fully live, so a forward scan of slot_pos
/// (4 bytes/step, sequential) almost always hits on the first probe,
/// where a binary search of the id column would take ~20.
inline size_t MemberInsertPosition(const std::vector<int>& slot_pos, int id,
                                   size_t old_size) {
  // Cold build (slot 0): nothing is live yet, and without this early-out
  // every insert would scan to the registry end — O(n^2) over a fresh
  // million-sensor registry.
  if (old_size == 0) return 0;
  const int registry = static_cast<int>(slot_pos.size());
  for (int j = id + 1; j < registry; ++j) {
    if (slot_pos[j] >= 0) return static_cast<size_t>(slot_pos[j]);
  }
  return old_size;
}

/// MergeSortedMembership's plan: the runs of surviving rows and the rows
/// inserted members land on. Its capacity persists across slots.
struct MembershipMergePlan {
  /// Old rows [src, src + len) move to [dst, dst + len).
  struct Run {
    size_t src;
    size_t dst;
    size_t len;
  };
  std::vector<Run> runs;
  /// insert_rows[k] is the new row of inserts[k].
  std::vector<size_t> insert_rows;
};

/// Applies a sorted batch of membership events to a member table sorted
/// ascending by sensor id, in place — the engine's slot turnover
/// (AcquisitionEngine::RebuildMembership).
///
/// With k churn events over n members the table has at most k+1 runs of
/// surviving rows. A first pass plans each run's destination without
/// touching the table; a second moves each run with one memmove per
/// column (44 bytes per row over the six columns) and fixes up the moved
/// rows' slot_pos entries from the sensor_id column while it is still
/// cache-hot; inserted rows are written last. The O(n) byte traffic is
/// unavoidable (every row after the first event shifts), but in place each
/// moved line is read and written once, where a copy into a second table
/// also pays for fetching the destination.
///
/// Move order keeps every run's source intact until it moves. Destinations
/// ascend and are disjoint, so a run moving left (or not at all) lands
/// past the source of every earlier run that moves right, and before the
/// source of every later run: it can move as soon as it is reached. A run
/// moving right may land on the source of the runs after it, so it waits
/// until the next run that does not move right has moved; then the waiting
/// runs move from the last back to the first. Each lands before the
/// destination of the run after it, which has already moved.
///
/// `inserts` and `removes` must be sorted ascending and disjoint;
/// `slot_pos` maps sensor id -> row in `members` (-1 = non-member) and is
/// kept consistent. `announce(id)` returns a freshly inserted member's
/// SlotSensor (its sensor_id field is ignored: the merge writes `id`); it
/// is invoked in ascending id order.
template <typename AnnounceFn>
void MergeSortedMembership(SlotSensorTable* members, std::vector<int>* slot_pos,
                           const std::vector<int>& inserts,
                           const std::vector<int>& removes,
                           AnnounceFn&& announce, MembershipMergePlan* plan) {
  using Run = MembershipMergePlan::Run;
  const size_t old_size = members->size();
  std::vector<Run>& runs = plan->runs;
  std::vector<size_t>& insert_rows = plan->insert_rows;
  runs.clear();
  insert_rows.clear();
  size_t si = 0;  // old row cursor
  size_t di = 0;  // new row cursor
  const auto plan_run = [&](size_t src_end) {
    assert(src_end >= si && "membership events out of row order");
    if (src_end > si) runs.push_back(Run{si, di, src_end - si});
    di += src_end - si;
    si = src_end;
  };
  size_t ii = 0;  // inserts cursor
  size_t ri = 0;  // removes cursor
  // Events ascend by sensor id, and the old table is sorted by sensor id,
  // so event rows ascend too: removals resolve their row through
  // slot_pos, insertions land before the first larger id.
  while (ii < inserts.size() || ri < removes.size()) {
    const bool take_insert =
        ri >= removes.size() ||
        (ii < inserts.size() && inserts[ii] < removes[ri]);
    if (take_insert) {
      plan_run(MemberInsertPosition(*slot_pos, inserts[ii++], old_size));
      insert_rows.push_back(di++);
    } else {
      plan_run(static_cast<size_t>((*slot_pos)[removes[ri++]]));
      ++si;  // skip the removed row
    }
  }
  plan_run(old_size);
  const size_t new_size = di;

  if (new_size > old_size) members->Resize(new_size);
  const auto move_column = [](auto& column, const Run& r) {
    std::memmove(column.data() + r.dst, column.data() + r.src,
                 r.len * sizeof(column[0]));
  };
  const auto move_run = [&](const Run& r) {
    if (r.dst == r.src) return;
    move_column(members->sensor_id, r);
    move_column(members->x, r);
    move_column(members->y, r);
    move_column(members->cost, r);
    move_column(members->inaccuracy, r);
    move_column(members->trust, r);
    const int* ids = members->sensor_id.data();
    for (size_t k = r.dst; k < r.dst + r.len; ++k) {
      (*slot_pos)[ids[k]] = static_cast<int>(k);
    }
  };
  size_t waiting = 0;  // first run still waiting to move right
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].dst > runs[r].src) continue;
    move_run(runs[r]);
    for (size_t w = r; w-- > waiting;) move_run(runs[w]);
    waiting = r + 1;
  }
  for (size_t w = runs.size(); w-- > waiting;) move_run(runs[w]);

  for (int id : removes) (*slot_pos)[id] = -1;
  for (size_t k = 0; k < inserts.size(); ++k) {
    const size_t row = insert_rows[k];
    const int id = inserts[k];
    const SlotSensor s = announce(id);
    members->sensor_id[row] = id;
    members->x[row] = s.location.x;
    members->y[row] = s.location.y;
    members->cost[row] = s.cost;
    members->inaccuracy[row] = s.inaccuracy;
    members->trust[row] = s.trust;
    (*slot_pos)[id] = static_cast<int>(row);
  }
  members->Resize(new_size);
}

}  // namespace psens

#endif  // PSENS_ENGINE_MEMBERSHIP_MERGE_H_
