#ifndef PSENS_ENGINE_MEMBERSHIP_MERGE_H_
#define PSENS_ENGINE_MEMBERSHIP_MERGE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/slot.h"

namespace psens {

/// The member set as a presence bitmap over registry ids, with the
/// member count before each 64-bit word. Member table rows ascend by id,
/// so a member's row is its rank, the number of members below it, and so
/// is the row a non-member would be inserted at:
/// row(id) = before[w] + popcount(bits[w] & below(id)), w = id / 64.
/// The bits change only in MergeSortedMembership, which recounts once.
struct MemberRanks {
  std::vector<uint64_t> bits;
  std::vector<uint32_t> before;

  explicit MemberRanks(size_t registry)
      : bits((registry + 63) / 64, 0), before(bits.size(), 0) {}

  bool Contains(int id) const {
    return (bits[static_cast<size_t>(id) >> 6] >> (id & 63)) & 1;
  }
  size_t Row(int id) const {
    const size_t w = static_cast<size_t>(id) >> 6;
    const uint64_t below = (uint64_t{1} << (id & 63)) - 1;
    return before[w] + static_cast<size_t>(std::popcount(bits[w] & below));
  }
  void Set(int id, bool member) {
    const uint64_t bit = uint64_t{1} << (id & 63);
    uint64_t& word = bits[static_cast<size_t>(id) >> 6];
    word = member ? word | bit : word & ~bit;
  }
  /// Rebuilds `before` from `bits`: one pass over n/64 words.
  void Recount() {
    uint32_t sum = 0;
    for (size_t w = 0; w < bits.size(); ++w) {
      before[w] = sum;
      sum += static_cast<uint32_t>(std::popcount(bits[w]));
    }
  }
};

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
/// touching the table: every event's old-table row is its rank in
/// `ranks`, which still holds the old membership. A second pass moves
/// each run with one memmove per column (44 bytes per row over the six
/// columns); inserted rows are written last, and the bitmap takes the
/// events and recounts once. The O(n) byte traffic is unavoidable (every
/// row after the first event shifts), but in place each moved line is
/// read and written once, where a copy into a second table also pays for
/// fetching the destination.
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
/// `inserts` and `removes` must be sorted ascending and disjoint, and
/// `ranks` must describe `members`' ids; both stay consistent.
/// `announce(id)` returns a freshly inserted member's SlotSensor (its
/// sensor_id field is ignored: the merge writes `id`); it is invoked in
/// ascending id order.
template <typename AnnounceFn>
void MergeSortedMembership(SlotSensorTable* members, MemberRanks* ranks,
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
  // so event rows ascend too: a removal's row and an insertion's landing
  // row (before the first larger id) are both its rank.
  while (ii < inserts.size() || ri < removes.size()) {
    const bool take_insert =
        ri >= removes.size() ||
        (ii < inserts.size() && inserts[ii] < removes[ri]);
    if (take_insert) {
      plan_run(ranks->Row(inserts[ii++]));
      insert_rows.push_back(di++);
    } else {
      plan_run(ranks->Row(removes[ri++]));
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
  };
  size_t waiting = 0;  // first run still waiting to move right
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].dst > runs[r].src) continue;
    move_run(runs[r]);
    for (size_t w = r; w-- > waiting;) move_run(runs[w]);
    waiting = r + 1;
  }
  for (size_t w = runs.size(); w-- > waiting;) move_run(runs[w]);

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
  }
  members->Resize(new_size);
  for (int id : removes) ranks->Set(id, false);
  for (int id : inserts) ranks->Set(id, true);
  ranks->Recount();
}

}  // namespace psens

#endif  // PSENS_ENGINE_MEMBERSHIP_MERGE_H_
