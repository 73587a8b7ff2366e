#ifndef PSENS_ENGINE_MEMBERSHIP_MERGE_H_
#define PSENS_ENGINE_MEMBERSHIP_MERGE_H_

#include <cstring>
#include <vector>

#include "core/slot.h"

namespace psens {

/// Old-array position where a new member with `id` slots into a member
/// array sorted ascending by sensor id: the position of the next live
/// member above it. Registries are near-fully live, so a forward scan of
/// slot_pos (4 bytes/step, sequential) almost always hits on the first
/// probe — and unlike a binary search of the member array, it stays
/// valid mid-merge: entries for ids above the one being inserted are
/// untouched old positions (the in-place merge only rewrites entries at
/// or below the current event id).
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

/// Applies a sorted batch of membership events to a member array sorted
/// ascending by sensor id — the engine's slot turnover
/// (AcquisitionEngine::RebuildMembership).
///
/// Segment merge into a scratch buffer whose capacity persists across
/// slots. With k churn events over n members the array has at most k+1
/// unchanged runs; each run moves with one memcpy (SlotSensor is
/// trivially copyable) followed by a fused fixup of the shifted .index
/// fields and slot_pos entries while the run is still cache-hot. The
/// O(n) byte traffic is unavoidable (every element after the first event
/// shifts), but at streaming bandwidth it undercuts both a per-element
/// branch-and-push_back loop and an in-place read-modify-write pass.
///
/// The SoA columns (core/slot.h SlotSlabs) ride the same merge: every
/// copy_run memcpys the identical row range of each column, so the slabs
/// stay in lockstep with `members` at no extra bookkeeping, and a freshly
/// inserted row is written from its just-filled SlotSensor (SetRow).
///
/// `inserts` and `removes` must be sorted ascending and disjoint;
/// `slot_pos` maps sensor id -> position in `members` (-1 = non-member)
/// and is kept consistent. `fill(ss, id)` populates a freshly inserted
/// entry's payload (location/cost/inaccuracy/trust); .index and
/// .sensor_id are set by the merge. fill is invoked in ascending id
/// order. `members`/`scratch` (and the slab pairs) are swapped on return.
template <typename FillFn>
void MergeSortedMembership(std::vector<SlotSensor>* members,
                           std::vector<SlotSensor>* scratch,
                           std::vector<int>* slot_pos,
                           const std::vector<int>& inserts,
                           const std::vector<int>& removes, FillFn&& fill,
                           SlotSlabs* slabs, SlotSlabs* slab_scratch) {
  const size_t old_size = members->size();
  scratch->resize(old_size + inserts.size());
  slab_scratch->Resize(old_size + inserts.size());
  const SlotSensor* src = members->data();
  SlotSensor* dst = scratch->data();
  size_t si = 0;  // source cursor (old array)
  size_t di = 0;  // destination cursor
  const auto copy_column = [](std::vector<double>& to,
                              const std::vector<double>& from, size_t di_,
                              size_t si_, size_t len) {
    std::memcpy(to.data() + di_, from.data() + si_, len * sizeof(double));
  };
  const auto copy_run = [&](size_t src_end) {
    const size_t len = src_end - si;
    if (len == 0) return;
    std::memcpy(dst + di, src + si, len * sizeof(SlotSensor));
    copy_column(slab_scratch->x, slabs->x, di, si, len);
    copy_column(slab_scratch->y, slabs->y, di, si, len);
    copy_column(slab_scratch->cost, slabs->cost, di, si, len);
    copy_column(slab_scratch->inaccuracy, slabs->inaccuracy, di, si, len);
    copy_column(slab_scratch->trust, slabs->trust, di, si, len);
    if (di != si) {
      const int shift = static_cast<int>(di) - static_cast<int>(si);
      for (size_t k = di; k < di + len; ++k) {
        dst[k].index += shift;
        (*slot_pos)[dst[k].sensor_id] = static_cast<int>(k);
      }
    }
    si = src_end;
    di += len;
  };
  size_t ii = 0;  // inserts cursor
  size_t ri = 0;  // removes cursor
  // Events ascend by sensor id, and the old array is sorted by sensor id,
  // so event positions ascend too: removals resolve their position through
  // slot_pos, insertions land before the first larger id.
  while (ii < inserts.size() || ri < removes.size()) {
    const bool take_insert =
        ri >= removes.size() ||
        (ii < inserts.size() && inserts[ii] < removes[ri]);
    if (take_insert) {
      const int id = inserts[ii++];
      copy_run(MemberInsertPosition(*slot_pos, id, old_size));
      SlotSensor& ss = dst[di];
      ss.index = static_cast<int>(di);
      ss.sensor_id = id;
      fill(ss, id);
      slab_scratch->SetRow(di, ss);
      (*slot_pos)[id] = static_cast<int>(di);
      ++di;
    } else {
      const int id = removes[ri++];
      copy_run(static_cast<size_t>((*slot_pos)[id]));
      (*slot_pos)[id] = -1;
      ++si;  // skip the removed element
    }
  }
  copy_run(old_size);
  scratch->resize(di);
  slab_scratch->Resize(di);
  std::swap(*slabs, *slab_scratch);
  std::swap(*members, *scratch);
}

}  // namespace psens

#endif  // PSENS_ENGINE_MEMBERSHIP_MERGE_H_
