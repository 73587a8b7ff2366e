#include "index/probe_order.h"

#include <algorithm>
#include <array>
#include <cstdint>

namespace psens {

void SortProbeIds(std::vector<int>* ids) {
  const size_t n = ids->size();
  if (n < kRadixSortMinIds) {
    std::sort(ids->begin(), ids->end());
    return;
  }
  uint32_t bits = 0;  // OR of all ids: the highest digit any id uses
  for (int id : *ids) bits |= static_cast<uint32_t>(id);
  // Scratch survives across probes on the thread, so a steady stream of
  // probes allocates nothing.
  thread_local std::vector<int> scratch;
  scratch.resize(n);
  int* src = ids->data();
  int* dst = scratch.data();
  for (int shift = 0; shift < 32 && (bits >> shift) != 0; shift += 8) {
    std::array<size_t, 256> start{};
    for (size_t i = 0; i < n; ++i) {
      ++start[(static_cast<uint32_t>(src[i]) >> shift) & 0xFF];
    }
    // A digit every id shares leaves the order unchanged: skip the pass.
    if (std::find(start.begin(), start.end(), n) != start.end()) continue;
    size_t sum = 0;
    for (size_t& c : start) {
      const size_t count = c;
      c = sum;
      sum += count;
    }
    // Stable scatter: ids equal in this digit keep the previous passes'
    // order, so after the last pass the list is fully ascending.
    for (size_t i = 0; i < n; ++i) {
      dst[start[(static_cast<uint32_t>(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != ids->data()) std::copy(src, src + n, ids->data());
}

}  // namespace psens
