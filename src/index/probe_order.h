#ifndef PSENS_INDEX_PROBE_ORDER_H_
#define PSENS_INDEX_PROBE_ORDER_H_

#include <cstddef>
#include <vector>

namespace psens {

/// Probe-result size at or above which SortProbeIds radix-sorts. Point
/// range probes return tens of ids and stay on std::sort; the aggregate
/// bind's rect probes return thousands and take the linear-time path.
/// Radix sorting pays three histogram passes even for a handful of ids:
/// on shuffled ids from 100k and 1M id spaces it took 1.1-1.9 us at 16-64
/// ids where std::sort took 0.07-1.4 us, and won from about 96 ids on
/// (docs/BENCHMARKS.md, "Candidate-local selection"). The cutoff sits
/// above that crossover, and no workload's probes fall between the two.
inline constexpr size_t kRadixSortMinIds = 256;

/// Sorts a probe's output ids ascending — the order every SpatialIndex
/// query promises. At or above kRadixSortMinIds ids it runs an LSD radix
/// sort over 8-bit digits, with as many passes as the largest id needs;
/// below it, std::sort. Both produce the same list. Ids must be
/// non-negative, as every index's ids are.
void SortProbeIds(std::vector<int>* ids);

}  // namespace psens

#endif  // PSENS_INDEX_PROBE_ORDER_H_
