#ifndef PSENS_CORE_CELF_FRONTIER_H_
#define PSENS_CORE_CELF_FRONTIER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace psens {

/// The front of a CELF run (lazy greedy; Leskovec et al., KDD 2007;
/// Minoux, 1978) over positions 0..m-1: the position whose cached net is
/// largest, ties going to the lower position. Both CELF loops use it —
/// LazyGreedySensorSelection over scan rows and the sieve's refinement
/// pass over its pool — each with its own stop and drop rules.
///
/// A winner (tournament) tree: leaf m + p holds position p's key, each
/// internal node i in [1, m) the larger of nodes 2i and 2i+1, so node 1
/// is the front. It keeps 2m nodes with no power-of-two padding (node 0
/// is unused). Update and Remove rewrite one leaf and replay its fixed
/// path to the root, taking the max with the sibling at each level.
///
/// The nodes are one heap block, not slot-arena storage: the arena frees
/// nothing until the next slot, so 32 bytes a position would stack on
/// its high-water mark (~1 MB more on `mixed_100k`, which its chunk
/// growth keeps resident as 5 MiB instead of 3), while a freed heap
/// block is reused by the next selection.
///
/// The max must be branch-free. Almost every CELF pop is a stale front
/// that is re-evaluated and put back, and where it lands is data: a
/// comparison heap spends a mispredicted branch on about every other
/// level (a 4-ary heap and an in-place sift-down kept that branch and
/// gained nothing). Here a key is one 128-bit unsigned integer, so the
/// max compiles to cmp/sbb/cmov:
///
///   - the high word is the net, mapped onto the integers in order, with
///     -0.0 folded into +0.0 (so equal nets tie, as `a != b` has them),
///     NaN mapped to 1 (below every number) and removed leaves to 0;
///   - the low word is the inverted position, so ties go to the lower
///     position.
///
/// (net desc, position asc) is a strict total order on live positions, so
/// the front is the one any max-heap with that comparator would pop, and
/// a CELF loop pops the same sequence. TopNet() of a NaN or removed front
/// is NaN: a loop that stops on !(net > 0.0) never commits either.
class CelfFrontier {
 public:
  /// Builds the tree bottom-up in O(m) with position p holding nets[p],
  /// every position live.
  explicit CelfFrontier(std::span<const double> nets)
      : m_(nets.size()),
        // m = 0 keeps a lone root that reads as a removed leaf.
        nodes_(std::make_unique_for_overwrite<Key[]>(
            2 * std::max<size_t>(m_, 1))) {
    nodes_[1] = kRemoved;
    for (size_t p = 0; p < m_; ++p) nodes_[m_ + p] = LeafKey(p, nets[p]);
    for (size_t i = m_; i-- > 1;) {
      nodes_[i] = Max(nodes_[2 * i], nodes_[2 * i + 1]);
    }
  }

  /// True when every position has been removed (always, for m = 0).
  bool Empty() const { return (nodes_[1] >> 64) == kRemoved; }
  /// The front's position (meaningless when Empty()).
  int Top() const {
    return static_cast<int>(~static_cast<uint64_t>(nodes_[1]));
  }
  /// The front's net: NaN when the front's net is NaN or Empty().
  double TopNet() const { return NetOf(nodes_[1]); }

  /// Sets live position `pos`'s net.
  void Update(int pos, double net) {
    const size_t p = static_cast<size_t>(pos);
    Replay(m_ + p, LeafKey(p, net));
  }
  /// Removes position `pos`: it ranks below every live position.
  void Remove(int pos) {
    const size_t p = static_cast<size_t>(pos);
    Replay(m_ + p, PositionBits(p));
  }

 private:
  using Key = unsigned __int128;

  static constexpr uint64_t kSignBit = uint64_t{1} << 63;
  /// High words below every number's: removed leaves, then NaN.
  static constexpr uint64_t kRemoved = 0;
  static constexpr uint64_t kNan = 1;

  static Key Max(Key a, Key b) { return a < b ? b : a; }

  static Key PositionBits(size_t pos) {
    return static_cast<Key>(~static_cast<uint64_t>(pos));
  }

  static Key LeafKey(size_t pos, double net) {
    // Adding +0.0 turns -0.0 into +0.0 and leaves every other value as is.
    const uint64_t bits = std::bit_cast<uint64_t>(net + 0.0);
    // Order-preserving map: negative numbers flip every bit, positive
    // ones the sign bit, so -inf lands at 0x000F'FFFF'FFFF'FFFF > kNan.
    const uint64_t flip =
        static_cast<uint64_t>(static_cast<int64_t>(bits) >> 63) | kSignBit;
    // NaN selects kNan through a mask, not a jump.
    const uint64_t number = 0 - static_cast<uint64_t>(net == net);
    const uint64_t ordered = ((bits ^ flip) & number) | (kNan & ~number);
    return (static_cast<Key>(ordered) << 64) | PositionBits(pos);
  }

  static double NetOf(Key key) {
    // The map's inverse. kRemoved and kNan come back as NaN bit patterns.
    const uint64_t ordered = static_cast<uint64_t>(key >> 64);
    const uint64_t flip = ((ordered >> 63) - 1) | kSignBit;
    return std::bit_cast<double>(ordered ^ flip);
  }

  /// Writes `key` at `node` and replays the path to the root. The path
  /// and its sibling loads depend only on `node`; only the max carries
  /// data from level to level, and it does not branch.
  void Replay(size_t node, Key key) {
    nodes_[node] = key;
    while (node > 1) {
      key = Max(key, nodes_[node ^ 1]);
      node >>= 1;
      nodes_[node] = key;
    }
  }

  size_t m_;
  std::unique_ptr<Key[]> nodes_;
};

}  // namespace psens

#endif  // PSENS_CORE_CELF_FRONTIER_H_
