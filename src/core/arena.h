#ifndef PSENS_CORE_ARENA_H_
#define PSENS_CORE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace psens {

/// Bump allocator for slot-lifetime scratch (round pair scratch, candidate
/// lists, gain buffers). Allocations are O(1) pointer bumps
/// into chunked blocks; nothing is freed individually — Reset() at the
/// next BeginSlot recycles everything at once, so per-round heap churn
/// disappears after the first slot warms the chunks up.
///
/// Not thread-safe: one slot's selection allocates from it on one
/// thread. Alignment is per-allocation, default alignof(std::max_align_t).
class SlotArena {
 public:
  static constexpr size_t kDefaultChunkBytes = size_t{1} << 20;  // 1 MiB

  explicit SlotArena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

  SlotArena(const SlotArena&) = delete;
  SlotArena& operator=(const SlotArena&) = delete;

  /// Raw aligned allocation. Never returns null for bytes > 0; bytes == 0
  /// returns a distinct aligned non-null pointer (no storage consumed
  /// beyond alignment padding).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Typed allocation of `count` Ts (uninitialized storage; T must be
  /// trivially destructible since Reset never runs destructors).
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "SlotArena never runs destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Recycles every allocation. Coalesces: if the previous slot spilled
  /// into multiple chunks, they are replaced by one chunk sized to the
  /// high-water mark, so steady state is a single bump range.
  void Reset();

  /// Bytes handed out since construction or the last Reset().
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total backing capacity currently held.
  size_t bytes_reserved() const { return bytes_reserved_; }
  size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  Chunk& AddChunk(size_t min_bytes);

  size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

/// A vector-shaped view over arena storage with an owned-vector fallback
/// when no arena is attached (hand-built SlotContexts, tests). T must be
/// trivially copyable; contents start uninitialized either way — callers
/// zero-fill where they need it, exactly as they would after resize() on
/// a fresh vector.
template <typename T>
class ArenaBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaBuffer elements must be trivially copyable");

 public:
  ArenaBuffer() = default;
  // Move-only: a copy's data_ would alias the source's owned storage.
  ArenaBuffer(ArenaBuffer&&) noexcept = default;
  ArenaBuffer& operator=(ArenaBuffer&&) noexcept = default;
  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  /// (Re)binds the buffer to `count` elements. With an arena, storage
  /// comes from it (valid until the arena's next Reset); without, the
  /// owned vector is resized.
  void Acquire(SlotArena* arena, size_t count) {
    size_ = count;
    if (arena != nullptr) {
      data_ = arena->AllocateArray<T>(count);
    } else {
      owned_.resize(count);
      data_ = owned_.data();
    }
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
  std::vector<T> owned_;
};

}  // namespace psens

#endif  // PSENS_CORE_ARENA_H_
