// Flat replacements for the simulator's hot-path hash maps.
//
// The per-access replay path consults two maps on essentially every record:
// the memory version map (LineAddr -> version, written on every memory
// writeback) and the per-core TLB index (PageNum -> slot). Profiles show the
// std::unordered_map nodes behind them — pointer-chasing buckets, one heap
// node per entry — dominating host time per simulated event. Both key spaces
// are small and dense enough for flat structures:
//
//  * PagedLineMap — a chunked direct array over physical line numbers. The
//    physical space is bounded (phys_mb), so a vector of lazily-allocated
//    fixed-size chunks gives O(1) loads/stores with zero hashing and zero
//    per-entry allocation; untouched regions cost one null pointer per chunk.
//  * OpenAddrMap — an open-addressed linear-probing table with backward-shift
//    deletion over integer keys. It grows by doubling past 75% load, so a
//    table sized up front for its entry count never grows. Two instances:
//    OpenPageMap, the TLB's vpage -> slot index, sized at 4x the TLB entry
//    count (load factor <= 0.25, short contiguous probes); and the dependence
//    registry's segment-begin -> tree-node index, which starts small and
//    grows with the segment count.
//
// The stats golden (tests/test_loop_golden.cpp) pins that these structures
// produce the same simulated results as the hash maps they replaced.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "raccd/common/types.hpp"

namespace raccd {

/// Chunked direct array over LineAddr keys with an implicit default of 0.
/// get() on an untouched line returns 0 without allocating; set() allocates
/// the 32 KB chunk covering the line on first touch.
class PagedLineMap {
 public:
  static constexpr unsigned kChunkShift = 12;  ///< 4096 lines = 32 KB per chunk
  static constexpr std::uint64_t kChunkLines = 1ull << kChunkShift;

  /// Pre-size the chunk directory for `lines` physical lines (pointers only;
  /// no chunk memory is committed until touched).
  void reserve_lines(std::uint64_t lines) {
    chunks_.reserve(static_cast<std::size_t>((lines >> kChunkShift) + 1));
  }

  [[nodiscard]] std::uint64_t get(LineAddr line) const noexcept {
    const std::size_t c = static_cast<std::size_t>(line >> kChunkShift);
    if (c >= chunks_.size() || chunks_[c] == nullptr) return 0;
    return chunks_[c][line & (kChunkLines - 1)];
  }

  void set(LineAddr line, std::uint64_t v) {
    const std::size_t c = static_cast<std::size_t>(line >> kChunkShift);
    if (c >= chunks_.size()) chunks_.resize(c + 1);
    if (chunks_[c] == nullptr) {
      chunks_[c] = std::make_unique<std::uint64_t[]>(kChunkLines);  // zeroed
    }
    chunks_[c][line & (kChunkLines - 1)] = v;
  }

  /// Chunks with committed storage (capacity/diagnostics).
  [[nodiscard]] std::size_t allocated_chunks() const noexcept {
    std::size_t n = 0;
    for (const auto& c : chunks_) n += (c != nullptr);
    return n;
  }

 private:
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
};

/// Open-addressed Key -> Value map: linear probing, power-of-two capacity,
/// backward-shift deletion (no tombstones, so probe runs never degrade).
/// Occupancy is encoded in the key itself (the kEmpty sentinel, ~Key{0}),
/// so a probe touches one contiguous array only; callers never insert
/// kEmpty (page numbers are addresses >> 12 and cannot reach it; the
/// dependence registry asserts its range ends stay below it). insert()
/// doubles the capacity once the load would pass 3/4.
template <typename Key, typename Value>
class OpenAddrMap {
 public:
  static constexpr Key kEmpty = ~Key{0};

  /// Sized for `max_entries` at <= 25% load: a table that never holds more
  /// never grows.
  explicit OpenAddrMap(std::uint32_t max_entries = 0) {
    std::uint32_t cap = 16;
    while (cap < max_entries * 4) cap <<= 1;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
  }

  [[nodiscard]] Value* find(Key key) noexcept {
    for (std::uint32_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }

  /// Insert a key known to be absent (the callers check with find() first
  /// or know it from their own invariants).
  void insert(Key key, Value value) {
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    place(key, value);
    ++size_;
  }

  bool erase(Key key) noexcept {
    std::uint32_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmpty) return false;
      if (slots_[i].key == key) break;
    }
    slots_[i].key = kEmpty;
    --size_;
    // Backward shift: close the hole by moving any later entry whose probe
    // path crosses it, so lookups never need tombstones.
    std::uint32_t hole = i, j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (slots_[j].key == kEmpty) break;
      const std::uint32_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        slots_[j].key = kEmpty;
        hole = j;
      }
    }
    return true;
  }

  void clear() noexcept {
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return mask_ + 1; }

 private:
  struct Slot {
    Key key = kEmpty;
    Value value{};
  };

  [[nodiscard]] std::uint32_t home(Key key) const noexcept {
    // Fibonacci multiplicative hash; high bits feed the mask.
    const std::uint64_t h = static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::uint32_t>(h >> 32) & mask_;
  }

  void place(Key key, Value value) noexcept {
    std::uint32_t i = home(key);
    while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
    slots_[i] = Slot{key, value};
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2, Slot{});
    old.swap(slots_);
    mask_ = static_cast<std::uint32_t>(slots_.size()) - 1;
    for (const Slot& s : old) {
      if (s.key != kEmpty) place(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t mask_ = 0;
  std::uint32_t size_ = 0;
};

/// The TLB's vpage -> slot index.
using OpenPageMap = OpenAddrMap<PageNum, std::uint32_t>;

}  // namespace raccd
