// Simulated application memory: a virtual arena with functional backing store.
//
// Applications allocate named arrays from this arena. Each allocation returns
// a simulated virtual address; the bytes live in host chunks so that task
// kernels compute *real* results (every app functionally verifies its output)
// while the same virtual addresses drive the timing model. Virtual pages are
// mapped eagerly to physical frames via the configured allocation policy.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "raccd/common/assert.hpp"
#include "raccd/common/types.hpp"
#include "raccd/mem/page_table.hpp"
#include "raccd/mem/phys_memory.hpp"

namespace raccd {

class SimMemory {
 public:
  /// Arena base: leave page 0 unused so address 0 is never valid.
  static constexpr VAddr kArenaBase = kPageBytes;

  SimMemory(std::uint64_t phys_frames, AllocPolicy policy,
            std::uint64_t seed = 0x9acc5eedULL, std::uint32_t sockets = 1);

  /// Allocate `bytes` with the given alignment (>= 8, power of two). Returns
  /// the simulated virtual address. The backing bytes are zero-initialized.
  [[nodiscard]] VAddr alloc(std::uint64_t bytes, std::uint64_t align = kLineBytes,
                            std::string label = {});

  /// Typed convenience allocation of `count` elements of T, line-aligned by
  /// default so dependence ranges do not false-share lines.
  template <typename T>
  [[nodiscard]] VAddr alloc_array(std::uint64_t count, std::string label = {}) {
    return alloc(count * sizeof(T), kLineBytes, std::move(label));
  }

  // -- Functional access (host side; no timing) ------------------------------
  // Typed accesses that fit in one host chunk (all but a chunk-straddling
  // one) are a fixed-size memcpy inline; the rest take copy_out/copy_in.
  template <typename T>
  [[nodiscard]] T read(VAddr va) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    if (chunk_offset(va) + sizeof(T) <= kChunkBytes) {
      RACCD_DEBUG_ASSERT(va >= kArenaBase && va + sizeof(T) <= next_,
                         "functional read out of arena");
      std::memcpy(&out, chunks_[chunk_index(va)].get() + chunk_offset(va), sizeof(T));
    } else {
      copy_out(va, &out, sizeof(T));
    }
    return out;
  }
  template <typename T>
  void write(VAddr va, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (chunk_offset(va) + sizeof(T) <= kChunkBytes) {
      RACCD_DEBUG_ASSERT(va >= kArenaBase && va + sizeof(T) <= next_,
                         "functional write out of arena");
      std::memcpy(chunks_[chunk_index(va)].get() + chunk_offset(va), &value, sizeof(T));
    } else {
      copy_in(va, &value, sizeof(T));
    }
  }
  void copy_out(VAddr va, void* dst, std::uint64_t n) const;
  void copy_in(VAddr va, const void* src, std::uint64_t n);

  // -- Address-space queries --------------------------------------------------
  /// First-touch allocation defers physical placement: alloc() skips the
  /// eager page mapping and the machine maps each page on its first timed
  /// access via map_on_touch().
  [[nodiscard]] bool lazy_mapping() const noexcept {
    return phys_.policy() == AllocPolicy::kFirstTouch;
  }
  /// Map `vpage` to a frame on `socket` if it is not mapped yet (first
  /// touch wins; later touches from other sockets are no-ops).
  void map_on_touch(PageNum vpage, std::uint32_t socket) {
    if (!page_table_.mapped(vpage)) page_table_.map(vpage, phys_.alloc_frame_on(socket));
  }
  [[nodiscard]] const PageTable& page_table() const noexcept { return page_table_; }
  [[nodiscard]] PAddr translate(VAddr va) const { return page_table_.translate(va); }
  [[nodiscard]] std::uint64_t bytes_allocated() const noexcept { return next_ - kArenaBase; }
  [[nodiscard]] std::uint64_t pages_mapped() const noexcept { return page_table_.mapped_pages(); }
  [[nodiscard]] std::uint64_t phys_frames_used() const noexcept {
    return phys_.frames_allocated();
  }

  struct Allocation {
    std::string label;
    VAddr base;
    std::uint64_t bytes;
  };
  [[nodiscard]] const std::vector<Allocation>& allocations() const noexcept {
    return allocations_;
  }

 private:
  static constexpr std::uint64_t kChunkShift = 20;  // 1 MB host chunks
  static constexpr std::uint64_t kChunkBytes = 1ULL << kChunkShift;

  [[nodiscard]] std::uint64_t chunk_index(VAddr va) const noexcept {
    return (va - kArenaBase) >> kChunkShift;
  }
  [[nodiscard]] std::uint64_t chunk_offset(VAddr va) const noexcept {
    return (va - kArenaBase) & (kChunkBytes - 1);
  }
  void ensure_backing(VAddr up_to);

  PhysMemory phys_;
  PageTable page_table_;
  VAddr next_ = kArenaBase;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::vector<Allocation> allocations_;
};

}  // namespace raccd
