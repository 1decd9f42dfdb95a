// Per-core TLB model: fully associative, true LRU (paper Table I: 256-entry
// fully-associative DTLB, 1 cycle).
//
// Timing convention: lookups that hit are folded into the L1 access (VIPT
// style) and cost no extra cycles; misses pay the page-walk latency from
// SimConfig. The RaCCD `raccd_register` translation loop (paper Fig. 5) and
// the PT baseline's classification both run through this structure.
#pragma once

#include <cstdint>
#include <vector>

#include "raccd/common/flat_map.hpp"
#include "raccd/common/stat_fields.hpp"
#include "raccd/common/types.hpp"
#include "raccd/mem/page_table.hpp"

namespace raccd {

// Field list (common/stat_fields.hpp): member, stats-text key, metric.
#define RACCD_TLB_STATS(X)                                                              \
  X(std::uint64_t, lookups, "tlb_lookups", "tlb.lookups", "tlb_lookups", "", kCounter,  \
    "TLB lookups")                                                                      \
  X(std::uint64_t, hits, "tlb_hits", "tlb.hits", "tlb_hits", "", kCounter, "TLB hits")  \
  X(std::uint64_t, misses, "tlb_misses", "tlb.misses", "tlb_misses", "", kCounter,      \
    "TLB misses (page walks)")                                                          \
  X(std::uint64_t, shootdowns, "tlb_shootdowns", "tlb.shootdowns", "tlb_shootdowns", "", \
    kCounter, "entries invalidated by remote shootdown")                                \
  X(std::uint64_t, evictions, "tlb_evictions", "tlb.evictions", "tlb_evictions", "",    \
    kCounter, "capacity-driven LRU evictions")

struct TlbStats {
  RACCD_TLB_STATS(RACCD_STAT_MEMBER)
  RACCD_STAT_FOR_EACH(RACCD_TLB_STATS)
  void add(const TlbStats& o) noexcept { add_fields(*this, o); }
};
static_assert(stat_fields_cover<TlbStats>(), "TlbStats member outside its field list");

class Tlb {
 public:
  explicit Tlb(std::uint32_t capacity);

  struct Result {
    bool hit = false;
    PageNum pframe = 0;
  };

  /// Look up vpage; on miss, walk `pt` and install the translation (evicting
  /// the LRU entry if full). Result.hit reports whether the walk was needed.
  Result access(PageNum vpage, const PageTable& pt);

  /// Invalidate one entry (TLB shootdown). Returns true if it was present.
  bool invalidate(PageNum vpage);

  void flush();

  [[nodiscard]] bool contains(PageNum vpage) const noexcept {
    return const_cast<Tlb*>(this)->flat_.find(vpage) != nullptr;
  }
  [[nodiscard]] std::uint32_t size() const noexcept { return flat_.size(); }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const TlbStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    PageNum vpage = 0;
    PageNum pframe = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  void unlink(std::uint32_t slot) noexcept;
  void push_front(std::uint32_t slot) noexcept;

  std::uint32_t capacity_;
  std::vector<Entry> entries_;          // slot storage
  std::vector<std::uint32_t> free_;     // free slots
  OpenPageMap flat_;                    // vpage -> slot index
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  // Single-entry filter for the common same-page-as-last-access case; keeps
  // host cost of the per-access timing lookup negligible.
  PageNum last_vpage_ = ~PageNum{0};
  PageNum last_pframe_ = 0;
  TlbStats stats_;
};

}  // namespace raccd
