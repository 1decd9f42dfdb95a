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
  Result access(PageNum vpage, const PageTable& pt) {
    ++stats_.lookups;
    // The last-accessed page already holds the newest stamp, so serving it
    // without a new one leaves the LRU order unchanged.
    if (vpage == last_vpage_) {
      ++stats_.hits;
      return Result{true, last_pframe_};
    }
    if (const std::uint32_t* found = flat_.find(vpage)) {
      ++stats_.hits;
      const std::uint32_t slot = *found;
      stamp(slot);
      last_vpage_ = vpage;
      last_pframe_ = pframes_[slot];
      return Result{true, last_pframe_};
    }
    return miss(vpage, pt);
  }

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
  /// Walk the page table and install vpage, evicting the LRU entry if full.
  Result miss(PageNum vpage, const PageTable& pt);

  // Exact LRU by use stamp: every access that is not a same-page repeat
  // gives its slot a fresh stamp, a strictly increasing use count in the
  // high bits over the slot index in the low kSlotBits. The least recently
  // used entry holds the smallest stamp, whose low bits name its slot, so
  // the full-TLB victim search is one min reduction over the contiguous
  // stamp array. The 48-bit use count cannot wrap in any feasible run.
  static constexpr unsigned kSlotBits = 16;
  static constexpr std::uint64_t kUse = std::uint64_t{1} << kSlotBits;
  void stamp(std::uint32_t slot) noexcept {
    clock_ += kUse;
    stamps_[slot] = clock_ | slot;
  }

  std::uint32_t capacity_;
  // Slot storage, one array per field.
  std::vector<PageNum> vpages_;
  std::vector<PageNum> pframes_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;  // use count << kSlotBits
  std::vector<std::uint32_t> free_;  // free slots
  OpenPageMap flat_;                 // vpage -> slot index
  // Single-entry filter for the common same-page-as-last-access case; keeps
  // host cost of the per-access timing lookup negligible.
  PageNum last_vpage_ = ~PageNum{0};
  PageNum last_pframe_ = 0;
  TlbStats stats_;
};

}  // namespace raccd
