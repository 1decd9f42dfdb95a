#include "raccd/core/ncrt.hpp"

#include <algorithm>

#include "raccd/common/assert.hpp"

namespace raccd {

Ncrt::Ncrt(std::uint32_t capacity) : capacity_(capacity) {
  RACCD_ASSERT(capacity_ > 0, "NCRT needs at least one entry");
  entries_.reserve(capacity_);
}

bool Ncrt::insert(PAddr start, PAddr end) {
  RACCD_ASSERT(start < end, "empty NCRT region");
  if (full()) {
    ++stats_.overflows;
    return false;
  }
  // Keep the table sorted by start address (<= 32 entries, so the shifting
  // insert is trivial); the modelled hardware compares all entries in
  // parallel and is order-blind.
  const auto it =
      std::upper_bound(entries_.begin(), entries_.end(), start,
                       [](PAddr s, const AddrRange& r) { return s < r.begin; });
  entries_.insert(it, AddrRange{start, end});
  memo_ = AddrRange{0, 0};
  ++stats_.inserts;
  return true;
}

bool Ncrt::lookup(PAddr pa) noexcept {
  ++stats_.lookups;
  if (memo_.contains(pa)) {
    if (memo_hit_) ++stats_.hits;
    return memo_hit_;
  }
  // Sorted early-exit scan. While scanning, derive the bracketing interval
  // over which the answer is constant and memoize it: the containing region
  // on a hit; on a miss, the gap from the highest end at or below `pa` to
  // the first start above it (the table is frozen between register and
  // invalidate, so the memo stays valid until the next insert/clear).
  PAddr gap_lo = 0;
  PAddr gap_hi = ~PAddr{0};
  for (const AddrRange& r : entries_) {
    if (r.begin > pa) {
      gap_hi = r.begin;  // sorted: first start above pa
      break;
    }
    if (pa < r.end) {
      memo_ = r;
      memo_hit_ = true;
      ++stats_.hits;
      return true;
    }
    gap_lo = std::max(gap_lo, r.end);
  }
  memo_ = AddrRange{gap_lo, gap_hi};
  memo_hit_ = false;
  return false;
}

void Ncrt::clear() noexcept {
  entries_.clear();
  memo_ = AddrRange{0, 0};
  ++stats_.clears;
}

}  // namespace raccd
