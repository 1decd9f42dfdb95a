// Non-Coherent Region Table (paper Fig. 4/5; Table I: 32 entries/core,
// 1-cycle access).
//
// Each entry holds the byte-precise start and end *physical* addresses of a
// non-coherent region of the currently executing task. The RTS fills the
// table via raccd_register before a task runs and clears it with
// raccd_invalidate when the task ends. Private-cache misses consult the NCRT
// to pick the coherent or non-coherent transaction variant. A full table
// silently rejects new regions: their accesses simply remain coherent
// (paper §III-C.2), which is a correctness-neutral fallback.
#pragma once

#include <cstdint>
#include <vector>

#include "raccd/common/stat_fields.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

// Field list (common/stat_fields.hpp): member, stats-text key, metric.
#define RACCD_NCRT_STATS(X)                                                          \
  X(std::uint64_t, lookups, "ncrt_lookups", "ncrt.lookups", "ncrt_lookups", "",      \
    kCounter, "NCRT lookups on the L1 miss path")                                    \
  X(std::uint64_t, hits, "ncrt_hits", "ncrt.hits", "ncrt_hits", "", kCounter,        \
    "NCRT hits (access goes NC)")                                                    \
  X(std::uint64_t, inserts, "ncrt_inserts", "ncrt.inserts", "ncrt_inserts", "",      \
    kCounter, "regions inserted by raccd_register")                                  \
  X(std::uint64_t, overflows, "ncrt_overflows", "ncrt.overflows", "ncrt_overflows",  \
    "", kCounter, "regions rejected because the table was full")                     \
  X(std::uint64_t, clears, "ncrt_clears", "ncrt.clears", "ncrt_clears", "", kCounter, \
    "NCRT clears at task end")

struct NcrtStats {
  RACCD_NCRT_STATS(RACCD_STAT_MEMBER)
  RACCD_STAT_FOR_EACH(RACCD_NCRT_STATS)
};
static_assert(stat_fields_cover<NcrtStats>(), "NcrtStats member outside its field list");

class Ncrt {
 public:
  explicit Ncrt(std::uint32_t capacity = 32);

  /// Insert a physical byte range [start, end). Returns false (and counts an
  /// overflow) when the table is full. Adjacent/contiguous with the last
  /// entry is the caller's concern (raccd_register collapses before insert).
  /// Entries are kept sorted by start address so lookups can stop at the
  /// first entry past `pa`.
  bool insert(PAddr start, PAddr end);

  /// True when `pa` falls inside any registered region.
  ///
  /// Host fast path (the modelled single-cycle CAM lookup is unchanged, as
  /// are the lookups/hits counters): the table is frozen between
  /// raccd_register and raccd_invalidate, so each resolved lookup memoizes
  /// the bracketing interval over which its answer is constant — the
  /// containing region on a hit, the gap to the neighbouring regions on a
  /// miss. Replayed accesses streaming through a region (the common case)
  /// answer from the memo without scanning.
  [[nodiscard]] bool lookup(PAddr pa) noexcept;

  /// Drop all entries (raccd_invalidate).
  void clear() noexcept;

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool full() const noexcept { return size() >= capacity_; }
  [[nodiscard]] const NcrtStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<AddrRange>& entries() const noexcept { return entries_; }

 private:
  std::uint32_t capacity_;
  std::vector<AddrRange> entries_;  ///< sorted by begin
  AddrRange memo_{0, 0};  ///< interval with a constant answer; empty = none
  bool memo_hit_ = false;
  NcrtStats stats_;
};

}  // namespace raccd
