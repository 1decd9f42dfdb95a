// ADR configuration and statistics, split from adr.hpp so stats-only
// consumers (SimConfig, SimStats, report) don't pull in the controller and
// the full fabric it drives.
#pragma once

#include <cstdint>

#include "raccd/common/stat_fields.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

struct AdrConfig {
  bool enabled = false;
  double theta_inc = 0.80;
  double theta_dec = 0.20;
  /// Lower bound on powered sets, as a divisor of the configured size
  /// (256 == the paper's most extreme static configuration, 1:256).
  std::uint32_t min_sets_divisor = 256;
};

// Field list (common/stat_fields.hpp): member, stats-text key, metric.
#define RACCD_ADR_STATS(X)                                                               \
  X(std::uint64_t, polls, "adr_polls", "adr.polls", "adr_polls", "", kCounter,           \
    "ADR monitor polls")                                                                 \
  X(std::uint64_t, grows, "adr_grows", "adr.grows", "adr_grows", "", kCounter,           \
    "directory grow reconfigs")                                                          \
  X(std::uint64_t, shrinks, "adr_shrinks", "adr.shrinks", "adr_shrinks", "", kCounter,   \
    "directory shrink reconfigs")                                                        \
  X(std::uint64_t, entries_moved, "adr_entries_moved", "adr.entries_moved",              \
    "adr_entries_moved", "", kCounter, "entries rehashed by resizes")                    \
  X(std::uint64_t, entries_displaced, "adr_entries_displaced", "adr.entries_displaced",  \
    "adr_entries_displaced", "", kCounter, "entries recalled by shrinks")                \
  X(Cycle, blocked_cycles, "adr_blocked_cycles", "adr.blocked_cycles",                   \
    "adr_blocked_cycles", "cycles", kCycles, "bank-blocked cycles during resizes")

struct AdrStats {
  RACCD_ADR_STATS(RACCD_STAT_MEMBER)
  RACCD_STAT_FOR_EACH(RACCD_ADR_STATS)
};
static_assert(stat_fields_cover<AdrStats>(), "AdrStats member outside its field list");

}  // namespace raccd
