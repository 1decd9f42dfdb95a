#include "raccd/core/adr.hpp"

#include <algorithm>
#include <bit>

#include "raccd/common/assert.hpp"

namespace raccd {

AdrController::AdrController(Fabric& fabric, const AdrConfig& cfg)
    : fabric_(fabric), cfg_(cfg) {
  RACCD_ASSERT(cfg_.theta_dec < cfg_.theta_inc, "ADR thresholds must form a hysteresis band");
  const std::uint32_t total = fabric_.dir(0).total_sets();
  min_sets_ = std::max(1u, total / std::max(1u, cfg_.min_sets_divisor));
}

void AdrController::poll_dirty(Cycle now) {
  std::uint64_t mask = fabric_.take_dir_occupancy_dirty_mask();
  if (mask == 0) return;
  ++stats_.polls;
  while (mask != 0) {
    const BankId b = static_cast<BankId>(std::countr_zero(mask));
    mask &= mask - 1;
    consider_bank(b, now);
  }
}

void AdrController::poll_all(Cycle now) {
  if (!cfg_.enabled) return;
  (void)fabric_.take_dir_occupancy_dirty_mask();
  ++stats_.polls;
  for (BankId b = 0; b < fabric_.config().cores; ++b) {
    consider_bank(b, now);
  }
}

void AdrController::consider_bank(BankId b, Cycle now) {
  DirectoryBank& bank = fabric_.dir(b);
  const auto active = static_cast<double>(bank.active_entries());
  const auto valid = static_cast<double>(bank.valid_entries());
  if (valid >= cfg_.theta_inc * active && bank.active_sets() < bank.total_sets()) {
    const auto out = fabric_.resize_dir_bank(b, bank.active_sets() * 2, now);
    ++stats_.grows;
    stats_.entries_moved += out.moved;
    stats_.entries_displaced += out.displaced;
    stats_.blocked_cycles += out.blocked_cycles;
  } else if (valid <= cfg_.theta_dec * active && bank.active_sets() > min_sets_) {
    // Multi-socket damper: a bank's working set tracks its socket's pages
    // (home banks are socket-local), so while the socket as a whole sits at
    // the grow threshold, powering this bank down would bounce straight
    // back — skip the shrink. Single-socket machines keep the pure per-bank
    // hysteresis of the paper.
    const Topology& topo = fabric_.topology();
    if (topo.sockets() > 1 &&
        fabric_.socket_dir_occupancy(topo.socket_of(b)) >= cfg_.theta_inc) {
      return;
    }
    const auto out = fabric_.resize_dir_bank(b, bank.active_sets() / 2, now);
    ++stats_.shrinks;
    stats_.entries_moved += out.moved;
    stats_.entries_displaced += out.displaced;
    stats_.blocked_cycles += out.blocked_cycles;
  }
}

}  // namespace raccd
