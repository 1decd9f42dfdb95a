#include "raccd/cache/replacement.hpp"

namespace raccd {

ReplacementState::ReplacementState(ReplPolicy policy, std::uint32_t sets, std::uint32_t ways)
    : policy_(policy), sets_(sets), ways_(ways) {
  RACCD_ASSERT(sets > 0 && ways > 0, "degenerate cache geometry");
  if (policy_ == ReplPolicy::kTreePlru) {
    RACCD_ASSERT(is_pow2(ways) && ways <= 64, "tree-PLRU requires pow2 ways <= 64");
    levels_ = log2_exact(ways);
    tree_.assign(sets, 0);
  } else {
    age_.assign(static_cast<std::size_t>(sets) * ways, 0);
  }
}

void ReplacementState::touch_aged(std::uint32_t set, std::uint32_t way) noexcept {
  auto& stamp = age_[static_cast<std::size_t>(set) * ways_ + way];
  if (policy_ == ReplPolicy::kLru) {
    stamp = ++clock_;
  } else if (stamp == 0) {
    // FIFO stamps only on first touch (fill); callers touch on every
    // access, so only overwrite a zero stamp.
    stamp = ++clock_;
  }
}

std::uint32_t ReplacementState::victim(std::uint32_t set) const noexcept {
  RACCD_DEBUG_ASSERT(set < sets_, "victim out of range");
  switch (policy_) {
    case ReplPolicy::kTreePlru: {
      if (levels_ == 0) return 0;
      const std::uint64_t bits = tree_[set];
      std::uint32_t node = 0;
      std::uint32_t way = 0;
      for (unsigned level = 0; level < levels_; ++level) {
        const std::uint32_t bit = static_cast<std::uint32_t>((bits >> node) & 1u);
        way = (way << 1) | bit;
        node = 2 * node + 1 + bit;
      }
      return way;
    }
    case ReplPolicy::kLru:
    case ReplPolicy::kFifo: {
      std::uint32_t best = 0;
      std::uint64_t best_age = ~std::uint64_t{0};
      for (std::uint32_t w = 0; w < ways_; ++w) {
        const std::uint64_t a = age_[static_cast<std::size_t>(set) * ways_ + w];
        if (a < best_age) {
          best_age = a;
          best = w;
        }
      }
      return best;
    }
  }
  return 0;
}

}  // namespace raccd
