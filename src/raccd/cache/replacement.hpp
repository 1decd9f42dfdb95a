// Replacement policies for the set-associative structures (L1, LLC banks,
// directory banks). Tree-PLRU is the paper's pseudoLRU (Table I); true LRU
// and FIFO are provided for tests/ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"

namespace raccd {

enum class ReplPolicy : std::uint8_t { kTreePlru, kLru, kFifo };

[[nodiscard]] constexpr const char* to_string(ReplPolicy p) noexcept {
  switch (p) {
    case ReplPolicy::kTreePlru: return "tree-plru";
    case ReplPolicy::kLru: return "lru";
    case ReplPolicy::kFifo: return "fifo";
  }
  return "?";
}

/// Replacement state for one cache, all sets.
///
/// Tree-PLRU keeps ways-1 tree bits per set packed in a uint64 (ways <= 64,
/// power-of-two). LRU/FIFO keep an age counter per way.
class ReplacementState {
 public:
  ReplacementState(ReplPolicy policy, std::uint32_t sets, std::uint32_t ways);

  /// Record an access to (set, way).
  void touch(std::uint32_t set, std::uint32_t way) noexcept {
    RACCD_DEBUG_ASSERT(set < sets_ && way < ways_, "touch out of range");
    if (policy_ != ReplPolicy::kTreePlru) {
      touch_aged(set, way);
      return;
    }
    if (levels_ == 0) return;
    // Walk root->leaf; at each level point the tree bit AWAY from `way`
    // (victim() follows the bits: 0 = left, 1 = right).
    std::uint64_t bits = tree_[set];
    std::uint32_t node = 0;  // heap-style index, root = 0
    for (unsigned level = 0; level < levels_; ++level) {
      const std::uint32_t bit = (way >> (levels_ - 1 - level)) & 1u;
      if (bit != 0) {
        bits &= ~(1ULL << node);  // way is in right subtree -> point left (0)
      } else {
        bits |= (1ULL << node);  // way is in left subtree -> point right (1)
      }
      node = 2 * node + 1 + bit;
    }
    tree_[set] = bits;
  }

  /// Way to evict in `set` (callers prefer invalid ways before asking).
  [[nodiscard]] std::uint32_t victim(std::uint32_t set) const noexcept;

  [[nodiscard]] ReplPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }

 private:
  /// touch() for the age-stamp policies (LRU, FIFO).
  void touch_aged(std::uint32_t set, std::uint32_t way) noexcept;

  ReplPolicy policy_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  unsigned levels_ = 0;                 // log2(ways), tree-PLRU only
  std::vector<std::uint64_t> tree_;     // tree bits per set (tree-PLRU)
  std::vector<std::uint64_t> age_;      // per (set, way) stamp (LRU/FIFO)
  std::uint64_t clock_ = 0;
};

}  // namespace raccd
