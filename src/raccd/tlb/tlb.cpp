#include "raccd/tlb/tlb.hpp"

#include <algorithm>

#include "raccd/common/assert.hpp"

namespace raccd {

Tlb::Tlb(std::uint32_t capacity)
    : capacity_(capacity), flat_(capacity) {
  RACCD_ASSERT(capacity_ > 0 && capacity_ <= kUse, "TLB needs 1 to 65536 entries");
  vpages_.resize(capacity_);
  pframes_.resize(capacity_);
  stamps_.resize(capacity_);
  free_.reserve(capacity_);
  for (std::uint32_t i = 0; i < capacity_; ++i) free_.push_back(capacity_ - 1 - i);
}

Tlb::Result Tlb::miss(PageNum vpage, const PageTable& pt) {
  ++stats_.misses;
  const PageNum pframe = pt.frame_of(vpage);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    // Full: every slot is valid, so the smallest stamp is the LRU entry's
    // and carries its slot. Four independent running minima keep the
    // branch-free reduction from serializing on one compare chain.
    std::uint64_t lo[4] = {~std::uint64_t{0}, ~std::uint64_t{0}, ~std::uint64_t{0},
                           ~std::uint64_t{0}};
    const std::uint64_t* s = stamps_.data();
    std::uint32_t i = 0;
    for (; i + 4 <= capacity_; i += 4) {
      for (unsigned k = 0; k < 4; ++k) lo[k] = std::min(lo[k], s[i + k]);
    }
    for (; i < capacity_; ++i) lo[0] = std::min(lo[0], s[i]);
    const std::uint64_t oldest = std::min(std::min(lo[0], lo[1]), std::min(lo[2], lo[3]));
    slot = static_cast<std::uint32_t>(oldest & (kUse - 1));
    ++stats_.evictions;
    flat_.erase(vpages_[slot]);
  }
  vpages_[slot] = vpage;
  pframes_[slot] = pframe;
  stamp(slot);
  flat_.insert(vpage, slot);
  last_vpage_ = vpage;
  last_pframe_ = pframe;
  return Result{false, pframe};
}

bool Tlb::invalidate(PageNum vpage) {
  const std::uint32_t* found = flat_.find(vpage);
  if (found == nullptr) return false;
  ++stats_.shootdowns;
  free_.push_back(*found);
  flat_.erase(vpage);
  if (last_vpage_ == vpage) last_vpage_ = ~PageNum{0};
  return true;
}

void Tlb::flush() {
  // Every slot becomes free; stale stamps are never read, since the victim
  // scan only runs once all slots are in use again.
  free_.clear();
  for (std::uint32_t i = 0; i < capacity_; ++i) free_.push_back(capacity_ - 1 - i);
  flat_.clear();
  last_vpage_ = ~PageNum{0};
}

}  // namespace raccd
