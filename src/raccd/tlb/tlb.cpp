#include "raccd/tlb/tlb.hpp"

#include "raccd/common/assert.hpp"

namespace raccd {

Tlb::Tlb(std::uint32_t capacity)
    : capacity_(capacity), flat_(capacity) {
  RACCD_ASSERT(capacity_ > 0, "TLB needs at least one entry");
  entries_.resize(capacity_);
  free_.reserve(capacity_);
  for (std::uint32_t i = 0; i < capacity_; ++i) free_.push_back(capacity_ - 1 - i);
}

void Tlb::unlink(std::uint32_t slot) noexcept {
  Entry& e = entries_[slot];
  if (e.prev != kNil) {
    entries_[e.prev].next = e.next;
  } else {
    head_ = e.next;
  }
  if (e.next != kNil) {
    entries_[e.next].prev = e.prev;
  } else {
    tail_ = e.prev;
  }
  e.prev = e.next = kNil;
}

void Tlb::push_front(std::uint32_t slot) noexcept {
  Entry& e = entries_[slot];
  e.prev = kNil;
  e.next = head_;
  if (head_ != kNil) entries_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

Tlb::Result Tlb::access(PageNum vpage, const PageTable& pt) {
  ++stats_.lookups;
  if (vpage == last_vpage_) {
    ++stats_.hits;
    return Result{true, last_pframe_};
  }
  if (const std::uint32_t* found = flat_.find(vpage)) {
    ++stats_.hits;
    const std::uint32_t slot = *found;
    if (slot != head_) {
      unlink(slot);
      push_front(slot);
    }
    last_vpage_ = vpage;
    last_pframe_ = entries_[slot].pframe;
    return Result{true, entries_[slot].pframe};
  }
  // Miss: walk the page table and install.
  ++stats_.misses;
  const PageNum pframe = pt.frame_of(vpage);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = tail_;
    ++stats_.evictions;
    flat_.erase(entries_[slot].vpage);
    unlink(slot);
  }
  entries_[slot].vpage = vpage;
  entries_[slot].pframe = pframe;
  push_front(slot);
  flat_.insert(vpage, slot);
  last_vpage_ = vpage;
  last_pframe_ = pframe;
  return Result{false, pframe};
}

bool Tlb::invalidate(PageNum vpage) {
  const std::uint32_t* found = flat_.find(vpage);
  if (found == nullptr) return false;
  ++stats_.shootdowns;
  const std::uint32_t slot = *found;
  unlink(slot);
  free_.push_back(slot);
  flat_.erase(vpage);
  if (last_vpage_ == vpage) last_vpage_ = ~PageNum{0};
  return true;
}

void Tlb::flush() {
  // Walk the LRU chain (valid entries exactly), then reset the index
  // wholesale.
  for (std::uint32_t slot = head_; slot != kNil;) {
    const std::uint32_t next = entries_[slot].next;
    entries_[slot].prev = entries_[slot].next = kNil;
    free_.push_back(slot);
    slot = next;
  }
  flat_.clear();
  head_ = tail_ = kNil;
  last_vpage_ = ~PageNum{0};
}

}  // namespace raccd
