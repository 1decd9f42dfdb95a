#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <utility>

#include "raccd/common/rng.hpp"
#include "raccd/mem/page_table.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {
namespace {

class TlbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (PageNum v = 0; v < 1024; ++v) pt_.map(v, v + 100);
  }
  PageTable pt_;
};

TEST_F(TlbTest, MissThenHit) {
  Tlb tlb(4);
  auto r = tlb.access(5, pt_);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.pframe, 105u);
  r = tlb.access(5, pt_);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.pframe, 105u);
  EXPECT_EQ(tlb.stats().misses, 1u);
  EXPECT_EQ(tlb.stats().hits, 1u);
}

TEST_F(TlbTest, LruEviction) {
  Tlb tlb(2);
  tlb.access(1, pt_);
  tlb.access(2, pt_);
  tlb.access(1, pt_);  // 1 is now MRU; victim is 2
  tlb.access(3, pt_);  // evicts 2
  EXPECT_TRUE(tlb.contains(1));
  EXPECT_FALSE(tlb.contains(2));
  EXPECT_TRUE(tlb.contains(3));
  EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST_F(TlbTest, FastPathDoesNotBreakLru) {
  Tlb tlb(2);
  tlb.access(1, pt_);
  tlb.access(1, pt_);  // same-page fast path
  tlb.access(1, pt_);
  tlb.access(2, pt_);
  tlb.access(3, pt_);  // evicts 1 (LRU among {1,2})
  EXPECT_FALSE(tlb.contains(1));
  EXPECT_TRUE(tlb.contains(2));
  EXPECT_TRUE(tlb.contains(3));
}

TEST_F(TlbTest, InvalidateShootdown) {
  Tlb tlb(4);
  tlb.access(7, pt_);
  EXPECT_TRUE(tlb.contains(7));
  EXPECT_TRUE(tlb.invalidate(7));
  EXPECT_FALSE(tlb.contains(7));
  EXPECT_FALSE(tlb.invalidate(7));  // second shootdown misses
  EXPECT_EQ(tlb.stats().shootdowns, 1u);
  // Invalidated entry must re-walk, and the slot must be reusable.
  auto r = tlb.access(7, pt_);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(tlb.size(), 1u);
}

TEST_F(TlbTest, InvalidateClearsFastPath) {
  Tlb tlb(4);
  tlb.access(9, pt_);
  tlb.invalidate(9);
  const auto r = tlb.access(9, pt_);  // must not be served by the stale filter
  EXPECT_FALSE(r.hit);
}

TEST_F(TlbTest, FlushEmptiesEverything) {
  Tlb tlb(8);
  for (PageNum v = 0; v < 8; ++v) tlb.access(v, pt_);
  EXPECT_EQ(tlb.size(), 8u);
  tlb.flush();
  EXPECT_EQ(tlb.size(), 0u);
  for (PageNum v = 0; v < 8; ++v) EXPECT_FALSE(tlb.contains(v));
  const auto r = tlb.access(0, pt_);
  EXPECT_FALSE(r.hit);
}

TEST_F(TlbTest, CapacityStress) {
  Tlb tlb(256);
  for (PageNum v = 0; v < 1024; ++v) tlb.access(v, pt_);
  EXPECT_EQ(tlb.size(), 256u);
  // The most recent 256 pages are resident.
  for (PageNum v = 1024 - 256; v < 1024; ++v) EXPECT_TRUE(tlb.contains(v));
  EXPECT_FALSE(tlb.contains(0));
}

/// Reference model: true LRU as an MRU-first std::list, no same-page filter.
class ListLru {
 public:
  explicit ListLru(std::uint32_t capacity) : capacity_(capacity) {}

  Tlb::Result access(PageNum vpage, const PageTable& pt) {
    ++stats.lookups;
    if (const auto it = find(vpage); it != lru_.end()) {
      ++stats.hits;
      lru_.splice(lru_.begin(), lru_, it);
      return Tlb::Result{true, it->second};
    }
    ++stats.misses;
    if (lru_.size() == capacity_) {
      lru_.pop_back();
      ++stats.evictions;
    }
    lru_.emplace_front(vpage, pt.frame_of(vpage));
    return Tlb::Result{false, lru_.front().second};
  }
  bool invalidate(PageNum vpage) {
    const auto it = find(vpage);
    if (it == lru_.end()) return false;
    lru_.erase(it);
    ++stats.shootdowns;
    return true;
  }
  void flush() { lru_.clear(); }
  [[nodiscard]] bool contains(PageNum vpage) const {
    return std::any_of(lru_.begin(), lru_.end(),
                       [vpage](const auto& e) { return e.first == vpage; });
  }
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(lru_.size()); }

  TlbStats stats;

 private:
  std::list<std::pair<PageNum, PageNum>>::iterator find(PageNum vpage) {
    return std::find_if(lru_.begin(), lru_.end(),
                        [vpage](const auto& e) { return e.first == vpage; });
  }
  std::uint32_t capacity_;
  std::list<std::pair<PageNum, PageNum>> lru_;
};

class TlbDifferential : public TlbTest,
                        public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(TlbDifferential, MatchesListLruUnderMixedStreams) {
  const std::uint32_t capacity = GetParam();
  // Pages from a range a little over twice the capacity: hits, misses and
  // capacity evictions all stay common.
  const PageNum pages = 2 * capacity + 3;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Tlb tlb(capacity);
    ListLru ref(capacity);
    Rng rng(seed * 7919 + capacity);
    PageNum last = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t roll = rng.next_below(1000);
      const PageNum vpage = roll < 300 ? last : rng.next_below(pages);
      if (roll >= 300 && roll < 340) {
        ASSERT_EQ(tlb.invalidate(vpage), ref.invalidate(vpage)) << "step " << step;
      } else if (roll >= 340 && roll < 345) {
        tlb.flush();
        ref.flush();
      } else {
        const Tlb::Result got = tlb.access(vpage, pt_);
        const Tlb::Result want = ref.access(vpage, pt_);
        ASSERT_EQ(got.hit, want.hit) << "step " << step << " page " << vpage;
        ASSERT_EQ(got.pframe, want.pframe) << "step " << step;
        last = vpage;
      }
      const TlbStats& s = tlb.stats();
      ASSERT_EQ(s.lookups, ref.stats.lookups) << "step " << step;
      ASSERT_EQ(s.hits, ref.stats.hits) << "step " << step;
      ASSERT_EQ(s.misses, ref.stats.misses) << "step " << step;
      ASSERT_EQ(s.shootdowns, ref.stats.shootdowns) << "step " << step;
      ASSERT_EQ(s.evictions, ref.stats.evictions) << "step " << step;
      ASSERT_EQ(tlb.size(), ref.size()) << "step " << step;
      for (PageNum p = 0; p < pages; ++p) {
        ASSERT_EQ(tlb.contains(p), ref.contains(p)) << "step " << step << " page " << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbDifferential, ::testing::Values(1u, 2u, 7u, 256u));

}  // namespace
}  // namespace raccd
