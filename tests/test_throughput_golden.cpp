// Flat-structure suite: the hot-path structures (PagedLineMap, OpenAddrMap,
// SoA tag probes, sorted+memo NCRT) are host-side optimizations only — the
// modelled machine must be bit-for-bit unchanged. Two layers here:
//
//  1. Unit tests of the containers against reference semantics written in
//     the test (a hash map for the line map and the page index).
//  2. Structure-level references: random traffic through L1/LLC/directory
//     must keep every SoA tag probe in agreement with a scan of the AoS
//     records, across directory resize; the NCRT and its memo must agree
//     with a containment scan, counters included.
//
// End to end, tests/test_loop_golden.cpp pins the stats of every workload
// under every backend, so a structure that changes any simulated number
// fails there. The pinned default cache key below keeps warm sweep caches
// valid (kStatsFormatVersion not bumped).
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "raccd/cache/l1_cache.hpp"
#include "raccd/cache/llc_bank.hpp"
#include "raccd/coherence/directory.hpp"
#include "raccd/common/flat_map.hpp"
#include "raccd/common/rng.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"

namespace raccd {
namespace {

// ---------------------------------------------------------------------------
// PagedLineMap

TEST(PagedLineMap, DefaultZeroWithoutAllocation) {
  PagedLineMap m;
  EXPECT_EQ(m.get(0), 0u);
  EXPECT_EQ(m.get(123456789), 0u);
  EXPECT_EQ(m.allocated_chunks(), 0u);  // get() never commits storage
}

TEST(PagedLineMap, SetGetRoundTripAndChunkGrowth) {
  PagedLineMap m;
  m.reserve_lines(1 << 20);
  m.set(0, 7);
  m.set(PagedLineMap::kChunkLines - 1, 8);  // last slot of chunk 0
  m.set(PagedLineMap::kChunkLines, 9);      // first slot of chunk 1
  m.set((1ull << 30), 10);                  // far past the reserve hint
  EXPECT_EQ(m.get(0), 7u);
  EXPECT_EQ(m.get(PagedLineMap::kChunkLines - 1), 8u);
  EXPECT_EQ(m.get(PagedLineMap::kChunkLines), 9u);
  EXPECT_EQ(m.get(1ull << 30), 10u);
  EXPECT_EQ(m.get(1), 0u);  // untouched neighbors stay zero
  EXPECT_EQ(m.allocated_chunks(), 3u);
  m.set(0, 0);  // storing zero is a store, not an erase
  EXPECT_EQ(m.get(0), 0u);
  EXPECT_EQ(m.allocated_chunks(), 3u);
}

TEST(PagedLineMap, MatchesHashMapUnderRandomTraffic) {
  PagedLineMap flat;
  std::unordered_map<LineAddr, std::uint64_t> ref;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const LineAddr line = rng.next_below(1 << 16);
    if (rng.next_below(2) == 0) {
      const std::uint64_t v = rng.next_below(1 << 20);
      flat.set(line, v);
      ref[line] = v;
    } else {
      const auto it = ref.find(line);
      EXPECT_EQ(flat.get(line), it == ref.end() ? 0u : it->second);
    }
  }
}

// ---------------------------------------------------------------------------
// OpenPageMap

TEST(OpenPageMap, InsertFindEraseClear) {
  OpenPageMap m(64);
  EXPECT_GE(m.capacity(), 256u);  // <= 25% load factor
  EXPECT_EQ(m.find(5), nullptr);
  m.insert(5, 50);
  m.insert(6, 60);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50u);
  EXPECT_EQ(*m.find(6), 60u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_EQ(*m.find(6), 60u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(6), nullptr);
}

TEST(OpenPageMap, BackwardShiftKeepsCollidedKeysFindable) {
  // Erase keys out of the middle of long probe runs under colliding traffic;
  // backward-shift deletion must keep every surviving key reachable.
  OpenPageMap m(128);
  std::unordered_map<PageNum, std::uint32_t> ref;
  Rng rng(12);
  for (int i = 0; i < 40000; ++i) {
    // Small key range forces home-slot collisions and multi-slot probe runs.
    const PageNum key = rng.next_below(192);
    if (ref.size() < 128 && rng.next_below(3) != 0) {
      if (ref.find(key) == ref.end()) {
        const std::uint32_t v = static_cast<std::uint32_t>(rng.next_below(1 << 20));
        m.insert(key, v);
        ref[key] = v;
      }
    } else {
      EXPECT_EQ(m.erase(key), ref.erase(key) == 1);
    }
    const PageNum probe = rng.next_below(192);
    const auto it = ref.find(probe);
    std::uint32_t* got = m.find(probe);
    if (it == ref.end()) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, it->second);
    }
    EXPECT_EQ(m.size(), ref.size());
  }
}

TEST(OpenAddrMap, GrowsPastThreeQuartersLoadAndKeepsEveryKey) {
  // The dependence registry's shape: 64-bit address keys, wide values, an
  // entry count unknown up front. Growth must rehash every entry.
  OpenAddrMap<VAddr, std::uint64_t> m;
  EXPECT_EQ(m.capacity(), 16u);
  std::unordered_map<VAddr, std::uint64_t> ref;
  Rng rng(13);
  while (ref.size() < 5000) {
    const VAddr key = rng.next_below(1ull << 40) * 8;
    if (ref.count(key) != 0) continue;
    m.insert(key, key ^ 0xABCDu);
    ref[key] = key ^ 0xABCDu;
    ASSERT_LE(m.size() * 4, m.capacity() * 3);
  }
  EXPECT_EQ(m.size(), ref.size());
  EXPECT_EQ(m.capacity(), 8192u);  // 5000 entries: the first power of two at <= 75%
  for (const auto& [key, value] : ref) {
    ASSERT_NE(m.find(key), nullptr);
    EXPECT_EQ(*m.find(key), value);
  }
  EXPECT_EQ(m.find(12345), nullptr);
  // A table sized for its entries up front (the TLB index) never grows.
  OpenPageMap fixed(64);
  const std::uint32_t cap = fixed.capacity();
  for (PageNum p = 0; p < 64; ++p) fixed.insert(p, static_cast<std::uint32_t>(p));
  EXPECT_EQ(fixed.capacity(), cap);
}

// ---------------------------------------------------------------------------
// SoA tag probes against their AoS records
//
// find() probes the SoA tag mirror; for_each_valid() walks the AoS records.
// The records are the reference: after every operation the line it touched
// (and any line it displaced) must be found exactly where a scan of the
// records finds it, and the scanned count must equal the structure's own.

/// find(line) must return the very record a scan of the records finds
/// (nullptr when none holds the line), and the scanned count must equal
/// `valid`, the structure's own count.
template <typename Tags>
void check_find(const Tags& tags, LineAddr line, std::uint32_t valid) {
  const void* want = nullptr;
  std::uint32_t scanned = 0;
  tags.for_each_valid([&](const auto& rec) {
    ++scanned;
    if (rec.line == line) want = &rec;
  });
  ASSERT_EQ(static_cast<const void*>(tags.find(line)), want) << "line " << line;
  ASSERT_EQ(scanned, valid);
}

/// Valid records the scan finds in `line`'s set.
template <typename Tags>
[[nodiscard]] std::uint32_t scan_set(const Tags& tags, LineAddr line) {
  std::uint32_t n = 0;
  tags.for_each_valid(
      [&](const auto& rec) { n += tags.set_of(rec.line) == tags.set_of(line); });
  return n;
}

/// Every scanned record is what find() returns for its line (which also
/// rules out a line resident twice).
template <typename Tags>
void expect_every_record_findable(const Tags& tags) {
  tags.for_each_valid([&](const auto& rec) {
    EXPECT_EQ(static_cast<const void*>(tags.find(rec.line)), &rec) << "line " << rec.line;
  });
}

TEST(SoaTags, L1FindMatchesRecordScanUnderRandomTraffic) {
  L1Cache l1{L1Geometry{}};
  Rng rng(13);
  for (int i = 0; i < 50000; ++i) {
    const LineAddr line = rng.next_below(2048);  // 4x capacity: many conflicts
    switch (rng.next_below(3)) {
      case 0:
        break;  // lookup only
      case 1: {
        if (l1.find(line) == nullptr) {
          const L1Line victim = l1.fill(line, false, Mesi::kShared, false, i);
          if (victim.valid) {
            ASSERT_NO_FATAL_FAILURE(check_find(l1, victim.line, l1.valid_lines()));
          }
        }
        break;
      }
      default:
        (void)l1.invalidate(line);
        break;
    }
    ASSERT_NO_FATAL_FAILURE(check_find(l1, line, l1.valid_lines()));
  }
  expect_every_record_findable(l1);
}

TEST(SoaTags, LlcFindMatchesRecordScanUnderRandomTraffic) {
  LlcGeometry geo;
  geo.lines_per_bank = 512;
  LlcBank llc{geo};
  Rng rng(14);
  for (int i = 0; i < 50000; ++i) {
    const LineAddr line = rng.next_below(4096) << geo.bank_bits;
    switch (rng.next_below(3)) {
      case 0:
        break;  // lookup only
      case 1: {
        if (llc.find(line) == nullptr) {
          const LlcLine victim = llc.peek_victim(line);
          ASSERT_EQ(victim.valid, scan_set(llc, line) == geo.ways) << "line " << line;
          if (victim.valid) {
            ASSERT_TRUE(llc.invalidate(victim.line).valid);
            ASSERT_NO_FATAL_FAILURE(check_find(llc, victim.line, llc.valid_lines()));
          }
          llc.fill(line, false, false, i);
        }
        break;
      }
      default:
        (void)llc.invalidate(line);
        break;
    }
    ASSERT_NO_FATAL_FAILURE(check_find(llc, line, llc.valid_lines()));
  }
  expect_every_record_findable(llc);
}

TEST(SoaTags, DirectoryFindMatchesRecordScanAcrossResize) {
  DirGeometry geo;
  geo.entries_per_bank = 256;
  DirectoryBank dir{geo};
  Rng rng(15);
  auto traffic = [&] {
    for (int i = 0; i < 20000; ++i) {
      const LineAddr line = rng.next_below(2048) << geo.bank_bits;
      switch (rng.next_below(3)) {
        case 0:
          break;  // lookup only
        case 1: {
          if (dir.find(line) == nullptr) {
            const bool free_way = dir.has_free_way(line);
            ASSERT_EQ(free_way, scan_set(dir, line) < geo.ways) << "line " << line;
            if (!free_way) {
              const DirEntry victim = dir.peek_victim(line);
              ASSERT_TRUE(victim.valid);
              ASSERT_TRUE(dir.remove(victim.line));
              ASSERT_NO_FATAL_FAILURE(check_find(dir, victim.line, dir.valid_entries()));
            }
            dir.alloc(line).sharers = line;
          }
          break;
        }
        default: {
          const bool present = dir.find(line) != nullptr;
          ASSERT_EQ(dir.remove(line), present);
          break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(check_find(dir, line, dir.valid_entries()));
    }
    expect_every_record_findable(dir);
  };
  traffic();
  // Power down (overfull sets displace entries), traffic, power back up.
  for (const std::uint32_t sets : {dir.active_sets() / 2, dir.total_sets()}) {
    const std::uint32_t before = dir.valid_entries();
    std::vector<DirEntry> displaced;
    (void)dir.resize(sets, displaced);
    ASSERT_EQ(dir.active_sets(), sets);
    EXPECT_EQ(dir.valid_entries() + displaced.size(), before);
    for (const DirEntry& d : displaced) {
      ASSERT_NO_FATAL_FAILURE(check_find(dir, d.line, dir.valid_entries()));
      EXPECT_EQ(dir.find(d.line), nullptr) << "displaced line " << d.line;
    }
    expect_every_record_findable(dir);
    traffic();
  }
}

// ---------------------------------------------------------------------------
// NCRT: the sorted early-exit scan and its memo against a containment scan

TEST(NcrtMemo, AgreesWithContainmentScanIncludingStats) {
  Ncrt ncrt(32);
  Rng rng(16);
  std::uint64_t lookups = 0, hits = 0;
  auto lookup_and_check = [&](PAddr pa) {
    bool want = false;
    for (const AddrRange& r : ncrt.entries()) want = want || r.contains(pa);
    ++lookups;
    hits += want;
    ASSERT_EQ(ncrt.lookup(pa), want) << "pa " << pa;
    ASSERT_EQ(ncrt.stats().lookups, lookups);
    ASSERT_EQ(ncrt.stats().hits, hits);
  };
  for (int round = 0; round < 4; ++round) {
    // Register regions in shuffled order (the table sorts them), with
    // lookups between inserts so a stale memo would answer wrongly.
    std::vector<std::uint64_t> starts;
    for (std::uint64_t i = 0; i < 24; ++i) starts.push_back(i * 0x1000);
    for (std::size_t i = starts.size(); i > 1; --i) {
      std::swap(starts[i - 1], starts[rng.next_below(i)]);
    }
    for (const std::uint64_t s : starts) {
      ASSERT_TRUE(ncrt.insert(s, s + 0x800));
      for (int i = 0; i < 64; ++i) {
        ASSERT_NO_FATAL_FAILURE(lookup_and_check(rng.next_below(24 * 0x1000)));
      }
    }
    for (int i = 0; i < 20000; ++i) {
      // Streams through regions (memo fast path) plus random probes.
      const PAddr pa = (i % 3 == 0) ? rng.next_below(24 * 0x1000)
                                    : (rng.next_below(24) * 0x1000 + (i & 0x7FF));
      ASSERT_NO_FATAL_FAILURE(lookup_and_check(pa));
    }
    ncrt.clear();
    ASSERT_NO_FATAL_FAILURE(lookup_and_check(starts.front()));  // cleared: no hit
  }
  EXPECT_EQ(ncrt.stats().inserts, 4u * 24u);
  EXPECT_EQ(ncrt.stats().clears, 4u);
}

// ---------------------------------------------------------------------------
// Pinned cache key

TEST(ThroughputGolden, DefaultRunSpecKeyIsPinned) {
  // The structure swap must not perturb cache identity: warm sweep caches
  // (BENCH_baseline.json and friends) stay valid only while this exact key
  // format and kStatsFormatVersion survive.
  EXPECT_EQ(RunSpec{}.key(), "jacobi-small-FullCoh-d1-s42-nl1-ne32-cont-fifo-v5");
  EXPECT_EQ(kStatsFormatVersion, 5u);
}

}  // namespace
}  // namespace raccd
