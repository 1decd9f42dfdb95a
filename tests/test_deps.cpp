// Dependence registry tests: RAW/WAR/WAW derivation over byte ranges with
// splitting, the OmpSs region-dependence semantics, checked case by case and
// against a brute-force per-byte oracle on seeded random task streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "raccd/common/rng.hpp"
#include "raccd/runtime/dep_registry.hpp"

namespace raccd {
namespace {

void dedupe(std::vector<TaskId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

std::vector<TaskId> preds_of(DepRegistry& reg, TaskId t,
                             std::initializer_list<DepSpec> deps) {
  std::vector<TaskId> out;
  for (const DepSpec& d : deps) reg.register_dep(t, d, out);
  dedupe(out);
  return out;
}

TEST(DepRegistry, RawDependence) {
  DepRegistry reg;
  EXPECT_TRUE(preds_of(reg, 0, {DepSpec{0, 100, DepKind::kOut}}).empty());
  const auto preds = preds_of(reg, 1, {DepSpec{0, 100, DepKind::kIn}});
  EXPECT_EQ(preds, std::vector<TaskId>{0});
}

TEST(DepRegistry, NoFalseDependenceOnDisjointRanges) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 100, DepKind::kOut}});
  const auto preds = preds_of(reg, 1, {DepSpec{100, 100, DepKind::kIn}});
  EXPECT_TRUE(preds.empty());
}

TEST(DepRegistry, PartialOverlapSplitsSegments) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 100, DepKind::kOut}});
  preds_of(reg, 1, {DepSpec{100, 100, DepKind::kOut}});
  const auto preds = preds_of(reg, 2, {DepSpec{50, 100, DepKind::kIn}});
  EXPECT_EQ(preds, (std::vector<TaskId>{0, 1}));
}

TEST(DepRegistry, WarDependence) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 64, DepKind::kOut}});
  preds_of(reg, 1, {DepSpec{0, 64, DepKind::kIn}});
  preds_of(reg, 2, {DepSpec{0, 64, DepKind::kIn}});
  const auto preds = preds_of(reg, 3, {DepSpec{0, 64, DepKind::kOut}});
  // WAW on 0 plus WAR on both readers.
  EXPECT_EQ(preds, (std::vector<TaskId>{0, 1, 2}));
}

TEST(DepRegistry, WawChain) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 64, DepKind::kOut}});
  EXPECT_EQ(preds_of(reg, 1, {DepSpec{0, 64, DepKind::kOut}}), std::vector<TaskId>{0});
  EXPECT_EQ(preds_of(reg, 2, {DepSpec{0, 64, DepKind::kOut}}), std::vector<TaskId>{1});
  EXPECT_EQ(reg.last_writer_at(0), 2u);
}

TEST(DepRegistry, InoutActsAsReadAndWrite) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 64, DepKind::kOut}});
  const auto p1 = preds_of(reg, 1, {DepSpec{0, 64, DepKind::kInout}});
  EXPECT_EQ(p1, std::vector<TaskId>{0});
  // Reader after inout depends on the inout task.
  const auto p2 = preds_of(reg, 2, {DepSpec{0, 64, DepKind::kIn}});
  EXPECT_EQ(p2, std::vector<TaskId>{1});
}

TEST(DepRegistry, ReadersDoNotDependOnEachOther) {
  DepRegistry reg;
  preds_of(reg, 0, {DepSpec{0, 64, DepKind::kOut}});
  EXPECT_EQ(preds_of(reg, 1, {DepSpec{0, 64, DepKind::kIn}}), std::vector<TaskId>{0});
  EXPECT_EQ(preds_of(reg, 2, {DepSpec{0, 64, DepKind::kIn}}), std::vector<TaskId>{0});
}

TEST(DepRegistry, GaussSeidelWavefrontShape) {
  // Row blocks with inout-own + in-halo deps must produce the wavefront:
  // block b of iteration k depends on b-1 (same iter) and b+1 (prev iter).
  DepRegistry reg;
  constexpr std::uint64_t kRow = 64;  // bytes per halo row
  constexpr std::uint64_t kBlockRows = 4;
  const auto block_range = [&](std::uint32_t b) {
    return DepSpec{b * kBlockRows * kRow, kBlockRows * kRow, DepKind::kInout};
  };
  const auto halo_above = [&](std::uint32_t b) {
    return DepSpec{b * kBlockRows * kRow - kRow, kRow, DepKind::kIn};
  };
  const auto halo_below = [&](std::uint32_t b) {
    return DepSpec{(b + 1) * kBlockRows * kRow, kRow, DepKind::kIn};
  };
  // Iteration 0: blocks 0..2 (task ids 0..2).
  preds_of(reg, 0, {block_range(0), halo_below(0)});
  const auto p1 = preds_of(reg, 1, {block_range(1), halo_above(1), halo_below(1)});
  EXPECT_EQ(p1, std::vector<TaskId>{0});  // reads row written by block 0
  const auto p2 = preds_of(reg, 2, {block_range(2), halo_above(2)});
  EXPECT_EQ(p2, std::vector<TaskId>{1});
  // Iteration 1 block 0 (task 3): depends on its own block (task 0 wrote it,
  // task 1 read its last row... precisely: WAW with 0, WAR with 1) and RAW
  // on block 1's first row (task 1).
  const auto p3 = preds_of(reg, 3, {block_range(0), halo_below(0)});
  EXPECT_EQ(p3, (std::vector<TaskId>{0, 1}));
}

TEST(DepRegistry, ManySmallRangesStress) {
  DepRegistry reg;
  std::vector<TaskId> preds;
  for (TaskId t = 0; t < 200; ++t) {
    preds.clear();
    reg.register_dep(t, DepSpec{(t % 50) * 16ull, 16, DepKind::kInout}, preds);
    // The registry may report a predecessor through both the RAW and WAR
    // paths; callers dedupe (see Runtime::create_task).
    dedupe(preds);
    if (t >= 50) {
      ASSERT_EQ(preds.size(), 1u);
      EXPECT_EQ(preds[0], t - 50);
    }
  }
  EXPECT_LE(reg.segment_count(), 50u);
}

// -- Differential test against a per-byte oracle -------------------------------

/// The region-dependence semantics written byte by byte: each byte has a
/// last writer and the readers since that write. No segments, no splitting.
class ByteOracle {
 public:
  ByteOracle(VAddr base, std::size_t bytes)
      : base_(base), writer_(bytes, kNoTask), readers_(bytes) {}

  void register_dep(TaskId t, const DepSpec& dep, std::vector<TaskId>& preds) {
    const bool reads = dep.kind != DepKind::kOut;
    const bool writes = dep.kind != DepKind::kIn;
    for (VAddr a = dep.addr; a < dep.addr + dep.size; ++a) {
      const std::size_t b = a - base_;
      if (writer_[b] != kNoTask && writer_[b] != t) preds.push_back(writer_[b]);
      if (writes) {
        for (const TaskId r : readers_[b]) {
          if (r != t) preds.push_back(r);
        }
        writer_[b] = t;
        readers_[b].clear();
      }
      if (reads) readers_[b].push_back(t);
    }
  }

  [[nodiscard]] TaskId last_writer_at(VAddr a) const { return writer_[a - base_]; }

 private:
  VAddr base_;
  std::vector<TaskId> writer_;
  std::vector<std::vector<TaskId>> readers_;
};

TEST(DepRegistry, MatchesPerByteOracleOnRandomStreams) {
  // A small arena straddling a 4 KB page boundary, so ranges cross pages,
  // and dense enough that ranges overlap, abut and repeat constantly.
  constexpr VAddr kBase = 4096 - 384;
  constexpr std::uint64_t kBytes = 768;
  constexpr DepKind kKinds[] = {DepKind::kIn, DepKind::kOut, DepKind::kInout};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    DepRegistry reg;
    ByteOracle oracle(kBase, kBytes);
    std::vector<DepSpec> used;  // earlier ranges, for exact repeats
    VAddr last_end = kBase;     // end of the previous range, for adjacency
    std::vector<TaskId> got;
    std::vector<TaskId> want;
    for (TaskId t = 0; t < 600; ++t) {
      got.clear();
      want.clear();
      const std::uint64_t ndeps = 1 + rng.next_below(3);
      for (std::uint64_t d = 0; d < ndeps; ++d) {
        DepSpec dep{0, 0, kKinds[rng.next_below(3)]};
        switch (rng.next_below(6)) {
          case 0:  // exact repeat of an earlier range
            if (!used.empty()) {
              const DepSpec& old = used[rng.next_below(used.size())];
              dep.addr = old.addr;
              dep.size = old.size;
              break;
            }
            [[fallthrough]];
          case 1:  // small range anywhere: partial overlaps
            dep.addr = kBase + rng.next_below(kBytes);
            dep.size = 1 + rng.next_below(std::min<std::uint64_t>(
                               24, kBase + kBytes - dep.addr));
            break;
          case 2:  // adjacent to the previous range
            dep.addr = last_end < kBase + kBytes ? last_end : kBase;
            dep.size = 1 + rng.next_below(std::min<std::uint64_t>(
                               32, kBase + kBytes - dep.addr));
            break;
          case 3:  // long range spanning many segments
            dep.addr = kBase + rng.next_below(kBytes / 4);
            dep.size = kBytes / 2 + rng.next_below(kBytes / 4);
            break;
          case 4:  // straddles the page boundary at 4096
            dep.addr = 4096 - 1 - rng.next_below(40);
            dep.size = 2 + rng.next_below(80);
            break;
          default:  // zero-size: no segments, no edges
            dep.addr = kBase + rng.next_below(kBytes);
            dep.size = 0;
            break;
        }
        ASSERT_LE(dep.addr + dep.size, kBase + kBytes);
        if (dep.size > 0) {
          used.push_back(dep);
          last_end = dep.addr + dep.size;
        }
        reg.register_dep(t, dep, got);
        oracle.register_dep(t, dep, want);
      }
      dedupe(got);
      dedupe(want);
      ASSERT_EQ(got, want) << "task " << t;
      ASSERT_EQ(reg.index_size(), reg.segment_count()) << "task " << t;
    }
    for (VAddr a = kBase; a < kBase + kBytes; ++a) {
      ASSERT_EQ(reg.last_writer_at(a), oracle.last_writer_at(a)) << "byte " << a;
    }
    EXPECT_EQ(reg.last_writer_at(kBase - 1), kNoTask);
    EXPECT_EQ(reg.last_writer_at(kBase + kBytes), kNoTask);
    EXPECT_EQ(reg.index_size(), reg.segment_count());
    EXPECT_GT(reg.segment_count(), 64u);  // the stream really fragmented the arena
  }
}

TEST(DepRegistry, RangeEndingJustBelowTheTopOfMemoryIsAccepted) {
  DepRegistry reg;
  std::vector<TaskId> preds;
  const VAddr top = ~VAddr{0};
  reg.register_dep(0, DepSpec{top - 10, 9, DepKind::kOut}, preds);  // ends at top - 1
  reg.register_dep(1, DepSpec{top - 10, 9, DepKind::kIn}, preds);
  EXPECT_EQ(preds, std::vector<TaskId>{0});
  EXPECT_EQ(reg.last_writer_at(top - 2), 0u);
  reg.register_dep(2, DepSpec{top, 0, DepKind::kOut}, preds);  // zero-size: ignored
  EXPECT_EQ(reg.segment_count(), 1u);
}

TEST(DepRegistryDeathTest, WrappingRangeIsRejected) {
  const VAddr top = ~VAddr{0};
  std::vector<TaskId> preds;
  // Ending exactly at ~0 would make the end boundary the index's empty key.
  EXPECT_DEATH(
      {
        DepRegistry reg;
        reg.register_dep(0, DepSpec{top - 10, 10, DepKind::kOut}, preds);
      },
      "dependence range wraps");
  EXPECT_DEATH(
      {
        DepRegistry reg;
        reg.register_dep(0, DepSpec{top - 10, 20, DepKind::kIn}, preds);
      },
      "dependence range wraps");
}

}  // namespace
}  // namespace raccd
