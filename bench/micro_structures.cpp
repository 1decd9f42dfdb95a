// google-benchmark microbenchmarks of the hardware-model hot paths: these
// bound the host cost per simulated event, which is what makes the full
// figure sweeps tractable.
#include <benchmark/benchmark.h>

#include "raccd/cache/l1_cache.hpp"
#include "raccd/coherence/fabric.hpp"
#include "raccd/common/flat_map.hpp"
#include "raccd/common/rng.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/dram/dram.hpp"
#include "raccd/mem/page_table.hpp"
#include "raccd/mem/sim_memory.hpp"
#include "raccd/runtime/dep_registry.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {
namespace {

void BM_NcrtLookup(benchmark::State& state) {
  Ncrt ncrt(32);
  for (std::uint64_t i = 0; i < 32; ++i) {
    ncrt.insert(i * 0x100000, i * 0x100000 + 0x10000);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ncrt.lookup(rng.next_below(32) * 0x100000 + 0x8000));
  }
}
BENCHMARK(BM_NcrtLookup);

void BM_L1FindHit(benchmark::State& state) {
  L1Cache l1(L1Geometry{});
  for (LineAddr l = 0; l < 512; ++l) l1.fill(l, false, Mesi::kShared, false, 0);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1.find(rng.next_below(512)));
  }
}
BENCHMARK(BM_L1FindHit);

void BM_TlbAccess(benchmark::State& state) {
  Tlb tlb(256);
  PageTable pt;
  for (PageNum v = 0; v < 4096; ++v) pt.map(v, v);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.access(rng.next_below(512), pt));
  }
}
BENCHMARK(BM_TlbAccess);

void BM_TlbReplayStream(benchmark::State& state) {
  // The replay loop's translation pattern: 16 cores' page streams
  // interleaved one access at a time, each core on its own 256-entry TLB.
  // About 27% of a core's accesses repeat its previous page (the same-page
  // filter); the rest spread over a 192-page working set with a 1% tail of
  // far pages, so most lookups hit the index and a few walk and evict.
  constexpr std::uint32_t kCores = 16;
  constexpr std::size_t kStream = 4096;  // accesses per core, replayed cyclically
  constexpr PageNum kFar = 1 << 14;
  PageTable pt;
  for (PageNum v = 0; v < kCores * kFar; ++v) pt.map(v, v);
  std::vector<Tlb> tlbs(kCores, Tlb(256));
  std::vector<PageNum> stream(kCores * kStream);
  Rng rng(8);
  for (std::uint32_t c = 0; c < kCores; ++c) {
    const PageNum base = c * kFar;
    PageNum last = base;
    for (std::size_t i = 0; i < kStream; ++i) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll >= 27) last = base + (roll == 99 ? rng.next_below(kFar) : rng.next_below(192));
      stream[i * kCores + c] = last;
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlbs[i % kCores].access(stream[i], pt));
    if (++i == stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbReplayStream);

void BM_SimMemoryTypedRead(benchmark::State& state) {
  // TaskContext::load's functional half: 8-byte typed reads at scattered
  // aligned addresses of a 4 MB arena (four 1 MB host chunks).
  SimMemory mem(1 << 12, AllocPolicy::kContiguous);
  constexpr std::uint64_t kWords = (4 << 20) / 8;
  const VAddr base = mem.alloc_array<double>(kWords);
  std::vector<VAddr> addrs(4096);
  Rng rng(9);
  for (VAddr& a : addrs) a = base + rng.next_below(kWords) * 8;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.read<double>(addrs[i]));
    i = (i + 1) & (addrs.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimMemoryTypedRead);

void BM_MemVersionFlat(benchmark::State& state) {
  // The memory version map access pattern of a replay: write a line on
  // writeback, read lines on fills — line-granular, dense in a bounded
  // physical range.
  PagedLineMap map;
  map.reserve_lines(1 << 16);
  for (LineAddr l = 0; l < (1 << 16); l += 7) map.set(l, l);
  Rng rng(5);
  for (auto _ : state) {
    const LineAddr l = rng.next_below(1 << 16);
    benchmark::DoNotOptimize(map.get(l));
    if ((l & 7) == 0) map.set(l, l);
  }
}
BENCHMARK(BM_MemVersionFlat);

void BM_FabricL1Hit(benchmark::State& state) {
  FabricConfig cfg;
  cfg.cores = 16;
  Fabric fabric(cfg, nullptr);
  fabric.access(0, 1, false, false, 0);
  Cycle t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.access(0, 1, false, false, t++));
  }
}
BENCHMARK(BM_FabricL1Hit);

void BM_FabricMissStream(benchmark::State& state) {
  FabricConfig cfg;
  cfg.cores = 16;
  Fabric fabric(cfg, nullptr);
  Cycle t = 0;
  LineAddr l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.access(l & 15, l, false, false, t++));
    ++l;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricMissStream);

void BM_DramReadStream(benchmark::State& state) {
  // Sequential lines: mostly row hits, periodic activates — the fast path of
  // the queue/bank structures behind every simulated LLC miss.
  DramConfig cfg;
  cfg.model = DramModel::kDdr;
  DramController dc(cfg);
  Cycle t = 0;
  LineAddr l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.read(l++, t));
    t += 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramReadStream);

void BM_DramMixedRandom(benchmark::State& state) {
  // Random reads + writebacks: row conflicts plus queue-slot management
  // (erase/min scans) — the worst case of the closed-form DRAM model.
  DramConfig cfg;
  cfg.model = DramModel::kDdr;
  cfg.channels = 2;
  DramController dc(cfg);
  Rng rng(6);
  Cycle t = 0;
  for (auto _ : state) {
    const LineAddr l = rng.next_below(1 << 16);
    if ((l & 3) == 0) {
      benchmark::DoNotOptimize(dc.write(l, t));
    } else {
      benchmark::DoNotOptimize(dc.read(l, t));
    }
    t += 2;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramMixedRandom);

void BM_DepRegistryRegister(benchmark::State& state) {
  DepRegistry reg;
  std::vector<TaskId> preds;
  TaskId t = 0;
  for (auto _ : state) {
    preds.clear();
    reg.register_dep(t, DepSpec{(t % 64) * 4096ull, 4096, DepKind::kInout}, preds);
    benchmark::DoNotOptimize(preds.data());
    ++t;
  }
}
BENCHMARK(BM_DepRegistryRegister);

void BM_DepRegistryServiceShape(benchmark::State& state) {
  // The service workload's dependence stream: per request a 2 KB private
  // scratch range (inout), 8-byte probes of a shared table (in) and an
  // 8-byte home-slot update (inout), over ~40k segments — most ranges start
  // on an existing segment boundary. One iteration is one register_dep.
  constexpr std::uint64_t kSlots = 36864;   // shared 8-byte slots
  constexpr std::uint64_t kScratch = 4096;  // live 2 KB scratch ranges
  constexpr VAddr kScratchBase = kSlots * 8;
  DepRegistry reg;
  std::vector<TaskId> preds;
  TaskId t = 0;
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    reg.register_dep(t++, DepSpec{s * 8, 8, DepKind::kOut}, preds);
  }
  for (std::uint64_t r = 0; r < kScratch; ++r) {
    reg.register_dep(t++, DepSpec{kScratchBase + r * 2048, 2048, DepKind::kOut}, preds);
  }
  Rng rng(7);
  std::uint64_t step = 0;
  for (auto _ : state) {
    // Five dependences per task: scratch, three probes, home slot.
    const std::uint64_t k = step % 5;
    DepSpec dep{rng.next_below(kSlots) * 8, 8, DepKind::kIn};
    if (k == 0) {
      preds.clear();
      ++t;
      dep = DepSpec{kScratchBase + (t % kScratch) * 2048, 2048, DepKind::kInout};
    } else if (k == 4) {
      dep.kind = DepKind::kInout;
    }
    reg.register_dep(t, dep, preds);
    benchmark::DoNotOptimize(preds.data());
    ++step;
  }
  state.counters["segments"] = static_cast<double>(reg.segment_count());
}
BENCHMARK(BM_DepRegistryServiceShape);

}  // namespace
}  // namespace raccd

BENCHMARK_MAIN();
