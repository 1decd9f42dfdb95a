// Event-loop golden: the full stats_to_text output of a small grid of tiny
// specs, pinned in tests/golden/loop_stats.txt. The grid reaches every
// branch of Machine::taskwait's event loop:
//
//   - jacobi under FullCoh and RaCCD: plain closed-batch stepping, ties
//     between cores at equal clocks, sleep/wake on task completion;
//   - service: open-loop releases, so both the idle-gap branch (every core
//     asleep, jump to the next release) and the release-drain branch (a
//     release due at or before the minimum clock);
//   - sampled synthetic: fast-forward tasks and the phase hook;
//   - a series interval: the sampler observes the stepped core's clock, so
//     the sample times pin the global step order;
//   - numa2 + ddr: routed traffic and DRAM queues.
//
// Three more specs pin the machine-shape tables (topo/topology.hpp) on the
// routes the specs above never take: interleaved numa2 + ddr sends coherent
// requests and memory fetches across the socket link, first-touch numa4
// sends NC requests across it, and cmesh routes through shared routers.
//
// The rest pin the host structures every simulated access runs through
// (common/flat_map.hpp, the SoA cache tags, the NCRT memo): every workload
// that needs no input file under every backend; jacobi and synthetic on
// flat and numa2; a 1 MB synthetic footprint on numa2 + ddr, the only specs
// with TLB evictions and memory writebacks; and two ADR specs whose sparse
// directories shrink and grow.
//
// Beside the stats, each entry records the phase-hook and release-hook call
// sequences (the phase sequence as a hash) and the series, so any reordering
// of steps shows up as a diff.
// The same grid is also run through run_all at -j1 and -j3, which must match
// the serial text byte for byte.
//
// Regenerate (only when a change is *meant* to move simulated results):
//   RACCD_UPDATE_GOLDEN=1 ./test_loop_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "raccd/apps/registry.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/metrics/series.hpp"

namespace raccd {
namespace {

const char* const kGoldenPath = RACCD_TEST_GOLDEN_DIR "/loop_stats.txt";

[[nodiscard]] RunSpec tiny(const std::string& ref, CohMode mode) {
  RunSpec s;
  s.size = SizeClass::kTiny;
  s.mode = mode;
  EXPECT_EQ(s.set_workload_ref(ref), "") << ref;
  return s;
}

[[nodiscard]] std::vector<RunSpec> loop_grid() {
  std::vector<RunSpec> specs;
  specs.push_back(tiny("jacobi", CohMode::kFullCoh));
  specs.push_back(tiny("jacobi", CohMode::kRaCCD));
  specs.push_back(tiny("service", CohMode::kRaCCD));
  specs.push_back(tiny("service", CohMode::kFullCoh));
  RunSpec sampled = tiny("synthetic:width=16,depth=12", CohMode::kRaCCD);
  sampled.sampling = "64/2";
  specs.push_back(sampled);
  RunSpec series = tiny("histo", CohMode::kRaCCD);
  series.series_interval = 500;
  specs.push_back(series);
  RunSpec numa = tiny("synthetic", CohMode::kFullCoh);
  numa.topo = "numa2";
  numa.dram = "ddr";
  specs.push_back(numa);
  RunSpec interleaved = tiny("synthetic", CohMode::kFullCoh);
  interleaved.topo = "numa2";
  interleaved.dram = "ddr";
  interleaved.alloc = AllocPolicy::kInterleave;
  specs.push_back(interleaved);
  RunSpec first_touch = tiny("jacobi", CohMode::kRaCCD);
  first_touch.topo = "numa4";
  first_touch.alloc = AllocPolicy::kFirstTouch;
  specs.push_back(first_touch);
  RunSpec cmesh = tiny("jacobi", CohMode::kRaCCD);
  cmesh.topo = "cmesh";
  specs.push_back(cmesh);

  // The structure-path specs below are added only when their key is new.
  auto add = [&specs](const RunSpec& spec) {
    for (const RunSpec& have : specs) {
      if (have.key() == spec.key()) return;
    }
    specs.push_back(spec);
  };
  // Every workload that runs without an input file, under every backend.
  for (const std::string& name : WorkloadRegistry::instance().names()) {
    if (name == "tracereplay") continue;
    for (const CohMode mode : kAllBackends) add(tiny(name, mode));
  }
  // Both workload families and systems on both topologies, DDR with RaCCD.
  for (const char* app : {"jacobi", "synthetic"}) {
    for (const CohMode mode : {CohMode::kFullCoh, CohMode::kRaCCD}) {
      for (const char* topo : {"flat", "numa2"}) {
        RunSpec s = tiny(app, mode);
        s.topo = topo;
        s.dram = (mode == CohMode::kRaCCD) ? "ddr" : "simple";
        add(s);
      }
    }
  }
  // A footprint past the TLB reach and the LLC: TLB evictions and memory
  // writebacks, which the tiny defaults never produce.
  for (const CohMode mode : kAllBackends) {
    RunSpec s = tiny("synthetic:footprint_kb=1024", mode);
    s.topo = "numa2";
    s.dram = "ddr";
    add(s);
  }
  // Sparse directories under ADR: resizes in both directions.
  RunSpec adr_raccd = tiny("jacobi", CohMode::kRaCCD);
  adr_raccd.adr = true;
  adr_raccd.dir_ratio = 8;
  add(adr_raccd);
  RunSpec adr_fullcoh = tiny("synthetic", CohMode::kFullCoh);
  adr_fullcoh.adr = true;
  adr_fullcoh.dir_ratio = 16;
  add(adr_fullcoh);
  return specs;
}

/// FNV-1a: the phase-hook sequence of a sampled run has tens of thousands
/// of entries (the fabric phase flips whenever cores of different phases
/// interleave), so the golden keeps its hash and a readable prefix.
[[nodiscard]] std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  return h;
}

/// One spec's golden entry: stats text, hook call sequences and series.
[[nodiscard]] std::string golden_entry(const RunSpec& spec, std::string* stats_text) {
  std::ostringstream phases, releases;
  std::uint64_t n_phase = 0, n_release = 0;
  Series series;
  std::string err;
  const auto s = run_one_checked(
      spec, &series, &err,
      [&](SimPhase p, std::uint64_t window) {
        ++n_phase;
        phases << ' ' << "MWF"[static_cast<int>(p)] << window;
      },
      [&](std::uint64_t released) {
        ++n_release;
        releases << ' ' << released;
      });
  EXPECT_TRUE(s.has_value()) << spec.key() << ": " << err;
  if (!s) return {};
  *stats_text = stats_to_text(*s);
  std::ostringstream out;
  out << "=== " << spec.key() << " series_interval=" << spec.series_interval << '\n'
      << *stats_text << "--- phase_hook " << n_phase << " fnv1a=" << std::hex
      << fnv1a(phases.str()) << std::dec << ':' << phases.str().substr(0, 96) << '\n'
      << "--- release_hook " << n_release << ':' << releases.str() << '\n'
      << "--- series " << (series.empty() ? std::string("none") : series.to_json())
      << '\n';
  return out.str();
}

[[nodiscard]] std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(LoopGolden, GridCoversEveryLoopBranch) {
  // Guards the golden's coverage claims, so a grid edit cannot silently
  // drop a branch.
  bool released = false, sampled = false, series = false;
  for (const RunSpec& spec : loop_grid()) {
    std::uint64_t phase_calls = 0, release_calls = 0;
    Series ser;
    std::string err;
    const auto s = run_one_checked(
        spec, &ser, &err, [&](SimPhase, std::uint64_t) { ++phase_calls; },
        [&](std::uint64_t) { ++release_calls; });
    ASSERT_TRUE(s.has_value()) << err;
    if (spec.app == "service") {
      EXPECT_GT(release_calls, 1u) << spec.key();
      released = true;
    }
    if (!spec.sampling.empty()) {
      EXPECT_GT(phase_calls, 2u);
      EXPECT_GT(s->sampling.windows, 1u);
      sampled = true;
    }
    if (spec.series_interval > 0) {
      EXPECT_GT(ser.samples().size(), 4u);
      series = true;
    }
  }
  EXPECT_TRUE(released);
  EXPECT_TRUE(sampled);
  EXPECT_TRUE(series);
}

TEST(LoopGolden, GridCoversCrossSocketAndCMeshRoutes) {
  // Guards the routing coverage: a wrong cross-socket or concentrated-mesh
  // route entry must move some pinned number.
  bool coherent_cross = false, nc_cross = false, cmesh = false;
  for (const RunSpec& spec : loop_grid()) {
    const SimStats s = run_one(spec);
    if (s.noc.cross_socket.messages > 0 && s.noc.socket_link_flits > 0 &&
        s.fabric.dir_reqs_cross_socket > 0) {
      coherent_cross = true;
    }
    if (s.fabric.nc_reqs_cross_socket > 0) nc_cross = true;
    if (spec.topo.rfind("cmesh", 0) == 0) cmesh = true;
  }
  EXPECT_TRUE(coherent_cross);
  EXPECT_TRUE(nc_cross);
  EXPECT_TRUE(cmesh);
}

TEST(LoopGolden, GridCoversEveryStructurePath) {
  // Guards the structure coverage: every workload under every backend, and
  // the TLB, memory-version, ADR-resize and NCRT paths all exercised, so a
  // wrong answer from any host structure must move some pinned number.
  std::set<std::pair<std::string, CohMode>> covered;
  std::uint64_t tlb_evictions = 0, tlb_shootdowns = 0, mem_writes = 0;
  std::uint64_t adr_grows = 0, adr_shrinks = 0, ncrt_hits = 0;
  for (const RunSpec& spec : loop_grid()) {
    const SimStats s = run_one(spec);
    covered.emplace(spec.app, spec.mode);
    tlb_evictions += s.tlb.evictions;
    tlb_shootdowns += s.tlb.shootdowns;
    mem_writes += s.fabric.mem_writes;
    adr_grows += s.adr.grows;
    adr_shrinks += s.adr.shrinks;
    ncrt_hits += s.ncrt.hits;
  }
  for (const std::string& name : WorkloadRegistry::instance().names()) {
    if (name == "tracereplay") continue;
    for (const CohMode mode : kAllBackends) {
      EXPECT_EQ(covered.count({name, mode}), 1u) << name << ' ' << to_string(mode);
    }
  }
  EXPECT_GT(tlb_evictions, 0u);
  EXPECT_GT(tlb_shootdowns, 0u);
  EXPECT_GT(mem_writes, 0u);
  EXPECT_GT(adr_grows, 0u);
  EXPECT_GT(adr_shrinks, 0u);
  EXPECT_GT(ncrt_hits, 0u);
}

TEST(LoopGolden, StatsMatchPinnedGoldenAndParallelSweep) {
  const std::vector<RunSpec> specs = loop_grid();
  std::string got;
  std::vector<std::string> serial_text(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    got += golden_entry(specs[i], &serial_text[i]);
  }

  if (std::getenv("RACCD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(kGoldenPath, std::ios::binary) << got;
    GTEST_SKIP() << "golden rewritten: " << kGoldenPath;
  }
  // unpack is pinned too: every serial text reads back to itself, gated
  // sampling and service groups included.
  std::size_t sampled = 0, service = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto back = stats_from_text(serial_text[i]);
    ASSERT_TRUE(back.has_value()) << specs[i].key();
    EXPECT_EQ(stats_to_text(*back), serial_text[i]) << specs[i].key();
    sampled += back->sampling.active != 0;
    service += back->service.requests != 0;
  }
  EXPECT_GE(sampled, 1u);
  EXPECT_GE(service, 1u);

  const std::string want = read_file(kGoldenPath);
  ASSERT_FALSE(want.empty()) << "missing golden " << kGoldenPath;
  EXPECT_EQ(got, want) << "simulated results moved; if intended, regenerate "
                          "with RACCD_UPDATE_GOLDEN=1";

  for (const unsigned jobs : {1u, 3u}) {
    RunOptions opts;
    opts.use_cache = false;
    opts.jobs = jobs;
    const std::vector<SimStats> par = run_all(specs, opts);
    ASSERT_EQ(par.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(stats_to_text(par[i]), serial_text[i])
          << specs[i].key() << " at -j" << jobs;
    }
  }
}

}  // namespace
}  // namespace raccd
