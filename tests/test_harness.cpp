#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/harness/table.hpp"

namespace raccd {
namespace {

TEST(RunSpec, KeyIsStableAndDistinguishes) {
  RunSpec a;
  a.app = "jacobi";
  RunSpec b = a;
  EXPECT_EQ(a.key(), b.key());
  b.dir_ratio = 64;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.mode = CohMode::kRaCCD;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.adr = true;
  EXPECT_NE(a.key(), b.key());
}

TEST(RunSpec, ConfigReflectsSpec) {
  RunSpec spec;
  spec.mode = CohMode::kRaCCD;
  spec.dir_ratio = 16;
  spec.adr = true;
  spec.ncrt_latency = 5;
  const SimConfig cfg = config_for(spec);
  EXPECT_EQ(cfg.mode, CohMode::kRaCCD);
  EXPECT_EQ(cfg.dir_ratio(), 16u);
  EXPECT_TRUE(cfg.adr.enabled);
  EXPECT_EQ(cfg.timing.ncrt_lookup_cycles, 5u);
}

TEST(StatsIo, RoundTrip) {
  SimStats s;
  s.mode = CohMode::kPT;
  s.dir_ratio = 64;
  s.cycles = 123456789;
  s.fabric.dir_accesses = 42;
  s.fabric.e_dir_pj = 3.14159;
  s.noc.per_class[1].flit_hops = 77;
  s.avg_dir_occupancy = 0.123456789;
  s.tasks = 5;
  const std::string text = stats_to_text(s);
  const auto back = stats_from_text(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mode, CohMode::kPT);
  EXPECT_EQ(back->dir_ratio, 64u);
  EXPECT_EQ(back->cycles, 123456789u);
  EXPECT_EQ(back->fabric.dir_accesses, 42u);
  EXPECT_DOUBLE_EQ(back->fabric.e_dir_pj, 3.14159);
  EXPECT_EQ(back->noc.per_class[1].flit_hops, 77u);
  EXPECT_DOUBLE_EQ(back->avg_dir_occupancy, 0.123456789);
}

TEST(StatsIo, RejectsWrongVersion) {
  EXPECT_FALSE(stats_from_text("format=0\ncycles=5\n").has_value());
  EXPECT_FALSE(stats_from_text("garbage").has_value());
}

TEST(SweepCache, StoreAndLoad) {
  const std::string dir = "test_cache_tmp";
  SimStats s;
  s.cycles = 999;
  cache_store(dir, "unit-key", s);
  const auto loaded = cache_load(dir, "unit-key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cycles, 999u);
  EXPECT_FALSE(cache_load(dir, "missing-key").has_value());
  std::filesystem::remove_all(dir);
}

TEST(RunAll, ParallelAndCached) {
  const std::string dir = "test_cache_runall";
  std::filesystem::remove_all(dir);
  std::vector<RunSpec> specs;
  for (const CohMode mode : kAllModes) {
    RunSpec s;
    s.app = "histo";
    s.size = SizeClass::kTiny;
    s.mode = mode;
    specs.push_back(s);
  }
  RunOptions opts;
  opts.jobs = 3;
  opts.cache_dir = dir;
  const auto first = run_all(specs, opts);
  ASSERT_EQ(first.size(), 3u);
  for (const auto& s : first) EXPECT_GT(s.cycles, 0u);
  // Second invocation must be served from the cache with identical numbers.
  const auto second = run_all(specs, opts);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(first[i].cycles, second[i].cycles);
    EXPECT_EQ(first[i].fabric.dir_accesses, second[i].fabric.dir_accesses);
  }
  std::filesystem::remove_all(dir);
}

TEST(TextTable, PrintsAlignedAndCsv) {
  TextTable t({"app", "value"});
  t.add_row({"jacobi", "1.00"});
  t.add_separator();
  t.add_row({"avg", "2.00"});
  // Render to a temp file and check content.
  const char* path = "test_table_tmp.txt";
  std::FILE* f = std::fopen(path, "w");
  t.print(f);
  std::fclose(f);
  std::string content;
  {
    std::FILE* in = std::fopen(path, "r");
    char buf[256];
    while (std::fgets(buf, sizeof buf, in) != nullptr) content += buf;
    std::fclose(in);
  }
  EXPECT_NE(content.find("jacobi"), std::string::npos);
  EXPECT_NE(content.find("| app"), std::string::npos);
  std::remove(path);

  EXPECT_TRUE(t.write_csv("test_csv_tmp/out.csv"));
  std::string csv;
  {
    std::FILE* in = std::fopen("test_csv_tmp/out.csv", "r");
    char buf[256];
    while (std::fgets(buf, sizeof buf, in) != nullptr) csv += buf;
    std::fclose(in);
  }
  EXPECT_EQ(csv, "app,value\njacobi,1.00\navg,2.00\n");
  std::filesystem::remove_all("test_csv_tmp");
}

TEST(BenchOptions, ParsesFlags) {
  const char* argv[] = {"bench", "--size=tiny", "--paper", "--no-cache", "--jobs=7"};
  const auto o = BenchOptions::parse(5, const_cast<char**>(argv));
  EXPECT_EQ(o.size, SizeClass::kTiny);
  EXPECT_TRUE(o.paper_machine);
  EXPECT_FALSE(o.run.use_cache);
  EXPECT_EQ(o.run.jobs, 7u);
}

TEST(BenchOptions, JobsSpellings) {
  {  // -jN short form
    const char* argv[] = {"bench", "-j4"};
    EXPECT_EQ(BenchOptions::parse(2, const_cast<char**>(argv)).run.jobs, 4u);
  }
  {  // --jobs N two-argument form
    const char* argv[] = {"bench", "--jobs", "9"};
    EXPECT_EQ(BenchOptions::parse(3, const_cast<char**>(argv)).run.jobs, 9u);
  }
  {  // legacy --threads=N alias still accepted
    const char* argv[] = {"bench", "--threads=7"};
    EXPECT_EQ(BenchOptions::parse(2, const_cast<char**>(argv)).run.jobs, 7u);
  }
}

TEST(BenchOptionsDeathTest, MalformedJobCountsAreErrors) {
  // strtoul read each of these as some job count; now the sweep refuses to
  // start with exit code 2 and names the flag.
  const auto parse = [](std::vector<const char*> args) {
    args.insert(args.begin(), "bench");
    (void)BenchOptions::parse(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  };
  EXPECT_EXIT(parse({"--jobs=abc"}), ::testing::ExitedWithCode(2), "--jobs: 'abc'");
  EXPECT_EXIT(parse({"--jobs=-1"}), ::testing::ExitedWithCode(2), "--jobs: '-1'");
  EXPECT_EXIT(parse({"--jobs", "4x"}), ::testing::ExitedWithCode(2), "--jobs: '4x'");
  EXPECT_EXIT(parse({"-j2x"}), ::testing::ExitedWithCode(2), "-j: '2x'");
  EXPECT_EXIT(parse({"--threads=+3"}), ::testing::ExitedWithCode(2), "--threads: '\\+3'");
  EXPECT_EXIT(parse({"--jobs=99999"}), ::testing::ExitedWithCode(2),
              "'99999' is not a number in \\[0, 1024\\]");
  EXPECT_EXIT(parse({"--shard=1/3x"}), ::testing::ExitedWithCode(2), "--shard");
  EXPECT_EXIT(
      {
        setenv("RACCD_JOBS", "four", 1);
        parse({});
      },
      ::testing::ExitedWithCode(2), "RACCD_JOBS: 'four'");
  EXPECT_EXIT(
      {
        setenv("RACCD_THREADS", "2 ", 1);
        parse({});
      },
      ::testing::ExitedWithCode(2), "RACCD_THREADS: '2 '");
}

TEST(BenchOptions, WellFormedJobCountsKeepTheirMeaning) {
  const char* argv[] = {"bench", "--jobs=0"};  // 0 = hardware concurrency
  EXPECT_EQ(BenchOptions::parse(2, const_cast<char**>(argv)).run.jobs, 0u);
  const char* shard[] = {"bench", "--shard=2/3"};
  const auto o = BenchOptions::parse(2, const_cast<char**>(shard));
  EXPECT_EQ(o.run.shard_index, 2u);
  EXPECT_EQ(o.run.shard_count, 3u);
}

}  // namespace
}  // namespace raccd
