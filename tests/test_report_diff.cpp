// raccd-report diff library tests: the BENCH_grid.json loader (escapes,
// null, tolerant of non-numeric fields), per-kind tolerance verdicts, and
// the gate semantics (missing baseline coverage fails, new keys don't).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "raccd/metrics/diff.hpp"

namespace raccd {
namespace {

[[nodiscard]] BenchLog one_key(const std::string& key, MetricMap metrics) {
  BenchLog log;
  log[key] = std::move(metrics);
  return log;
}

TEST(BenchJsonParser, ParsesOurEmitterShape) {
  BenchLog log;
  ASSERT_EQ(parse_bench_json(R"({
  "jacobi-small-v5": {"cycles": 1000, "llc_hit_rate": 0.25, "avg_dir_occupancy": null},
  "histo-small-v5": {"cycles": 2000, "dir_accesses": 7}
})",
                             log),
            "");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log.at("jacobi-small-v5").at("cycles"), 1000.0);
  EXPECT_DOUBLE_EQ(log.at("jacobi-small-v5").at("llc_hit_rate"), 0.25);
  EXPECT_TRUE(std::isnan(log.at("jacobi-small-v5").at("avg_dir_occupancy")));
  EXPECT_DOUBLE_EQ(log.at("histo-small-v5").at("dir_accesses"), 7.0);
}

TEST(BenchJsonParser, HandlesEscapesNestingAndEmpty) {
  BenchLog log;
  ASSERT_EQ(parse_bench_json("{}", log), "");
  EXPECT_TRUE(log.empty());
  // Escaped key, ignored string/array/nested-object fields, booleans.
  ASSERT_EQ(parse_bench_json(R"({"k\"ey": {"a": 1, "note": "x,\"y\"",
    "nested": {"deep": [1, 2, {"z": 3}]}, "flag": true}})",
                             log),
            "");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log.at("k\"ey").at("a"), 1.0);
  EXPECT_DOUBLE_EQ(log.at("k\"ey").at("flag"), 1.0);
  EXPECT_EQ(log.at("k\"ey").count("note"), 0u);  // strings are skipped
  // Malformed input reports an error instead of asserting.
  EXPECT_NE(parse_bench_json("{\"k\": {", log), "");
  EXPECT_NE(parse_bench_json("[1,2]", log), "");
}

TEST(BenchJsonParser, DeepNestingIsAnError) {
  // A million '[' in a metric value used to recurse until the stack
  // overflowed; the cap stops at depth 256 and names the offset.
  BenchLog log;
  const std::string deep = "{\"k\": {\"n\": " + std::string(1'000'000, '[');
  std::string err = parse_bench_json(deep, log);
  EXPECT_NE(err.find("nesting deeper than 256 at offset 266"), std::string::npos) << err;
  err = parse_bench_json(std::string(1'000'000, '['), log);
  EXPECT_NE(err.find("nesting deeper than 256 at offset 256"), std::string::npos) << err;
  // Nesting inside the 256-level cap still parses (and is skipped).
  const std::string ok_nest = "{\"k\": {\"a\": 1, \"n\": " + std::string(200, '[') +
                              std::string(200, ']') + "}}";
  ASSERT_EQ(parse_bench_json(ok_nest, log), "");
  EXPECT_DOUBLE_EQ(log.at("k").at("a"), 1.0);
  // Trailing bytes after the top-level object are an error too.
  EXPECT_NE(parse_bench_json("{\"k\": {\"a\": 1}} x", log), "");
  EXPECT_NE(parse_bench_json("{}{}", log), "");
}

TEST(BenchDiff, IdenticalLogsPass) {
  const BenchLog log = one_key("k", {{"cycles", 1000.0}, {"dir_accesses", 5.0}});
  const BenchDiff d = diff_bench_logs(log, log);
  EXPECT_EQ(d.regressions(), 0u);
  EXPECT_EQ(d.keys_compared, 1u);
  EXPECT_EQ(d.metrics_compared, 2u);
  EXPECT_NE(d.report().find("PASS"), std::string::npos);
}

TEST(BenchDiff, CyclesWithinToleranceButCountersExact) {
  const BenchLog base = one_key("k", {{"cycles", 1000.0}, {"dir_accesses", 100.0}});
  // +1% cycles: inside the default 2% band.
  BenchDiff d = diff_bench_logs(base, one_key("k", {{"cycles", 1010.0},
                                                    {"dir_accesses", 100.0}}));
  EXPECT_EQ(d.regressions(), 0u);
  // +3% cycles: out.
  d = diff_bench_logs(base, one_key("k", {{"cycles", 1030.0}, {"dir_accesses", 100.0}}));
  ASSERT_EQ(d.exceeded.size(), 1u);
  EXPECT_EQ(d.exceeded[0].metric, "cycles");
  EXPECT_NEAR(d.exceeded[0].delta_pct, 3.0, 1e-9);
  EXPECT_NE(d.report().find("FAIL"), std::string::npos);
  // A single-count drift in a counter fails: determinism is the contract.
  d = diff_bench_logs(base, one_key("k", {{"cycles", 1000.0}, {"dir_accesses", 101.0}}));
  ASSERT_EQ(d.exceeded.size(), 1u);
  EXPECT_EQ(d.exceeded[0].metric, "dir_accesses");
  // ...unless the caller loosens the counter band.
  DiffTolerances loose;
  loose.counter_pct = 5.0;
  EXPECT_EQ(diff_bench_logs(base, one_key("k", {{"cycles", 1000.0},
                                                {"dir_accesses", 101.0}}),
                            loose)
                .regressions(),
            0u);
}

TEST(BenchDiff, RatiosUseAnAbsoluteBand) {
  const BenchLog base = one_key("k", {{"llc_hit_rate", 0.50}});
  EXPECT_EQ(diff_bench_logs(base, one_key("k", {{"llc_hit_rate", 0.51}})).regressions(),
            0u);  // |delta| = 0.01 <= 0.02
  EXPECT_EQ(diff_bench_logs(base, one_key("k", {{"llc_hit_rate", 0.55}})).regressions(),
            1u);  // 0.05 > 0.02
}

TEST(BenchDiff, ZeroBaselinesAndNulls) {
  // 0 -> 0 passes even for exact counters; 0 -> nonzero fails.
  const BenchLog zero = one_key("k", {{"dir_accesses", 0.0}});
  EXPECT_EQ(diff_bench_logs(zero, zero).regressions(), 0u);
  EXPECT_EQ(diff_bench_logs(zero, one_key("k", {{"dir_accesses", 3.0}})).regressions(),
            1u);
  // null vs null passes; null vs value is a change.
  const double nan = std::nan("");
  EXPECT_EQ(diff_bench_logs(one_key("k", {{"avg_dir_occupancy", nan}}),
                            one_key("k", {{"avg_dir_occupancy", nan}}))
                .regressions(),
            0u);
  EXPECT_EQ(diff_bench_logs(one_key("k", {{"avg_dir_occupancy", nan}}),
                            one_key("k", {{"avg_dir_occupancy", 0.5}}))
                .regressions(),
            1u);
}

TEST(BenchDiff, CoverageSemantics) {
  const BenchLog base = one_key("old", {{"cycles", 1.0}});
  const BenchLog cand = one_key("new", {{"cycles", 1.0}});
  const BenchDiff d = diff_bench_logs(base, cand);
  // Baseline key missing from the candidate -> regression (coverage loss);
  // a brand-new candidate key is informational only.
  ASSERT_EQ(d.only_in_base.size(), 1u);
  EXPECT_EQ(d.only_in_base[0], "old");
  ASSERT_EQ(d.only_in_candidate.size(), 1u);
  EXPECT_EQ(d.regressions(), 1u);
  // A metric the baseline had but the candidate dropped is also a failure.
  const BenchDiff d2 = diff_bench_logs(one_key("k", {{"cycles", 1.0}, {"tasks", 2.0}}),
                                       one_key("k", {{"cycles", 1.0}}));
  ASSERT_EQ(d2.exceeded.size(), 1u);
  EXPECT_EQ(d2.exceeded[0].metric, "tasks");
}

TEST(BenchDiff, FileRoundTripAndMarkdownReport) {
  const std::string dir = "test_report_diff_tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream out(dir + "/" + name);
    out << text;
  };
  write("base.json", "{\n  \"k\": {\"cycles\": 1000, \"tasks\": 4}\n}\n");
  write("cand.json", "{\n  \"k\": {\"cycles\": 1500, \"tasks\": 4}\n}\n");
  BenchLog base, cand;
  ASSERT_EQ(load_bench_json(dir + "/base.json", base), "");
  ASSERT_EQ(load_bench_json(dir + "/cand.json", cand), "");
  EXPECT_NE(load_bench_json(dir + "/missing.json", base), "");
  const BenchDiff d = diff_bench_logs(base, cand);
  ASSERT_EQ(d.regressions(), 1u);
  const std::string md = d.report(/*markdown=*/true);
  EXPECT_NE(md.find("FAIL"), std::string::npos);
  EXPECT_NE(md.find("| `k` | cycles |"), std::string::npos);
  EXPECT_NE(md.find("+50.000%"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace raccd
