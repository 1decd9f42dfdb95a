// Arrival-process tests: determinism, Poisson empirical mean, burst duty
// cycle, trace round-trip, and independence from ambient execution state
// (the schedule is a pure function of the config — see arrivals.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "raccd/service/arrivals.hpp"

namespace raccd {
namespace {

ArrivalConfig poisson_cfg(std::uint64_t count, double mean_gap,
                          std::uint64_t seed = 1) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.count = count;
  cfg.mean_gap_cycles = mean_gap;
  cfg.seed = seed;
  return cfg;
}

TEST(Arrivals, SameConfigSameSchedule) {
  const ArrivalConfig cfg = poisson_cfg(500, 1000.0, 7);
  std::string err;
  const auto a = generate_arrivals(cfg, &err);
  const auto b = generate_arrivals(cfg, &err);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b);
  // A different seed must give a different schedule (else the "seeded"
  // part of the generator is dead).
  const auto c = generate_arrivals(poisson_cfg(500, 1000.0, 8), &err);
  EXPECT_NE(a, c);
}

TEST(Arrivals, ScheduleIsNonDecreasingAndPositive) {
  std::string err;
  const auto s = generate_arrivals(poisson_cfg(2000, 250.0, 3), &err);
  ASSERT_EQ(s.size(), 2000u);
  EXPECT_GE(s.front(), 1u);  // release 0 means "not gated" — never emitted
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GE(s[i], s[i - 1]);
}

TEST(Arrivals, PoissonEmpiricalMeanMatchesConfiguredGap) {
  // With n = 20000 exponential gaps the sample mean is within a few percent
  // of the configured mean (stderr = mean/sqrt(n) ≈ 0.7%); 5% is a safe
  // deterministic bound for the fixed seed.
  constexpr std::uint64_t kCount = 20000;
  constexpr double kGap = 1000.0;
  std::string err;
  const auto s = generate_arrivals(poisson_cfg(kCount, kGap, 42), &err);
  ASSERT_EQ(s.size(), kCount);
  const double mean = static_cast<double>(s.back()) / static_cast<double>(kCount);
  EXPECT_GT(mean, kGap * 0.95);
  EXPECT_LT(mean, kGap * 1.05);
}

TEST(Arrivals, BurstArrivalsLandInDutyWindowAtPreservedRate) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBurst;
  cfg.count = 8000;
  cfg.mean_gap_cycles = 1000.0;
  cfg.burst_duty = 0.25;
  cfg.burst_period_cycles = 16000;
  cfg.seed = 11;
  std::string err;
  const auto s = generate_arrivals(cfg, &err);
  ASSERT_EQ(s.size(), cfg.count);
  // Every arrival lands in the leading duty fraction of its period (+1 for
  // the integer rounding of the wall-time mapping).
  const auto on_len = static_cast<Cycle>(cfg.burst_period_cycles * cfg.burst_duty);
  for (const Cycle t : s) EXPECT_LE(t % cfg.burst_period_cycles, on_len + 1);
  // The on/off modulation preserves the wall-clock mean rate.
  const double mean = static_cast<double>(s.back()) / static_cast<double>(cfg.count);
  EXPECT_GT(mean, cfg.mean_gap_cycles * 0.95);
  EXPECT_LT(mean, cfg.mean_gap_cycles * 1.05);
}

TEST(Arrivals, ScheduleTextRoundTripsExactly) {
  std::string err;
  const auto s = generate_arrivals(poisson_cfg(300, 777.0, 5), &err);
  const std::string text = format_schedule(s);
  std::vector<Cycle> back;
  ASSERT_TRUE(parse_schedule(text, back, &err)) << err;
  EXPECT_EQ(s, back);
}

TEST(Arrivals, ScheduleFileRoundTripsThroughTraceKind) {
  std::string err;
  const auto s = generate_arrivals(poisson_cfg(64, 500.0, 9), &err);
  const std::string path = ::testing::TempDir() + "raccd_sched_roundtrip.txt";
  ASSERT_TRUE(write_schedule_file(path, s, &err)) << err;
  std::vector<Cycle> back;
  ASSERT_TRUE(read_schedule_file(path, back, &err)) << err;
  EXPECT_EQ(s, back);
  // And the trace arrival kind replays the file bit-identically.
  ArrivalConfig trace;
  trace.kind = ArrivalKind::kTrace;
  trace.trace_path = path;
  const auto replayed = generate_arrivals(trace, &err);
  EXPECT_EQ(s, replayed);
  std::remove(path.c_str());
}

TEST(Arrivals, ParseRejectsMalformedSchedules) {
  std::vector<Cycle> out;
  std::string err;
  EXPECT_FALSE(parse_schedule("not-a-sched v9\n1\n5\n", out, &err));
  EXPECT_FALSE(err.empty());
  // Decreasing releases violate the non-decreasing invariant.
  EXPECT_FALSE(parse_schedule("raccd-sched v1\n2\n50\n10\n", out, &err));
  // Count/body mismatch.
  EXPECT_FALSE(parse_schedule("raccd-sched v1\n3\n10\n20\n", out, &err));
}

TEST(Arrivals, ParseRejectsSignedRelease) {
  std::vector<Cycle> out;
  std::string err;
  EXPECT_FALSE(parse_schedule("raccd-sched v1\n1\n-5\n", out, &err));
  EXPECT_NE(err.find("-5"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(parse_schedule("raccd-sched v1\n1\n+5\n", out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Arrivals, ParseRejectsTrailingCharacters) {
  std::vector<Cycle> out;
  std::string err;
  EXPECT_FALSE(parse_schedule("raccd-sched v1\n1\n12abc\n", out, &err));
  EXPECT_NE(err.find("12abc"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(parse_schedule("raccd-sched v1\n1x\n12\n", out, &err));
  EXPECT_FALSE(err.empty());
  // Surrounding spaces and CRLF line ends are still fine.
  ASSERT_TRUE(parse_schedule("raccd-sched v1\n 2\r\n12 \r\n\t13\n", out, &err)) << err;
  EXPECT_EQ(out, (std::vector<Cycle>{12, 13}));
}

TEST(Arrivals, ParseRejectsOutOfRangeCountWithoutAllocating) {
  std::vector<Cycle> out;
  std::string err;
  // Past 2^64-1: must be an error, not a clamp to ULLONG_MAX that reserve()
  // turns into an uncaught std::length_error.
  EXPECT_FALSE(parse_schedule("raccd-sched v1\n99999999999999999999\n5\n", out, &err));
  EXPECT_NE(err.find("99999999999999999999"), std::string::npos) << err;
  // In range but absurd: rejected by the body check, never reserved.
  err.clear();
  EXPECT_FALSE(parse_schedule("raccd-sched v1\n18446744073709551615\n5\n", out, &err));
  EXPECT_NE(err.find("declares"), std::string::npos) << err;
}

TEST(Arrivals, GenerationIsIndependentOfExecutionContext) {
  // The schedule is a pure function of the config: generating it from many
  // threads concurrently (the worst ambient-state environment a sweep
  // executor provides) yields the identical schedule everywhere — release
  // order can never depend on the worker count that later serves it.
  const ArrivalConfig cfg = poisson_cfg(1000, 800.0, 21);
  std::string err;
  const auto reference = generate_arrivals(cfg, &err);
  ASSERT_EQ(reference.size(), 1000u);
  std::vector<std::vector<Cycle>> got(4);
  {
    std::vector<std::thread> workers;
    workers.reserve(got.size());
    for (auto& out : got) {
      workers.emplace_back([&out, &cfg] { out = generate_arrivals(cfg); });
    }
    for (auto& w : workers) w.join();
  }
  for (const auto& s : got) EXPECT_EQ(s, reference);
}

}  // namespace
}  // namespace raccd
