#include <gtest/gtest.h>

#include "raccd/common/bits.hpp"
#include "raccd/common/format.hpp"
#include "raccd/common/math.hpp"
#include "raccd/common/parse.hpp"
#include "raccd/common/rng.hpp"
#include "raccd/common/types.hpp"

namespace raccd {
namespace {

TEST(Types, LineAndPageArithmetic) {
  EXPECT_EQ(line_of(0), 0u);
  EXPECT_EQ(line_of(63), 0u);
  EXPECT_EQ(line_of(64), 1u);
  EXPECT_EQ(addr_of_line(3), 192u);
  EXPECT_EQ(page_of(4095), 0u);
  EXPECT_EQ(page_of(4096), 1u);
  EXPECT_EQ(page_offset(4097), 1u);
  EXPECT_EQ(line_offset(130), 2u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_down(127, 64), 64u);
}

TEST(Types, AddrRange) {
  const AddrRange r{100, 200};
  EXPECT_EQ(r.size(), 100u);
  EXPECT_TRUE(r.contains(100));
  EXPECT_TRUE(r.contains(199));
  EXPECT_FALSE(r.contains(200));
  EXPECT_TRUE(r.overlaps(AddrRange{199, 300}));
  EXPECT_FALSE(r.overlaps(AddrRange{200, 300}));
  EXPECT_FALSE(r.overlaps(AddrRange{0, 100}));
  EXPECT_TRUE(AddrRange{}.empty());
}

TEST(Bits, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(65536));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(4096), 12u);
  EXPECT_EQ(ceil_pow2(0), 1u);
  EXPECT_EQ(ceil_pow2(5), 8u);
  EXPECT_EQ(ceil_pow2(8), 8u);
  EXPECT_EQ(popcount64(0xF0F0), 8u);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundsRespected) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const float f = rng.next_float(-2.0f, 3.0f);
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 3.0f);
  }
}

TEST(Rng, RoughUniformity) {
  Rng rng(99);
  int buckets[8] = {};
  for (int i = 0; i < 80000; ++i) ++buckets[rng.next_below(8)];
  for (const int b : buckets) {
    EXPECT_GT(b, 9000);
    EXPECT_LT(b, 11000);
  }
}

TEST(Math, MeanGeomeanRatio) {
  const double xs[] = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(ratio(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percent(1.0, 4.0), 25.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Format, Strings) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2 KB");
  EXPECT_EQ(format_bytes(32ull * 1024 * 1024), "32 MB");
  EXPECT_EQ(format_count(1), "1");
  EXPECT_EQ(format_count(1234), "1,234");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

TEST(ParseNumber, AcceptsWholeFieldsInRange) {
  unsigned u = 99;
  EXPECT_EQ(parse_number("0", 0u, 8u, u), "");
  EXPECT_EQ(u, 0u);
  EXPECT_EQ(parse_number("8", 0u, 8u, u), "");
  EXPECT_EQ(u, 8u);
  EXPECT_EQ(parse_number("007", 0u, 8u, u), "");
  EXPECT_EQ(u, 7u);
  std::uint64_t big = 0;
  EXPECT_EQ(parse_number("18446744073709551615", std::uint64_t{0}, ~std::uint64_t{0}, big),
            "");
  EXPECT_EQ(big, ~std::uint64_t{0});
  double d = 0.0;
  EXPECT_EQ(parse_number("2.5", 0.0, 100.0, d), "");
  EXPECT_EQ(d, 2.5);
}

TEST(ParseNumber, RejectsWhatStrtoulWouldAccept) {
  for (const char* junk : {"", "abc", "-1", "+1", " 1", "1 ", "12abc", "0x10", "1.0", "9",
                           "18446744073709551616"}) {
    unsigned u = 5;
    const std::string err = parse_number(junk, 1u, 8u, u);
    EXPECT_NE(err, "") << "'" << junk << "'";
    EXPECT_EQ(u, 5u) << "'" << junk << "' changed the output";
  }
  unsigned u = 0;
  EXPECT_EQ(parse_number("0", 1u, 8u, u), "'0' is not a number in [1, 8]");
  for (const char* junk : {"", "-1", "+1", "nan", "inf", ".5", "1e9", "2%", "101"}) {
    double d = 0.0;
    EXPECT_NE(parse_number(junk, 0.0, 100.0, d), "") << "'" << junk << "'";
  }
}

}  // namespace
}  // namespace raccd
