#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/bignum.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace stt {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int bound : {1, 2, 3, 10, 1000}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(static_cast<std::uint64_t>(bound)),
                static_cast<std::uint64_t>(bound));
    }
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SampleDistinct) {
  Rng rng(11);
  std::vector<int> pool{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto s = rng.sample(std::span<const int>(pool), 4);
  EXPECT_EQ(s.size(), 4u);
  std::set<int> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 4u);
}

TEST(Rng, SampleMoreThanPoolReturnsAll) {
  Rng rng(11);
  std::vector<int> pool{1, 2, 3};
  const auto s = rng.sample(std::span<const int>(pool), 10);
  EXPECT_EQ(s.size(), 3u);
}

TEST(Rng, SplitIndependence) {
  Rng rng(1);
  Rng child = rng.split();
  EXPECT_NE(rng(), child());
}

// ------------------------------------------------------------- BigNum ----

TEST(BigNum, ZeroBehaviour) {
  const BigNum z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_TRUE((z * BigNum::from_double(5)).is_zero());
  EXPECT_NEAR((z + BigNum::from_double(5)).to_double(), 5.0, 1e-12);
}

TEST(BigNum, FromDoubleRoundtrip) {
  const BigNum n = BigNum::from_double(123456.0);
  EXPECT_NEAR(n.to_double(), 123456.0, 1e-4);
}

TEST(BigNum, NegativeThrows) {
  EXPECT_THROW(BigNum::from_double(-1.0), std::invalid_argument);
}

TEST(BigNum, MultiplicationAddsExponents) {
  const BigNum a = BigNum::from_mantissa_exp(2.0, 100);
  const BigNum b = BigNum::from_mantissa_exp(3.0, 150);
  const BigNum c = a * b;
  EXPECT_NEAR(c.log10(), std::log10(6.0) + 250.0, 1e-9);
}

TEST(BigNum, AdditionLogSumExp) {
  const BigNum a = BigNum::from_double(3.0);
  const BigNum b = BigNum::from_double(4.0);
  EXPECT_NEAR((a + b).to_double(), 7.0, 1e-9);
}

TEST(BigNum, AdditionSwampedTerm) {
  const BigNum big = BigNum::from_mantissa_exp(1.0, 200);
  const BigNum tiny = BigNum::from_double(1.0);
  EXPECT_NEAR((big + tiny).log10(), 200.0, 1e-12);
}

TEST(BigNum, Pow2) {
  EXPECT_NEAR(BigNum::pow2(10).to_double(), 1024.0, 1e-6);
  EXPECT_NEAR(BigNum::pow2(500).log10(), 500 * std::log10(2.0), 1e-9);
}

TEST(BigNum, PowiMatchesRepeatedMultiply) {
  const BigNum base = BigNum::from_double(2.5);
  BigNum acc = BigNum::from_double(1.0);
  for (int i = 0; i < 7; ++i) acc *= base;
  EXPECT_NEAR(acc.log10(), base.powi(7).log10(), 1e-9);
}

TEST(BigNum, Ordering) {
  const BigNum a = BigNum::from_double(10);
  const BigNum b = BigNum::from_double(20);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(BigNum() < a);
  EXPECT_TRUE(a == BigNum::from_double(10));
}

TEST(BigNum, ScientificFormatting) {
  EXPECT_EQ(BigNum::from_mantissa_exp(6.07, 219).to_string(), "6.07E+219");
  EXPECT_EQ(BigNum::from_double(1.0).to_string(), "1.00E+0");
  EXPECT_EQ(BigNum::from_double(0.05).to_string(), "5.00E-2");
}

TEST(BigNum, FormattingRoundsMantissaOverflow) {
  // 9.999 with 2 digits rounds to 10.00 -> must renormalize to 1.00E+x.
  EXPECT_EQ(BigNum::from_double(9.999).to_string(), "1.00E+1");
}

TEST(BigNum, ToDoubleOverflowsToInf) {
  EXPECT_TRUE(std::isinf(BigNum::pow2(2000).to_double()));
}

// ------------------------------------------------------------ strings ----

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("  "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a \n"), "a");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  foo   bar\tbaz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_lower("NaNd"), "nand");
  EXPECT_EQ(to_upper("NaNd"), "NAND");
  EXPECT_TRUE(iequals("LUT_x", "lut_X"));
  EXPECT_FALSE(iequals("a", "ab"));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("LUT_0x8", "LUT_"));
  EXPECT_FALSE(starts_with("LU", "LUT_"));
  EXPECT_TRUE(ends_with("file.bench", ".bench"));
  EXPECT_FALSE(ends_with("b", ".bench"));
}

TEST(Strings, Format) {
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strformat("%.2f%%", 3.14159), "3.14%");
}

// -------------------------------------------------------------- table ----

TEST(Strings, StrictIntParse) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("0", 0, 0), 0);
  for (const char* bad : {"", " 5", "5 ", "+5", "0x10", "1e3", "2.5", "nan",
                          "inf", "abc", "12x", "99999999999999999999"}) {
    EXPECT_FALSE(parse_int(bad)) << '"' << bad << '"';
  }
  EXPECT_FALSE(parse_int("-1", 0));
  EXPECT_FALSE(parse_int("9", 0, 8));
  EXPECT_EQ(parse_int("8", 0, 8), 8);
}

TEST(Strings, StrictRealParse) {
  EXPECT_EQ(parse_real("0.35"), 0.35);
  EXPECT_EQ(parse_real("-2"), -2.0);
  EXPECT_EQ(parse_real("1e3"), 1000.0);
  for (const char* bad : {"", " 5", "+5", "0x10", "1e999", "nan", "NaN",
                          "inf", "-inf", "infinity", "1fJ", "."}) {
    EXPECT_FALSE(parse_real(bad)) << '"' << bad << '"';
  }
  EXPECT_FALSE(parse_real("-0.5", 0));
  EXPECT_FALSE(parse_real("1.5", 0, 1));
}

TEST(Strings, StrictHexParse) {
  EXPECT_EQ(parse_hex("ff"), 0xffu);
  EXPECT_EQ(parse_hex("0x1F"), 0x1fu);
  EXPECT_EQ(parse_hex("0XfFfFfFfFfFfFfFfF"), ~0ull);
  for (const char* bad : {"", "0x", "zz", "0x1garbage", " 1", "+1", "-1",
                          "0x-1", "0x0x1", "10000000000000000"}) {
    EXPECT_FALSE(parse_hex(bad)) << '"' << bad << '"';
  }
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Circuit", "Value"});
  t.add_row({"s641", "11.14"});
  t.add_row({"s38584", "0.21"});
  const std::string out = t.render();
  EXPECT_NE(out.find("s641"), std::string::npos);
  EXPECT_NE(out.find("11.14"), std::string::npos);
  // Every rendered line has the same width.
  std::size_t width = 0;
  for (const auto& line : split(out, '\n')) {
    if (line.empty()) continue;
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

// -------------------------------------------------------------- stats ----

TEST(Accumulator, Moments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero) {
  const Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

// -------------------------------------------------------------- timer ----

TEST(Timer, FormatMmSs) {
  EXPECT_EQ(Timer::format_mmss(0.7), "00:00.7");
  EXPECT_EQ(Timer::format_mmss(75.5), "01:15.5");
  EXPECT_EQ(Timer::format_mmss(-3.0), "00:00.0");
}

TEST(Timer, MeasuresElapsed) {
  const Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 10.0);
}

}  // namespace
}  // namespace stt
