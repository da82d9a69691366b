// Tests for timestamp encodings: construction, LI-depth guarantees,
// widths, and the logging-rate arithmetic.

#include <gtest/gtest.h>

#include <unordered_set>

#include "f2/matrix.hpp"
#include "timeprint/design.hpp"
#include "timeprint/encoding.hpp"

namespace tp::core {
namespace {

TEST(CounterBits, MatchesCeilLog2) {
  EXPECT_EQ(counter_bits(1), 1u);
  EXPECT_EQ(counter_bits(2), 2u);
  EXPECT_EQ(counter_bits(3), 2u);
  EXPECT_EQ(counter_bits(4), 3u);
  EXPECT_EQ(counter_bits(15), 4u);
  EXPECT_EQ(counter_bits(16), 5u);
  EXPECT_EQ(counter_bits(1000), 10u);
  EXPECT_EQ(counter_bits(1024), 11u);
}

TEST(Encoding, OneHotIsFullyIndependent) {
  auto enc = TimestampEncoding::one_hot(12);
  EXPECT_EQ(enc.m(), 12u);
  EXPECT_EQ(enc.width(), 12u);
  EXPECT_TRUE(f2::Matrix::linearly_independent(enc.timestamps()));
  EXPECT_EQ(enc.to_matrix().rank(), 12u);
}

TEST(Encoding, BinaryTimestampsAreDistinctNonzero) {
  auto enc = TimestampEncoding::binary(100);
  EXPECT_EQ(enc.width(), counter_bits(100));
  std::unordered_set<f2::BitVec> seen;
  for (const auto& ts : enc.timestamps()) {
    EXPECT_FALSE(ts.is_zero());
    EXPECT_TRUE(seen.insert(ts).second) << "duplicate timestamp";
  }
}

TEST(Encoding, RandomConstrainedSatisfiesLi4) {
  auto enc = TimestampEncoding::random_constrained(64, 13, 4, /*seed=*/1);
  EXPECT_EQ(enc.m(), 64u);
  EXPECT_EQ(enc.width(), 13u);
  EXPECT_TRUE(enc.verify_li(4));
  EXPECT_TRUE(enc.verify_li(3));
  EXPECT_TRUE(enc.verify_li(2));
}

TEST(Encoding, RandomConstrainedThrowsWhenWidthTooSmall) {
  // 64 LI-4 timestamps cannot fit in 7 bits (pairwise XORs alone need
  // C(64,2)=2016 distinct nonzero values out of 127).
  EXPECT_THROW(TimestampEncoding::random_constrained(64, 7, 4, 1, /*max_attempts=*/100000),
               std::runtime_error);
}

TEST(Encoding, RandomConstrainedIsSeedDeterministic) {
  auto a = TimestampEncoding::random_constrained(32, 12, 4, 99);
  auto b = TimestampEncoding::random_constrained(32, 12, 4, 99);
  auto c = TimestampEncoding::random_constrained(32, 12, 4, 100);
  EXPECT_EQ(a.timestamps(), b.timestamps());
  EXPECT_NE(a.timestamps(), c.timestamps());
}

TEST(Encoding, IncrementalIsLexicographicallyMinimal) {
  auto enc = TimestampEncoding::incremental(16, 10, 4);
  EXPECT_TRUE(enc.verify_li(4));
  // Greedy lexicode starts 1, 2, 4, 8, ... for the first independent picks?
  // At minimum it must be strictly increasing as integers.
  for (std::size_t i = 1; i < enc.m(); ++i) {
    EXPECT_LT(enc.timestamp(i - 1), enc.timestamp(i));
  }
  EXPECT_EQ(enc.timestamp(0).to_uint(), 1u);
  EXPECT_EQ(enc.timestamp(1).to_uint(), 2u);
}

TEST(Encoding, IncrementalDepth2IsAllNonzeroValues) {
  // At depth 2 the greedy code takes every nonzero value: 1, 2, 3, ...
  auto enc = TimestampEncoding::incremental(7, 3, 2);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(enc.timestamp(i).to_uint(), i + 1);
  }
}

TEST(Encoding, IncrementalAutoFindsMinimalWidth) {
  auto enc = TimestampEncoding::incremental_auto(64, 4);
  EXPECT_EQ(enc.m(), 64u);
  EXPECT_TRUE(enc.verify_li(4));
  // The same construction must fail at width-1.
  EXPECT_THROW(TimestampEncoding::incremental(64, enc.width() - 1, 4),
               std::runtime_error);
}

TEST(Encoding, GreedyLexicodeWidthIsNearTheoreticalBound) {
  // A distance-5 (LI-4) code with m codewords needs roughly 2·log2(m)
  // parity bits (BCH bound). The greedy lexicode should land close for the
  // paper's trace-cycle lengths.
  auto enc64 = TimestampEncoding::incremental_auto(64, 4);
  EXPECT_GE(enc64.width(), 12u);
  EXPECT_LE(enc64.width(), 16u);
}

TEST(Encoding, VerifyLiDetectsViolation) {
  // Hand-build an encoding-like set that is LI-2 but not LI-3 using the
  // checker on a binary encoding (1, 2, 3 = 1^2 violates depth 3).
  auto enc = TimestampEncoding::binary(7);
  EXPECT_TRUE(enc.verify_li(2));   // all distinct and nonzero
  EXPECT_FALSE(enc.verify_li(3));  // 3 = 1 XOR 2
}

TEST(Encoding, BitsPerTraceCycleAndLogRate) {
  // Paper §5.2.1: m = 1000, b = 24 on a 5 MHz CAN bus => 5 entries/s of
  // 24+10 bits = 170 bps.
  auto enc = TimestampEncoding::random_constrained(1000, 24, 4, 3);
  EXPECT_EQ(enc.bits_per_trace_cycle(), 34u);
  EXPECT_NEAR(enc.log_rate_bps(5e6), 170000.0 / 1000.0 * 1000.0, 1e-6);
  EXPECT_NEAR(enc.log_rate_bps(5e6), 170.0 * 1000.0, 1e-6);
}

TEST(Encoding, PaperTable1LogRates) {
  // Table 1's R column at 100 MHz: m=64,b=13 -> (13+7)/64*100MHz? The
  // paper reports 20.97 MHz-equivalent bit rate for m=64. Counter bits for
  // m=64 is ceil(log2(65)) = 7; (13+7)/64*100e6 = 31.25 Mbps. The paper's
  // 20.97 corresponds to (13.42)/64 -- it uses log2(m)=6 and truncates.
  // We assert our own formula's value and its monotone decrease with m.
  const double r64 = log_rate_bps(64, 13, 100e6);
  const double r128 = log_rate_bps(128, 16, 100e6);
  const double r512 = log_rate_bps(512, 22, 100e6);
  const double r1024 = log_rate_bps(1024, 24, 100e6);
  EXPECT_GT(r64, r128);
  EXPECT_GT(r128, r512);
  EXPECT_GT(r512, r1024);
  EXPECT_NEAR(r64, (13 + 7) / 64.0 * 100e6, 1);
  EXPECT_NEAR(r1024, (24 + 11) / 1024.0 * 100e6, 1);
}

TEST(Design, PaperWidths) {
  EXPECT_EQ(paper_width(64), 13u);
  EXPECT_EQ(paper_width(128), 16u);
  EXPECT_EQ(paper_width(512), 22u);
  EXPECT_EQ(paper_width(1024), 24u);
}

TEST(Design, ExpectedSolutionsShrinksWithWidth) {
  const double wide = expected_solutions(64, 4, 20);
  const double narrow = expected_solutions(64, 4, 10);
  EXPECT_LT(wide, narrow);
  // C(16,4) = 1820; with b=8: 1820/256 ~ 7.1 expected solutions — the
  // Figure 4 didactic instance indeed has 8.
  EXPECT_NEAR(expected_solutions(16, 4, 8), 1820.0 / 256.0, 1e-9);
}

struct SchemeCase {
  EncodingScheme scheme;
  const char* name;
};

// Without a printer gtest dumps the raw bytes — including the string-literal
// pointer and padding — so the registered test names changed from run to run.
void PrintTo(const SchemeCase& c, std::ostream* os) { *os << c.name; }

class SchemeNameTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(SchemeNameTest, ToString) {
  EXPECT_STREQ(to_string(GetParam().scheme), GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    All, SchemeNameTest,
    ::testing::Values(SchemeCase{EncodingScheme::OneHot, "one-hot"},
                      SchemeCase{EncodingScheme::Binary, "binary"},
                      SchemeCase{EncodingScheme::RandomConstrained, "random-constrained"},
                      SchemeCase{EncodingScheme::Incremental, "incremental"}));

// Property sweep: both LI-4 constructions stay LI-4 across sizes.
struct LiSweep {
  std::size_t m;
  std::size_t b;
};

class LiSweepTest : public ::testing::TestWithParam<LiSweep> {};

TEST_P(LiSweepTest, RandomConstrainedVerifies) {
  const auto [m, b] = GetParam();
  auto enc = TimestampEncoding::random_constrained(m, b, 4, /*seed=*/m * 31 + b);
  EXPECT_TRUE(enc.verify_li(4));
  EXPECT_EQ(enc.scheme(), EncodingScheme::RandomConstrained);
}

TEST_P(LiSweepTest, IncrementalVerifies) {
  const auto [m, b] = GetParam();
  auto enc = TimestampEncoding::incremental(m, b + 4, 4);  // greedy needs more width
  EXPECT_TRUE(enc.verify_li(4));
  EXPECT_EQ(enc.scheme(), EncodingScheme::Incremental);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LiSweepTest,
                         ::testing::Values(LiSweep{16, 10}, LiSweep{32, 12},
                                           LiSweep{64, 13}, LiSweep{128, 16}));

}  // namespace
}  // namespace tp::core
