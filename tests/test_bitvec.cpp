// Unit and property tests for tp::f2::BitVec and Rng.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unordered_set>

#include "f2/bitvec.hpp"

namespace tp::f2 {
namespace {

TEST(BitVec, DefaultIsZero) {
  BitVec v(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, SetGetFlip) {
  BitVec v(130);  // spans three words
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  v.flip(64);
  EXPECT_TRUE(v.get(64));
  v.set(0, false);
  EXPECT_FALSE(v.get(0));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, FromUintRoundTrip) {
  BitVec v = BitVec::from_uint(16, 0xBEEF);
  EXPECT_EQ(v.to_uint(), 0xBEEFu);
  EXPECT_EQ(v.popcount(), 13u);
}

TEST(BitVec, FromStringMatchesPaperFigure4) {
  // TS(1) in Figure 4 is the MSB-first string 00010100.
  BitVec ts1 = BitVec::from_string("00010100");
  EXPECT_EQ(ts1.size(), 8u);
  EXPECT_EQ(ts1.to_uint(), 0x14u);
  EXPECT_EQ(ts1.to_string(), "00010100");
}

TEST(BitVec, FromStringRejectsOtherCharacters) {
  // Timeprint text arrives from files and the command line, so a bad
  // character must be an error in every build type.
  try {
    BitVec::from_string("0000000z");
    FAIL() << "from_string accepted 'z'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'z' at position 7"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(BitVec::from_string("01 1"), std::invalid_argument);
  EXPECT_THROW(BitVec::from_string("2"), std::invalid_argument);
}

TEST(BitVec, Figure4TimeprintAggregation) {
  // The paper's didactic example: TS(4) + TS(5) + TS(10) + TS(11) with
  // XOR aggregation yields the timeprint 00000001.
  BitVec ts4 = BitVec::from_string("01000100");
  BitVec ts5 = BitVec::from_string("00000010");
  BitVec ts10 = BitVec::from_string("11100111");
  BitVec ts11 = BitVec::from_string("10100000");
  BitVec tp = ts4 ^ ts5 ^ ts10 ^ ts11;
  EXPECT_EQ(tp.to_string(), "00000001");
}

TEST(BitVec, XorIsSelfInverse) {
  Rng rng(42);
  for (int iter = 0; iter < 50; ++iter) {
    BitVec a = BitVec::random(100, rng);
    BitVec b = BitVec::random(100, rng);
    EXPECT_TRUE(((a ^ b) ^ b) == a);
    EXPECT_TRUE((a ^ a).is_zero());
  }
}

TEST(BitVec, IncrementCountsLikeInteger) {
  BitVec v(9);
  for (std::uint64_t expect = 1; expect < 512; ++expect) {
    v.increment();
    EXPECT_EQ(v.to_uint(), expect);
  }
  v.increment();  // wraps modulo 2^9
  EXPECT_TRUE(v.is_zero());
}

TEST(BitVec, IncrementCarriesAcrossWords) {
  BitVec v(70);
  for (std::size_t i = 0; i < 64; ++i) v.set(i, true);  // low word all ones
  v.increment();
  EXPECT_FALSE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_EQ(v.popcount(), 1u);
}

TEST(BitVec, OrderingIsInteger) {
  EXPECT_LT(BitVec::from_uint(8, 3), BitVec::from_uint(8, 5));
  EXPECT_LT(BitVec::from_uint(8, 0x0F), BitVec::from_uint(8, 0xF0));
  BitVec lo(70), hi(70);
  lo.set(63, true);
  hi.set(64, true);
  EXPECT_LT(lo, hi);
}

TEST(BitVec, UnitVector) {
  BitVec v = BitVec::unit(20, 13);
  EXPECT_EQ(v.popcount(), 1u);
  EXPECT_TRUE(v.get(13));
  EXPECT_EQ(v.lowest_set(), 13u);
  EXPECT_EQ(v.highest_set(), 13u);
}

TEST(BitVec, HighestLowestSetOnZero) {
  BitVec v(40);
  EXPECT_EQ(v.highest_set(), 40u);
  EXPECT_EQ(v.lowest_set(), 40u);
}

TEST(BitVec, DotProductParity) {
  BitVec a = BitVec::from_string("1101");
  BitVec b = BitVec::from_string("1011");
  // overlap = 1001 -> two ones -> even parity
  EXPECT_FALSE(a.dot(b));
  BitVec c = BitVec::from_string("0111");
  // a & c = 0101 -> two ones -> even
  EXPECT_FALSE(a.dot(c));
  BitVec d = BitVec::from_string("0001");
  EXPECT_TRUE(a.dot(d));
}

TEST(BitVec, HashDistinguishesVectors) {
  Rng rng(7);
  std::unordered_set<BitVec> set;
  for (int i = 0; i < 1000; ++i) set.insert(BitVec::random(64, rng));
  // With a 64-bit space, 1000 random vectors collide with negligible
  // probability; the hash-set must keep them all distinct.
  EXPECT_GT(set.size(), 995u);
}

TEST(BitVec, RandomRespectsDimension) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    BitVec v = BitVec::random(13, rng);
    EXPECT_EQ(v.size(), 13u);
    EXPECT_LT(v.to_uint(), 1u << 13);
  }
}

TEST(Rng, DeterministicStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

class BitVecWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVecWidthTest, ToStringRoundTrip) {
  Rng rng(GetParam());
  BitVec v = BitVec::random(GetParam(), rng);
  EXPECT_EQ(BitVec::from_string(v.to_string()), v);
}

TEST_P(BitVecWidthTest, PopcountMatchesManualCount) {
  Rng rng(GetParam() * 31 + 1);
  BitVec v = BitVec::random(GetParam(), rng);
  std::size_t manual = 0;
  for (std::size_t i = 0; i < v.size(); ++i) manual += v.get(i) ? 1 : 0;
  EXPECT_EQ(v.popcount(), manual);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVecWidthTest,
                         ::testing::Values(1, 7, 8, 63, 64, 65, 127, 128, 129,
                                           1000));

}  // namespace
}  // namespace tp::f2
