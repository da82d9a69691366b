// Tests for timestamp encodings: construction, LI-depth guarantees,
// widths, and the logging-rate arithmetic.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
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

// The LI-d constructions take (m, b, depth) from callers such as tpr's
// command line, so each out-of-range value throws in every build type
// rather than slipping past a compiled-out assert.
TEST(Encoding, RejectsDepthOutsideOneToFour) {
  for (std::size_t depth : {std::size_t{0}, std::size_t{5}, std::size_t{9}}) {
    EXPECT_THROW(TimestampEncoding::random_constrained(4, 8, depth, 1),
                 std::invalid_argument);
    EXPECT_THROW(TimestampEncoding::incremental(4, 8, depth), std::invalid_argument);
    EXPECT_THROW(TimestampEncoding::random_constrained_auto(4, depth, 1),
                 std::invalid_argument);
    EXPECT_THROW(TimestampEncoding::incremental_auto(4, depth), std::invalid_argument);
  }
}

TEST(Encoding, RejectsZeroLength) {
  EXPECT_THROW(TimestampEncoding::random_constrained(0, 8, 4, 1), std::invalid_argument);
  EXPECT_THROW(TimestampEncoding::incremental(0, 8, 4), std::invalid_argument);
  EXPECT_THROW(TimestampEncoding::random_constrained_auto(0, 4, 1), std::invalid_argument);
  EXPECT_THROW(TimestampEncoding::incremental_auto(0, 4), std::invalid_argument);
}

TEST(Encoding, RejectsZeroWidth) {
  EXPECT_THROW(TimestampEncoding::random_constrained(3, 0, 4, 1), std::invalid_argument);
  EXPECT_THROW(TimestampEncoding::incremental(3, 0, 4), std::invalid_argument);
}

TEST(Encoding, OneHotRejectsZeroLength) {
  EXPECT_THROW(TimestampEncoding::one_hot(0), std::invalid_argument);
}

TEST(Encoding, BinaryRejectsZeroLength) {
  EXPECT_THROW(TimestampEncoding::binary(0), std::invalid_argument);
}

TEST(Encoding, FromVectorsRejectsNoTimestamps) {
  EXPECT_THROW(TimestampEncoding::from_vectors({}, 1), std::invalid_argument);
}

TEST(Encoding, FromVectorsRejectsUnequalWidths) {
  std::vector<f2::BitVec> ts = {f2::BitVec::from_string("0110"),
                                f2::BitVec::from_string("011")};
  EXPECT_THROW(TimestampEncoding::from_vectors(std::move(ts), 1), std::invalid_argument);
}

// FNV-1a over every timestamp word, in cycle order.
std::uint64_t fingerprint(const TimestampEncoding& enc) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const f2::BitVec& ts : enc.timestamps()) {
    for (std::size_t w = 0; w < ts.num_words(); ++w) {
      for (int byte = 0; byte < 8; ++byte) {
        h = (h ^ ((ts.word(w) >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// The encodings that perfbench, the benches, the examples and the tests
// build, pinned to fingerprints recorded from the construction before its
// LI checker was word-packed: the checker may change how fast timestamps
// are found, never which ones.
struct PinnedEncoding {
  std::size_t m, b, depth;
  std::uint64_t seed;
  std::uint64_t fingerprint;
};

TEST(Encoding, RandomConstrainedTimestampsArePinned) {
  const PinnedEncoding pins[] = {
      {256, 24, 4, 2019, 0x017a598c176eff29ULL},  // perfbench forensics, ingest
      {64, 16, 4, 11, 0xea5e0bf311d95ff5ULL},     // perfbench stream_decode
      {48, 12, 4, 7, 0xce008597e025da94ULL},      // perfbench wide_preimage
      {32, 12, 4, 17, 0x16bb272245e70534ULL},     // perfbench self-test
      {200, 20, 4, 5, 0x41daf61309f7079aULL},     // perfbench self-test
      {2, 70, 4, 1, 0x82cbedcb8b334d06ULL},       // two words per timestamp
      {64, 72, 4, 42, 0xda2b45dec641dbd8ULL},     // bench_incremental m64_b72_det
      {130, 80, 4, 6, 0x8abdc5d678c97d1eULL},
      {3, 128, 3, 2, 0xbfb3a6f3ecab640cULL},
      {32, 12, 4, 42, 0xd1e9e50eed2bb036ULL},     // paper widths, seed 42:
      {64, 13, 4, 42, 0xe94538e24acf0f2aULL},     //   Table 1/2, ablations,
      {96, 15, 4, 42, 0x292158423850529dULL},     //   bench_solver
      {128, 16, 4, 42, 0xb534ba77a60ab48aULL},
      {512, 22, 4, 42, 0x97c98a470b6ef582ULL},
      {64, 16, 4, 42, 0x029a47e986e3afebULL},     // bench_incremental
      {96, 16, 4, 42, 0xbad2f6dcce697801ULL},
      {64, 15, 4, 42, 0xe12ed50a69b3cf23ULL},     // bench_ablation_depth widths
      {64, 17, 4, 42, 0x24bcb9550ed88386ULL},
      {64, 20, 4, 42, 0xef2332706bd935c8ULL},
      {64, 24, 4, 42, 0xaffdab5781c30b85ULL},
      {64, 13, 4, 99, 0x49713b7c196a7d16ULL},     // examples/deadline_audit
      {32, 12, 4, 11, 0x3b0f139927542e1eULL},     // examples/lifecycle
      {64, 13, 4, 1, 0x53fae0a9c7a3d763ULL},      // tests
      {256, 20, 4, 5, 0xa0b810f9c7efe780ULL},
      {32, 12, 4, 7, 0x4076ed8089f1bc4cULL},
      {16, 10, 4, 11, 0x6262ad2d37589d69ULL},
      {64, 13, 4, 23, 0x31a14f74707645d6ULL},
      {12, 8, 4, 4, 0x3542add359fbb3d5ULL},
      {24, 12, 4, 8, 0xceac45c55cb5f2bfULL},
      {18, 9, 4, 42, 0x17b9f16acfd42dd0ULL},
      {32, 16, 4, 7, 0x7db034d88d44aab2ULL},
      {16, 9, 4, 3, 0x823523094c9de88dULL},
      {12, 8, 4, 5, 0x4aae7b1b6b3f5bf5ULL},
      {24, 14, 3, 5, 0x04b930424e7bd002ULL},      // shallower depths
      {40, 16, 2, 9, 0x2f5ade46757fc657ULL},
      {9, 5, 1, 3, 0x37157652013a3b0aULL},
  };
  for (const PinnedEncoding& p : pins) {
    const auto enc = TimestampEncoding::random_constrained(p.m, p.b, p.depth, p.seed);
    EXPECT_EQ(fingerprint(enc), p.fingerprint)
        << "random_constrained(" << p.m << ", " << p.b << ", " << p.depth << ", "
        << p.seed << ")";
  }
  // random_constrained_auto exhausts max_attempts at every width from the
  // counting bound up to the one it returns, so these pin the failing
  // widths' draws as well.
  EXPECT_EQ(fingerprint(TimestampEncoding::random_constrained_auto(48, 4, 42)),
            0x935f2f5a5ed5f5d0ULL);  // bench_parallel
  EXPECT_EQ(fingerprint(TimestampEncoding::random_constrained_auto(12, 3, 7)),
            0x5b26fe41b38ca61cULL);  // tests
}

// The paper's sizes: §5.2.1 (m = 1000), §5.2.2 and Tables 1/2 (m = 1024).
TEST(Encoding, PaperScaleTimestampsArePinned) {
  const PinnedEncoding pins[] = {
      {1000, 24, 4, 2019, 0xe1975048296cf14eULL},  // bench_can_experiment
      {1000, 24, 4, 3, 0xeffa2285b75d6766ULL},     // BitsPerTraceCycleAndLogRate
      {1024, 24, 4, 7, 0x3a727324bea901c7ULL},     // bench_refresh_experiment
      {1024, 24, 4, 42, 0xc0a7f7a13581743cULL},    // Table 1/2, bench_lograte
  };
  for (const PinnedEncoding& p : pins) {
    const auto enc = TimestampEncoding::random_constrained(p.m, p.b, p.depth, p.seed);
    EXPECT_EQ(fingerprint(enc), p.fingerprint)
        << "random_constrained(" << p.m << ", " << p.b << ", " << p.depth << ", "
        << p.seed << ")";
  }
  const auto inc512 = TimestampEncoding::incremental_auto(512, 4);  // Table 2
  EXPECT_EQ(inc512.width(), 21u);
  EXPECT_EQ(fingerprint(inc512), 0x08fe75edb103dcafULL);
}

TEST(Encoding, IncrementalTimestampsArePinned) {
  EXPECT_EQ(fingerprint(TimestampEncoding::incremental(16, 10, 4)), 0xfa1d01ae64809112ULL);
  EXPECT_EQ(fingerprint(TimestampEncoding::incremental(7, 3, 2)), 0x811884334c344c85ULL);
  EXPECT_EQ(fingerprint(TimestampEncoding::incremental(40, 70, 4)), 0xa79aa3f95445465dULL);
  EXPECT_EQ(fingerprint(TimestampEncoding::incremental(128, 20, 4)), 0xe6058785dc80b123ULL);
  EXPECT_EQ(fingerprint(TimestampEncoding::incremental(20, 12, 3)), 0x97123bd32b0f0085ULL);
  const std::uint64_t auto64[] = {0xa3944b579aa7bd65ULL, 0xa3944b579aa7bd65ULL,
                                  0xfa437c0933567525ULL, 0x137b72b66ec20462ULL};
  for (std::size_t depth = 1; depth <= 4; ++depth) {  // bench_ablation_depth
    EXPECT_EQ(fingerprint(TimestampEncoding::incremental_auto(64, depth)),
              auto64[depth - 1])
        << "incremental_auto(64, " << depth << ")";
  }
  EXPECT_EQ(fingerprint(TimestampEncoding::incremental_auto(32, 2)), 0x68dd9f773b4eaf45ULL);
  EXPECT_EQ(fingerprint(TimestampEncoding::incremental_auto(32, 4)), 0x1477e4c365e3f769ULL);
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
