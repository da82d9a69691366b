// Unit and property tests for tp::f2::Matrix and LiChecker.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "f2/matrix.hpp"

namespace tp::f2 {
namespace {

TEST(Matrix, IdentityActsAsIdentity) {
  Matrix id = Matrix::identity(8);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    BitVec x = BitVec::random(8, rng);
    EXPECT_EQ(id.multiply(x), x);
  }
  EXPECT_EQ(id.rank(), 8u);
}

TEST(Matrix, FromColumnsLayout) {
  // Columns (1,0), (1,1), (0,1): A = [1 1 0; 0 1 1].
  std::vector<BitVec> cols = {BitVec::from_string("01"), BitVec::from_string("11"),
                              BitVec::from_string("10")};
  Matrix a = Matrix::from_columns(cols);
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_TRUE(a.get(0, 0));
  EXPECT_TRUE(a.get(0, 1));
  EXPECT_FALSE(a.get(0, 2));
  EXPECT_FALSE(a.get(1, 0));
  EXPECT_TRUE(a.get(1, 1));
  EXPECT_TRUE(a.get(1, 2));
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(a.column(c), cols[c]);
}

TEST(Matrix, MultiplyMatchesColumnSum) {
  Rng rng(5);
  std::vector<BitVec> cols;
  for (int i = 0; i < 10; ++i) cols.push_back(BitVec::random(6, rng));
  Matrix a = Matrix::from_columns(cols);
  BitVec x = BitVec::random(10, rng);
  BitVec expect(6);
  for (std::size_t i = 0; i < 10; ++i) {
    if (x.get(i)) expect ^= cols[i];
  }
  EXPECT_EQ(a.multiply(x), expect);
}

TEST(Matrix, RankOfDependentRows) {
  Matrix m(3, 4);
  m.row(0) = BitVec::from_string("1010");
  m.row(1) = BitVec::from_string("0110");
  m.row(2) = m.row(0) ^ m.row(1);  // dependent
  EXPECT_EQ(m.rank(), 2u);
}

TEST(Matrix, SolveConsistentSystem) {
  Rng rng(11);
  Matrix a(5, 8);
  for (std::size_t r = 0; r < 5; ++r) a.row(r) = BitVec::random(8, rng);
  BitVec x_true = BitVec::random(8, rng);
  BitVec b = a.multiply(x_true);
  auto sol = a.solve(b);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(a.multiply(sol->particular), b);
  for (const BitVec& n : sol->nullspace) {
    EXPECT_TRUE(a.multiply(n).is_zero());
    EXPECT_EQ(a.multiply(sol->particular ^ n), b);
  }
}

TEST(Matrix, SolveInconsistentSystem) {
  // x0 = 0 and x0 = 1 simultaneously.
  Matrix a(2, 1);
  a.set(0, 0, true);
  a.set(1, 0, true);
  BitVec b(2);
  b.set(0, true);  // row0: x0 = 1, row1: x0 = 0
  EXPECT_FALSE(a.solve(b).has_value());
}

TEST(Matrix, SolutionCountIsTwoToNullity) {
  // 3 independent equations over 6 unknowns -> 2^3 = 8 solutions.
  Rng rng(17);
  Matrix a(3, 6);
  a.row(0) = BitVec::from_string("100101");
  a.row(1) = BitVec::from_string("010011");
  a.row(2) = BitVec::from_string("001110");
  ASSERT_EQ(a.rank(), 3u);
  auto sol = a.solve(BitVec::from_string("101"));
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->nullspace.size(), 3u);
  EXPECT_EQ(sol->count(), 8u);
}

TEST(Matrix, NullspaceBasisIsIndependent) {
  Rng rng(23);
  Matrix a(4, 10);
  for (std::size_t r = 0; r < 4; ++r) a.row(r) = BitVec::random(10, rng);
  auto sol = a.solve(BitVec(4));
  ASSERT_TRUE(sol.has_value());  // homogeneous is always consistent
  EXPECT_TRUE(Matrix::linearly_independent(sol->nullspace));
}

TEST(Matrix, LinearlyIndependentDetectsDependence) {
  std::vector<BitVec> vecs = {BitVec::from_string("1100"), BitVec::from_string("0110"),
                              BitVec::from_string("1010")};  // v0 ^ v1 == v2
  EXPECT_FALSE(Matrix::linearly_independent(vecs));
  vecs.pop_back();
  EXPECT_TRUE(Matrix::linearly_independent(vecs));
}

// ---- Degenerate shapes (regressions: from_columns({}) used to read
// cols.front() of an empty vector) ----

TEST(Matrix, FromColumnsEmptyListIsZeroByZero) {
  Matrix a = Matrix::from_columns({});
  EXPECT_EQ(a.rows(), 0u);
  EXPECT_EQ(a.cols(), 0u);
  EXPECT_EQ(a.rank(), 0u);
}

TEST(Matrix, ZeroRowSystemIsUnconstrained) {
  Matrix a(0, 4);
  EXPECT_EQ(a.rank(), 0u);
  auto sol = a.solve(BitVec(0));
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(sol->particular.is_zero());
  EXPECT_EQ(sol->nullspace.size(), 4u);  // every column free
  EXPECT_TRUE(Matrix::linearly_independent(sol->nullspace));
}

TEST(Matrix, ZeroColumnSystemConsistencyDependsOnRhs) {
  Matrix a(3, 0);
  EXPECT_EQ(a.rank(), 0u);
  auto sol = a.solve(BitVec(3));  // 0 = 0: the empty vector solves it
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->nullspace.size(), 0u);
  BitVec b(3);
  b.set(0, true);
  EXPECT_FALSE(a.solve(b).has_value());  // 0 = 1: inconsistent
}

TEST(Matrix, ZeroByZeroSystem) {
  Matrix a(0, 0);
  EXPECT_EQ(a.rank(), 0u);
  auto sol = a.solve(BitVec(0));
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->count(), 1u);
}

// ---- LiChecker ----

TEST(LiChecker, RejectsZeroAndDuplicates) {
  LiChecker li(8, 4);
  EXPECT_FALSE(li.can_add(BitVec(8)));
  BitVec v = BitVec::from_uint(8, 5);
  EXPECT_TRUE(li.can_add(v));
  li.add(v);
  EXPECT_FALSE(li.can_add(v));
}

TEST(LiChecker, Depth3RejectsPairSum) {
  LiChecker li(8, 3);
  BitVec a = BitVec::from_uint(8, 0x03);
  BitVec b = BitVec::from_uint(8, 0x05);
  li.add(a);
  li.add(b);
  EXPECT_FALSE(li.can_add(a ^ b));
  EXPECT_TRUE(li.can_add(BitVec::from_uint(8, 0x07)));
}

TEST(LiChecker, Depth4RejectsTripleSum) {
  LiChecker li(10, 4);
  BitVec a = BitVec::from_uint(10, 0x003);
  BitVec b = BitVec::from_uint(10, 0x014);
  BitVec c = BitVec::from_uint(10, 0x060);
  li.add(a);
  li.add(b);
  li.add(c);
  EXPECT_FALSE(li.can_add(a ^ b ^ c));
  // Depth 3 checker accepts the same candidate (only pair sums excluded).
  LiChecker li3(10, 3);
  li3.add(a);
  li3.add(b);
  li3.add(c);
  EXPECT_TRUE(li3.can_add(a ^ b ^ c));
}

// The depth and dimension come from callers such as tpr's command line, so
// the range checks must hold in every build type, not only under assert.
TEST(LiChecker, RejectsInvalidArguments) {
  EXPECT_THROW(LiChecker(0, 4), std::invalid_argument);
  EXPECT_THROW(LiChecker(8, 0), std::invalid_argument);
  EXPECT_THROW(LiChecker(8, 5), std::invalid_argument);
  EXPECT_NO_THROW(LiChecker(1, 1));
}

// The bitmap is taken only while 2^dim bits are no larger than the table
// the announced size needs (and at most 64 MiB): never at 64 bits or more,
// where 2^dim does not fit a shift.
TEST(LiChecker, StorageRuleTakesTheSmallerSet) {
  EXPECT_TRUE(LiChecker(10, 4).uses_bitmap());
  EXPECT_TRUE(LiChecker(24, 4, 1000).uses_bitmap());    // 2 MiB vs an 8 MiB table
  EXPECT_FALSE(LiChecker(24, 4, 256).uses_bitmap());    // a 1 MiB table vs 2 MiB
  EXPECT_FALSE(LiChecker(24, 2, 1000).uses_bitmap());   // members only: 16 KiB
  EXPECT_FALSE(LiChecker(24, 1, 1000).uses_bitmap());   // depth 1 keeps no set
  EXPECT_FALSE(LiChecker(63, 4, 100).uses_bitmap());
  EXPECT_FALSE(LiChecker(64, 4, 100).uses_bitmap());
  EXPECT_FALSE(LiChecker(70, 4, 100).uses_bitmap());
  // An absurd announced size reserves a bounded table, not C(m, 2) slots.
  EXPECT_NO_THROW(LiChecker(40, 4, SIZE_MAX));
}

// A caller may add more vectors than it announced: the table doubles and
// the verdicts stay those of a checker sized for the full set.
TEST(LiChecker, TableGrowsPastTheAnnouncedSize) {
  for (std::size_t dim : {std::size_t{24}, std::size_t{70}}) {
    LiChecker sized(dim, 4, 200);
    LiChecker grown(dim, 4, 1);
    ASSERT_FALSE(sized.uses_bitmap());
    ASSERT_FALSE(grown.uses_bitmap());
    Rng rng(31 + dim);
    while (sized.size() < 200) {
      const BitVec v = BitVec::random(dim, rng);
      ASSERT_EQ(sized.can_add(v), grown.can_add(v)) << "dim " << dim;
      if (sized.can_add(v)) {
        sized.add(v);
        grown.add(v);
      }
    }
    EXPECT_EQ(sized.members(), grown.members());
    EXPECT_EQ(grown.pair_xor_count(), sized.pair_xor_count());
    EXPECT_EQ(grown.pair_xor_count(), 200u * 199u / 2u) << "dim " << dim;
  }
}

// Regression: the pair-XOR keys only serve depth >= 3 queries (and the
// member keys only depth >= 2), so shallow checkers must not grow the
// quadratic set at all.
TEST(LiChecker, ShallowDepthsSkipPairXorBookkeeping) {
  for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    LiChecker li(24, depth);
    Rng rng(900 + depth);
    while (li.size() < 20) {
      BitVec v = BitVec::random(24, rng);
      if (li.can_add(v)) li.add(v);
    }
    EXPECT_EQ(li.pair_xor_count(), 0u) << "depth " << depth;
  }
  // Control: depth 3 does populate it (one entry per unordered pair; at
  // 24 bits the 190 random pair sums are collision-free for this seed).
  LiChecker li3(24, 3);
  Rng rng(950);
  while (li3.size() < 20) {
    BitVec v = BitVec::random(24, rng);
    if (li3.can_add(v)) li3.add(v);
  }
  EXPECT_EQ(li3.pair_xor_count(), 20u * 19u / 2u);
}

// Property: any set accepted by LiChecker(depth d) has every subset of
// size <= d linearly independent (cross-check against Gaussian rank).
class LiCheckerPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LiCheckerPropertyTest, AllSmallSubsetsIndependent) {
  const std::size_t depth = GetParam();
  const std::size_t dim = 10;
  Rng rng(depth * 101 + 7);
  LiChecker li(dim, depth);
  while (li.size() < 12) {
    BitVec v = BitVec::random(dim, rng);
    if (li.can_add(v)) li.add(v);
  }
  const auto& vecs = li.members();
  const std::size_t n = vecs.size();
  // Enumerate all subsets of size <= depth.
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    const auto bits = static_cast<std::size_t>(__builtin_popcount(mask));
    if (bits > depth) continue;
    std::vector<BitVec> subset;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(vecs[i]);
    }
    EXPECT_TRUE(Matrix::linearly_independent(subset))
        << "dependent subset mask=" << mask << " at depth " << depth;
  }
}

// Property: the checker rejects a candidate exactly when Gaussian rank
// finds a dependent subset of size <= d through it, i.e. the candidate
// plus some <= d - 1 members. Candidates are zero, the XORs of 1-3
// members (at 64 and 70 bits nothing else is ever rejected) and random
// vectors. The dimensions straddle the storage rule: a bitmap at 10 bits,
// a table at 24, 64 (no 2^64-bit bitmap) and 70 (two words per key).
TEST_P(LiCheckerPropertyTest, RejectedCandidatesCloseDependentSubsets) {
  const std::size_t depth = GetParam();
  constexpr std::size_t kMembers = 10;
  for (std::size_t dim : {std::size_t{10}, std::size_t{24}, std::size_t{64},
                          std::size_t{70}}) {
    Rng rng(depth * 131 + dim);
    LiChecker li(dim, depth, kMembers);
    EXPECT_EQ(li.uses_bitmap(), depth >= 2 && dim == 10) << "dim " << dim;
    while (li.size() < kMembers) {
      const BitVec v = BitVec::random(dim, rng);
      if (li.can_add(v)) li.add(v);
    }
    const std::vector<BitVec> members = li.members();

    // Every subset of at most three members, the empty one included.
    std::vector<std::vector<std::size_t>> subsets = {{}};
    for (std::size_t i = 0; i < kMembers; ++i) {
      subsets.push_back({i});
      for (std::size_t j = i + 1; j < kMembers; ++j) {
        subsets.push_back({i, j});
        for (std::size_t k = j + 1; k < kMembers; ++k) subsets.push_back({i, j, k});
      }
    }
    std::vector<BitVec> candidates = {BitVec(dim)};
    for (const auto& subset : subsets) {
      if (subset.empty()) continue;
      BitVec x(dim);
      for (std::size_t i : subset) x ^= members[i];
      candidates.push_back(x);
    }
    for (int r = 0; r < 20; ++r) candidates.push_back(BitVec::random(dim, rng));

    std::size_t rejected = 0;
    for (const BitVec& c : candidates) {
      bool dependent = false;
      for (const auto& subset : subsets) {
        if (subset.size() + 1 > depth) continue;
        std::vector<BitVec> vectors = {c};
        for (std::size_t i : subset) vectors.push_back(members[i]);
        if (!Matrix::linearly_independent(vectors)) {
          dependent = true;
          break;
        }
      }
      const bool accepted = li.can_add(c);
      EXPECT_EQ(accepted, !dependent)
          << "dim " << dim << " depth " << depth << " candidate " << c.to_string();
      if (!accepted) ++rejected;
    }
    // Zero plus every XOR of s < depth members is rejected.
    const std::size_t at_least = depth == 1 ? 1 : depth == 2 ? 11 : depth == 3 ? 56 : 176;
    EXPECT_GE(rejected, at_least) << "dim " << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, LiCheckerPropertyTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tp::f2
