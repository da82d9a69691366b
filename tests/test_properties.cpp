// Tests for temporal properties: concrete evaluation, SAT encoding
// faithfulness (models of the encoding == signals satisfying the
// property), and negation.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <memory>

#include "sat/allsat.hpp"
#include "sat/solver.hpp"
#include "timeprint/properties.hpp"

namespace tp::core {
namespace {

using sat::Solver;
using sat::Var;

// Enumerate all 2^m signals, split them by `holds`, and check that the SAT
// encoding of the property accepts exactly the satisfying ones.
void check_encoding_faithful(const Property& p, std::size_t m) {
  Solver solver;
  std::vector<Var> x;
  for (std::size_t i = 0; i < m; ++i) x.push_back(solver.new_var());
  p.encode(solver, x);
  auto result = sat::enumerate_models(solver, x);
  ASSERT_TRUE(result.complete());

  std::set<std::vector<bool>> sat_models(result.models.begin(), result.models.end());
  std::size_t expected = 0;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << m); ++bits) {
    Signal s(m);
    std::vector<bool> as_vec(m);
    for (std::size_t i = 0; i < m; ++i) {
      const bool v = (bits >> i) & 1;
      as_vec[i] = v;
      if (v) s.set_change(i);
    }
    if (p.holds(s)) {
      ++expected;
      EXPECT_TRUE(sat_models.contains(as_vec))
          << p.describe() << ": missing model " << s.to_string();
    } else {
      EXPECT_FALSE(sat_models.contains(as_vec))
          << p.describe() << ": spurious model " << s.to_string();
    }
  }
  EXPECT_EQ(sat_models.size(), expected) << p.describe();
}

TEST(ExistsConsecutivePair, Holds) {
  ExistsConsecutivePair p;
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(8, {3, 4})));
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(8, {3, 5})));
  EXPECT_FALSE(p.holds(Signal(8)));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(8, {0, 1, 5})));
}

TEST(ExistsConsecutivePair, EncodingFaithful) {
  check_encoding_faithful(ExistsConsecutivePair{}, 6);
}

TEST(ExistsConsecutivePair, NegationIsNoConsecutivePair) {
  ExistsConsecutivePair p;
  auto n = p.negation();
  ASSERT_NE(n, nullptr);
  Signal pair = Signal::from_change_cycles(8, {2, 3});
  Signal spread = Signal::from_change_cycles(8, {2, 4});
  EXPECT_TRUE(p.holds(pair));
  EXPECT_FALSE(n->holds(pair));
  EXPECT_FALSE(p.holds(spread));
  EXPECT_TRUE(n->holds(spread));
}

TEST(NoConsecutivePair, EncodingFaithful) {
  check_encoding_faithful(NoConsecutivePair{}, 6);
}

TEST(ChangesInConsecutivePairs, Holds) {
  ChangesInConsecutivePairs p;
  EXPECT_TRUE(p.holds(Signal(8)));  // vacuously: no runs
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(8, {1, 2})));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(8, {0, 1, 4, 5})));
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(8, {3})));          // isolated
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(8, {2, 3, 4})));    // run of 3
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(8, {2, 3, 4, 5}))); // run of 4
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(8, {6, 7})));        // at boundary
}

TEST(ChangesInConsecutivePairs, EncodingFaithful) {
  check_encoding_faithful(ChangesInConsecutivePairs{}, 7);
}

TEST(ChangesInConsecutivePairs, Figure4UniqueReconstruction) {
  // Paper §3.3: among the 8 candidate signals of the didactic example only
  // one has all changes in consecutive pairs.
  ChangesInConsecutivePairs p;
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(16, {3, 4, 9, 10})));
}

TEST(MinChangesBefore, Holds) {
  MinChangesBefore p(/*deadline=*/8, /*min_changes=*/3);
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(16, {0, 3, 7})));
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(16, {0, 3, 8})));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(16, {0, 1, 2, 3})));
}

TEST(MinChangesBefore, EncodingFaithful) {
  check_encoding_faithful(MinChangesBefore(4, 2), 6);
}

TEST(MinChangesBefore, NegationRoundTrip) {
  MinChangesBefore p(10, 3);
  auto n = p.negation();
  ASSERT_NE(n, nullptr);
  f2::Rng rng(4);
  for (int i = 0; i < 40; ++i) {
    Signal s = Signal::random_with_changes(16, rng.below(17), rng);
    EXPECT_NE(p.holds(s), n->holds(s)) << s.to_string();
  }
}

TEST(MaxChangesBefore, EncodingFaithful) {
  check_encoding_faithful(MaxChangesBefore(4, 1), 6);
}

TEST(MaxChangesBefore, NegationRoundTrip) {
  MaxChangesBefore p(9, 2);
  auto n = p.negation();
  ASSERT_NE(n, nullptr);
  f2::Rng rng(6);
  for (int i = 0; i < 40; ++i) {
    Signal s = Signal::random_with_changes(16, rng.below(17), rng);
    EXPECT_NE(p.holds(s), n->holds(s)) << s.to_string();
  }
}

TEST(MaxChangesBefore, UnboundedCountIsNotNarrowed) {
  // No signal has more than SIZE_MAX changes: the property and its encoding
  // accept every signal, and the negation accepts none.
  MaxChangesBefore p(4, SIZE_MAX);
  check_encoding_faithful(p, 6);
  auto n = p.negation();
  ASSERT_NE(n, nullptr);
  check_encoding_faithful(*n, 6);
  EXPECT_FALSE(n->holds(Signal::from_change_cycles(6, {0, 1, 2, 3})));
}

TEST(Windows, HoldsAndNegation) {
  ChangeInWindow in(3, 6);
  NoChangeInWindow none(3, 6);
  Signal inside = Signal::from_change_cycles(10, {4});
  Signal outside = Signal::from_change_cycles(10, {7});
  EXPECT_TRUE(in.holds(inside));
  EXPECT_FALSE(in.holds(outside));
  EXPECT_FALSE(none.holds(inside));
  EXPECT_TRUE(none.holds(outside));
  EXPECT_FALSE(in.negation()->holds(inside));
  EXPECT_TRUE(none.negation()->holds(inside));
}

TEST(Windows, EncodingFaithful) {
  check_encoding_faithful(ChangeInWindow(2, 5), 6);
  check_encoding_faithful(NoChangeInWindow(2, 5), 6);
  check_encoding_faithful(ExactlyKInWindow(1, 5, 2), 6);
}

TEST(MinGap, Holds) {
  MinGap p(3);
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(12, {0, 3, 6})));
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(12, {0, 2})));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(12, {5})));
  EXPECT_TRUE(p.holds(Signal(12)));
}

TEST(MinGap, EncodingFaithful) {
  check_encoding_faithful(MinGap(3), 7);
}

TEST(KnownValue, HoldsAndEncoding) {
  KnownValue p(3, true);
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(8, {3})));
  EXPECT_FALSE(p.holds(Signal(8)));
  check_encoding_faithful(p, 5);
  check_encoding_faithful(KnownValue(2, false), 5);
  EXPECT_FALSE(p.negation()->holds(Signal::from_change_cycles(8, {3})));
}

TEST(OneChangeDelayed, VariantsConstruction) {
  // Reference changes at 2, 5; both can be delayed by 1 (3 and 6 free).
  Signal ref = Signal::from_change_cycles(10, {2, 5});
  OneChangeDelayed p(ref, 1);
  ASSERT_EQ(p.variants().size(), 2u);
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(10, {3, 5})));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(10, {2, 6})));
  EXPECT_FALSE(p.holds(ref));  // zero delays is not "one delayed"
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(10, {3, 6})));  // two delays
}

TEST(OneChangeDelayed, CollisionAndBoundaryVariantsExcluded) {
  // Change at 4 cannot delay onto the change at 5; change at 9 cannot
  // leave the trace-cycle.
  Signal ref = Signal::from_change_cycles(10, {4, 5, 9});
  OneChangeDelayed p(ref, 1);
  // Only the change at 5 can be delayed (to 6).
  ASSERT_EQ(p.variants().size(), 1u);
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(10, {4, 6, 9})));
}

TEST(OneChangeDelayed, EncodingFaithful) {
  check_encoding_faithful(OneChangeDelayed(Signal::from_change_cycles(6, {1, 4}), 1), 6);
}

TEST(OneChangeDelayed, NoFeasibleVariantIsUnsat) {
  Signal ref = Signal::from_change_cycles(4, {3});  // delay would leave cycle
  OneChangeDelayed p(ref, 1);
  EXPECT_TRUE(p.variants().empty());
  Solver solver;
  std::vector<Var> x;
  for (int i = 0; i < 4; ++i) x.push_back(solver.new_var());
  p.encode(solver, x);
  EXPECT_EQ(solver.solve(), sat::Status::Unsat);
}

TEST(SuffixDelayed, VariantsConstruction) {
  // Reference changes at 2, 5, 8; cut at 2 shifts all, cut at 5 shifts the
  // last two, cut at 8 shifts the last one.
  Signal ref = Signal::from_change_cycles(12, {2, 5, 8});
  SuffixDelayed p(ref, 1);
  EXPECT_EQ(p.variants().size(), 3u);
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(12, {3, 6, 9})));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(12, {2, 6, 9})));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(12, {2, 5, 9})));
  EXPECT_FALSE(p.holds(ref));
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(12, {3, 5, 9})));  // not a suffix
}

TEST(SuffixDelayed, BoundaryCutInfeasible) {
  // The last change cannot shift past the trace-cycle end.
  Signal ref = Signal::from_change_cycles(6, {1, 5});
  SuffixDelayed p(ref, 1);
  // Only... shifting suffix from cycle 1 would move 5 -> 6 (out); cut at 5
  // also moves 5 -> 6 (out). No feasible variant.
  EXPECT_TRUE(p.variants().empty());
}

TEST(SuffixDelayed, CollisionVariantsExcluded) {
  // Shifting the suffix starting at 4 moves 4 onto the unshifted 3? No:
  // changes at 3 and 4; cut at 4 moves 4->5 (fine); cut at 3 moves both
  // (3->4, 4->5, fine).
  Signal ref = Signal::from_change_cycles(8, {3, 4});
  SuffixDelayed p(ref, 1);
  EXPECT_EQ(p.variants().size(), 2u);
  // With delay collapsing onto a later unshifted change: 2,3 with cut at
  // 2 only (3 shifts too) — but cut at 2 moving 2->3 collides only if 3
  // does not shift; here both shift, so it is feasible.
  Signal ref2 = Signal::from_change_cycles(8, {2, 3});
  SuffixDelayed p2(ref2, 1);
  EXPECT_EQ(p2.variants().size(), 2u);
}

TEST(SuffixDelayed, EncodingFaithful) {
  check_encoding_faithful(SuffixDelayed(Signal::from_change_cycles(6, {1, 3}), 1), 6);
}

TEST(MaxGap, Holds) {
  MaxGap p(3);
  EXPECT_TRUE(p.holds(Signal(10)));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(10, {4})));
  EXPECT_TRUE(p.holds(Signal::from_change_cycles(10, {1, 4, 7})));
  EXPECT_FALSE(p.holds(Signal::from_change_cycles(10, {1, 6})));
}

TEST(MaxGap, EncodingFaithful) {
  check_encoding_faithful(MaxGap(2), 6);
  check_encoding_faithful(MaxGap(3), 7);
}

TEST(Conjunction, HoldsAndEncoding) {
  std::vector<std::unique_ptr<Property>> parts;
  parts.push_back(std::make_unique<ChangeInWindow>(0, 3));
  parts.push_back(std::make_unique<NoChangeInWindow>(3, 6));
  Conjunction c(std::move(parts));
  EXPECT_TRUE(c.holds(Signal::from_change_cycles(6, {1})));
  EXPECT_FALSE(c.holds(Signal::from_change_cycles(6, {1, 4})));
  EXPECT_FALSE(c.holds(Signal(6)));
  check_encoding_faithful(c, 6);
  EXPECT_NE(c.describe().find("all of"), std::string::npos);
}

TEST(Properties, DescribeIsNonEmpty) {
  EXPECT_FALSE(ExistsConsecutivePair{}.describe().empty());
  EXPECT_FALSE(MinChangesBefore(4, 2).describe().empty());
  EXPECT_FALSE(MinGap(2).describe().empty());
  EXPECT_FALSE(OneChangeDelayed(Signal(4), 1).describe().empty());
}

}  // namespace
}  // namespace tp::core
