// Tests for cardinality encodings: correctness of model sets against the
// brute-force reference, for both the Sinz sequential counter (the paper's
// choice) and the totalizer.

#include <gtest/gtest.h>

#include <numeric>

#include "sat/allsat.hpp"
#include "sat/cardinality.hpp"
#include "sat/solver.hpp"

namespace tp::sat {
namespace {

std::uint64_t binomial(int n, int k) {
  if (k < 0 || k > n) return 0;
  std::uint64_t r = 1;
  for (int i = 0; i < k; ++i) r = r * static_cast<std::uint64_t>(n - i) / static_cast<std::uint64_t>(i + 1);
  return r;
}

std::vector<Var> make_vars(Solver& s, int n) {
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
  return vars;
}

std::vector<Lit> pos_lits(const std::vector<Var>& vars) {
  std::vector<Lit> lits;
  for (Var v : vars) lits.push_back(mk_lit(v));
  return lits;
}

struct CardCase {
  int n;
  int k;
  CardEncoding enc;
};

class ExactlyKTest : public ::testing::TestWithParam<CardCase> {};

TEST_P(ExactlyKTest, ModelCountIsBinomial) {
  const auto [n, k, enc] = GetParam();
  Solver s;
  auto vars = make_vars(s, n);
  ASSERT_TRUE(encode_exactly(s, pos_lits(vars), k, enc));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), binomial(n, k));
  for (const auto& model : result.models) {
    const auto ones = static_cast<int>(std::accumulate(model.begin(), model.end(), 0));
    EXPECT_EQ(ones, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sinz, ExactlyKTest,
    ::testing::Values(CardCase{5, 0, CardEncoding::SequentialCounter},
                      CardCase{5, 1, CardEncoding::SequentialCounter},
                      CardCase{5, 2, CardEncoding::SequentialCounter},
                      CardCase{5, 5, CardEncoding::SequentialCounter},
                      CardCase{8, 3, CardEncoding::SequentialCounter},
                      CardCase{8, 4, CardEncoding::SequentialCounter},
                      CardCase{10, 2, CardEncoding::SequentialCounter},
                      CardCase{12, 6, CardEncoding::SequentialCounter},
                      CardCase{9, 1, CardEncoding::SequentialCounter},
                      CardCase{9, 8, CardEncoding::SequentialCounter},
                      CardCase{12, 1, CardEncoding::SequentialCounter},
                      CardCase{12, 11, CardEncoding::SequentialCounter}));

INSTANTIATE_TEST_SUITE_P(
    Totalizer, ExactlyKTest,
    ::testing::Values(CardCase{5, 0, CardEncoding::Totalizer},
                      CardCase{5, 1, CardEncoding::Totalizer},
                      CardCase{5, 2, CardEncoding::Totalizer},
                      CardCase{5, 5, CardEncoding::Totalizer},
                      CardCase{8, 3, CardEncoding::Totalizer},
                      CardCase{8, 4, CardEncoding::Totalizer},
                      CardCase{10, 2, CardEncoding::Totalizer},
                      CardCase{12, 6, CardEncoding::Totalizer}));

class AtMostKTest : public ::testing::TestWithParam<CardCase> {};

TEST_P(AtMostKTest, ModelCountIsPartialBinomialSum) {
  const auto [n, k, enc] = GetParam();
  Solver s;
  auto vars = make_vars(s, n);
  ASSERT_TRUE(encode_at_most(s, pos_lits(vars), k, enc));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  std::uint64_t expect = 0;
  for (int j = 0; j <= k; ++j) expect += binomial(n, j);
  EXPECT_EQ(result.models.size(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Both, AtMostKTest,
    ::testing::Values(CardCase{6, 1, CardEncoding::SequentialCounter},
                      CardCase{6, 3, CardEncoding::SequentialCounter},
                      CardCase{6, 5, CardEncoding::SequentialCounter},
                      CardCase{6, 1, CardEncoding::Totalizer},
                      CardCase{6, 3, CardEncoding::Totalizer},
                      CardCase{6, 5, CardEncoding::Totalizer}));

class AtLeastKTest : public ::testing::TestWithParam<CardCase> {};

TEST_P(AtLeastKTest, ModelCountIsUpperBinomialSum) {
  const auto [n, k, enc] = GetParam();
  Solver s;
  auto vars = make_vars(s, n);
  ASSERT_TRUE(encode_at_least(s, pos_lits(vars), k, enc));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  std::uint64_t expect = 0;
  for (int j = k; j <= n; ++j) expect += binomial(n, j);
  EXPECT_EQ(result.models.size(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Both, AtLeastKTest,
    ::testing::Values(CardCase{6, 2, CardEncoding::SequentialCounter},
                      CardCase{6, 4, CardEncoding::SequentialCounter},
                      CardCase{6, 6, CardEncoding::SequentialCounter},
                      CardCase{6, 2, CardEncoding::Totalizer},
                      CardCase{6, 4, CardEncoding::Totalizer},
                      CardCase{6, 6, CardEncoding::Totalizer},
                      CardCase{9, 1, CardEncoding::SequentialCounter},
                      CardCase{9, 8, CardEncoding::SequentialCounter},
                      CardCase{12, 1, CardEncoding::SequentialCounter},
                      CardCase{12, 11, CardEncoding::SequentialCounter}));

TEST(Cardinality, SequentialCounterIsLinearInK) {
  // One counter of n·k registers for every bound, with a constant number of
  // clauses per register.
  const char* const names[] = {"at-most", "at-least", "exactly"};
  const auto encode = [](int bound, Solver& s, const std::vector<Lit>& lits, std::size_t k) {
    if (bound == 0) return encode_at_most(s, lits, k, CardEncoding::SequentialCounter);
    if (bound == 1) return encode_at_least(s, lits, k, CardEncoding::SequentialCounter);
    return encode_exactly(s, lits, k, CardEncoding::SequentialCounter);
  };
  for (const int n : {16, 64, 200}) {
    for (const int k : {1, 2, n / 2, n - 1}) {
      for (int bound = 0; bound < 3; ++bound) {
        Solver s;
        const auto lits = pos_lits(make_vars(s, n));
        const int vars_before = s.num_vars();
        const std::size_t clauses_before = s.num_clauses();
        ASSERT_TRUE(encode(bound, s, lits, static_cast<std::size_t>(k)));
        const auto nk = static_cast<std::size_t>(n * k);
        EXPECT_LE(static_cast<std::size_t>(s.num_vars() - vars_before), nk)
            << names[bound] << " n=" << n << " k=" << k;
        EXPECT_LE(s.num_clauses() - clauses_before, 5 * nk)
            << names[bound] << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Cardinality, ImpossibleBoundsAreUnsat) {
  {
    Solver s;
    auto vars = make_vars(s, 4);
    encode_exactly(s, pos_lits(vars), 5, CardEncoding::SequentialCounter);
    EXPECT_EQ(s.solve(), Status::Unsat);
  }
  {
    Solver s;
    auto vars = make_vars(s, 4);
    encode_at_least(s, pos_lits(vars), 5, CardEncoding::Totalizer);
    EXPECT_EQ(s.solve(), Status::Unsat);
  }
}

TEST(Cardinality, MixedPolarityLiterals) {
  // exactly-2 over {a, ~b, c}: models where (a) + (1-b) + (c) == 2.
  Solver s;
  auto vars = make_vars(s, 3);
  std::vector<Lit> lits = {mk_lit(vars[0]), ~mk_lit(vars[1]), mk_lit(vars[2])};
  ASSERT_TRUE(encode_exactly(s, lits, 2, CardEncoding::SequentialCounter));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), 3u);
  for (const auto& m : result.models) {
    const int count = (m[0] ? 1 : 0) + (m[1] ? 0 : 1) + (m[2] ? 1 : 0);
    EXPECT_EQ(count, 2);
  }
}

TEST(Cardinality, MixedPolarityAtLeast) {
  // at-least-2 over {a, ~b, c, ~d}: 11 of the 16 assignments count >= 2.
  Solver s;
  auto vars = make_vars(s, 4);
  std::vector<Lit> lits = {mk_lit(vars[0]), ~mk_lit(vars[1]), mk_lit(vars[2]),
                           ~mk_lit(vars[3])};
  ASSERT_TRUE(encode_at_least(s, lits, 2, CardEncoding::SequentialCounter));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), 11u);
  for (const auto& m : result.models) {
    const int count = (m[0] ? 1 : 0) + (m[1] ? 0 : 1) + (m[2] ? 1 : 0) + (m[3] ? 0 : 1);
    EXPECT_GE(count, 2);
  }
}

TEST(Cardinality, SinzWithConflictingUnits) {
  // Force 3 variables true, then demand at most 2: UNSAT.
  Solver s;
  auto vars = make_vars(s, 5);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(s.add_clause({mk_lit(vars[static_cast<std::size_t>(i)])}));
  encode_at_most(s, pos_lits(vars), 2, CardEncoding::SequentialCounter);
  EXPECT_EQ(s.solve(), Status::Unsat);
}

TEST(Cardinality, TotalizerOutputsAreMonotone) {
  // In any model, output j+1 true implies output j true.
  Solver s;
  auto vars = make_vars(s, 7);
  const auto outs = totalizer_outputs(s, pos_lits(vars), 7);
  ASSERT_EQ(outs.size(), 7u);
  auto result = enumerate_models(s, vars, {.max_models = 200, .limits = {}});
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), 128u);  // unconstrained: all 2^7 models
}

TEST(Cardinality, TotalizerOutputsTrackCount) {
  Solver s;
  auto vars = make_vars(s, 6);
  const auto outs = totalizer_outputs(s, pos_lits(vars), 6);
  // Fix an assignment with 4 ones and check the unary outputs.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(s.add_clause({Lit(vars[static_cast<std::size_t>(i)], /*negated=*/i >= 4)}));
  }
  ASSERT_EQ(s.solve(), Status::Sat);
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(s.model_value(outs[static_cast<std::size_t>(j)]) == LBool::True, j < 4)
        << "output " << j;
  }
}

}  // namespace
}  // namespace tp::sat
