// Feature-interaction tests for the SAT solver: XOR chunking, the
// Gaussian engine combined with AllSAT/cardinality, stats and options.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "f2/bitvec.hpp"
#include "sat/allsat.hpp"
#include "sat/audit.hpp"
#include "sat/cardinality.hpp"
#include "sat/dimacs.hpp"
#include "sat/reference.hpp"
#include "sat/solver.hpp"

namespace tp::sat {
namespace {

std::vector<Var> make_vars(Solver& s, int n) {
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
  return vars;
}

TEST(XorChunking, LongXorSplitsIntoShortOnes) {
  SolverOptions opts;
  opts.xor_chunk_size = 5;
  Solver s(opts);
  auto vars = make_vars(s, 20);
  ASSERT_TRUE(s.add_xor(vars, true));
  // Chunked: several constraints instead of one 20-variable row.
  EXPECT_GT(s.num_xors(), 1u);
  ASSERT_EQ(s.solve(), Status::Sat);
  int ones = 0;
  for (Var v : vars) ones += s.model_value(v) == LBool::True ? 1 : 0;
  EXPECT_EQ(ones % 2, 1);
}

TEST(XorChunking, ChunkedAndUnchunkedAgree) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    f2::Rng rng(seed);
    Cnf cnf;
    cnf.num_vars = 14;
    for (int i = 0; i < 6; ++i) {
      std::vector<Var> xv;
      for (int j = 0; j < 9; ++j) xv.push_back(static_cast<Var>(rng.below(14)));
      cnf.xors.emplace_back(std::move(xv), rng.flip());
    }
    for (int i = 0; i < 8; ++i) {
      cnf.clauses.push_back({Lit(static_cast<Var>(rng.below(14)), rng.flip()),
                             Lit(static_cast<Var>(rng.below(14)), rng.flip())});
    }
    SolverOptions chunked;
    chunked.xor_chunk_size = 4;
    SolverOptions unchunked;
    unchunked.xor_chunk_size = 0;
    Solver a(chunked), b(unchunked);
    cnf.load_into(a);
    cnf.load_into(b);
    EXPECT_EQ(a.solve(), b.solve()) << "seed " << seed;
  }
}

TEST(XorChunking, ProjectedModelCountUnaffectedByAuxVars) {
  // Chunking introduces auxiliary variables; enumeration over the original
  // variables must still produce each solution exactly once.
  SolverOptions opts;
  opts.xor_chunk_size = 3;
  Solver s(opts);
  auto vars = make_vars(s, 8);
  ASSERT_TRUE(s.add_xor(vars, false));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), 128u);  // 2^7 even-parity assignments
}

TEST(Gauss, AllSatEnumerationWorks) {
  SolverOptions opts;
  opts.use_gauss = true;
  opts.gauss_max_unassigned = SIZE_MAX;
  Solver s(opts);
  Auditor auditor;  // every checkpoint, Gauss sweep included
  s.set_auditor(&auditor);
  auto vars = make_vars(s, 6);
  ASSERT_TRUE(s.add_xor({vars[0], vars[1], vars[2]}, true));
  ASSERT_TRUE(s.add_xor({vars[3], vars[4]}, false));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  // 4 odd-parity triples x 2 equal pairs x 2 free = 16 models.
  EXPECT_EQ(result.models.size(), 16u);
  for (const auto& mo : result.models) {
    EXPECT_TRUE(mo[0] ^ mo[1] ^ mo[2]);
    EXPECT_EQ(mo[3], mo[4]);
  }
}

TEST(Gauss, WithCardinalityMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    f2::Rng rng(seed);
    const int n = 10;
    Cnf cnf;
    cnf.num_vars = n;
    for (int i = 0; i < 4; ++i) {
      std::vector<Var> xv;
      for (int j = 0; j < 5; ++j) xv.push_back(static_cast<Var>(rng.below(n)));
      cnf.xors.emplace_back(std::move(xv), rng.flip());
    }
    const auto reference = reference_all_models(cnf);
    std::size_t ref_with_3 = 0;
    for (const auto& mo : reference) {
      int ones = 0;
      for (bool v : mo) ones += v;
      if (ones == 3) ++ref_with_3;
    }

    SolverOptions opts;
    opts.use_gauss = true;
    Solver s(opts);
    Auditor auditor;
    s.set_auditor(&auditor);
    cnf.load_into(s);
    std::vector<Lit> lits;
    std::vector<Var> proj;
    for (Var v = 0; v < n; ++v) {
      lits.push_back(mk_lit(v));
      proj.push_back(v);
    }
    encode_exactly(s, lits, 3);
    auto result = enumerate_models(s, proj);
    ASSERT_TRUE(result.complete()) << "seed " << seed;
    EXPECT_EQ(result.models.size(), ref_with_3) << "seed " << seed;
  }
}

TEST(Gauss, GateThresholdDoesNotChangeAnswers) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    f2::Rng rng(seed * 3 + 1);
    Cnf cnf;
    cnf.num_vars = 12;
    for (int i = 0; i < 5; ++i) {
      std::vector<Var> xv;
      for (int j = 0; j < 6; ++j) xv.push_back(static_cast<Var>(rng.below(12)));
      cnf.xors.emplace_back(std::move(xv), rng.flip());
    }
    cnf.clauses.push_back({mk_lit(0), mk_lit(1)});

    SolverOptions always;
    always.use_gauss = true;
    always.gauss_max_unassigned = SIZE_MAX;
    SolverOptions gated;
    gated.use_gauss = true;
    gated.gauss_max_unassigned = 4;
    Solver a(always), b(gated);
    Auditor auditor;
    a.set_auditor(&auditor);
    b.set_auditor(&auditor);
    cnf.load_into(a);
    cnf.load_into(b);
    EXPECT_EQ(a.solve(), b.solve()) << "seed " << seed;
  }
}

TEST(Gauss, XorFoldedAtLevelZero) {
  SolverOptions opts;
  opts.use_gauss = true;
  Solver s(opts);
  Auditor auditor;
  s.set_auditor(&auditor);
  Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a)}));     // a fixed true
  ASSERT_TRUE(s.add_xor({a, b}, true));       // folds to b = 0
  ASSERT_EQ(s.solve(), Status::Sat);
  EXPECT_EQ(s.model_value(b), LBool::False);
}

// Random XOR rows of 3..7 variables plus a few clauses over n variables.
Cnf random_rows(f2::Rng& rng, int n, int rows, int clauses) {
  Cnf cnf;
  cnf.num_vars = n;
  for (int i = 0; i < rows; ++i) {
    std::vector<Var> xv;
    const int len = 3 + static_cast<int>(rng.below(5));
    for (int j = 0; j < len; ++j) xv.push_back(static_cast<Var>(rng.below(n)));
    cnf.xors.emplace_back(std::move(xv), rng.flip());
  }
  for (int i = 0; i < clauses; ++i) {
    const int len = 1 + static_cast<int>(rng.below(3));
    std::vector<Lit> c;
    for (int j = 0; j < len; ++j) {
      c.push_back(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
    }
    cnf.clauses.push_back(std::move(c));
  }
  return cnf;
}

// One complete AllSAT run over `proj`, scoped by a fresh guard that is
// retired afterwards, so the solver can enumerate again. Sorted models.
std::vector<std::vector<bool>> enumerate_scoped(Solver& s, const std::vector<Var>& proj,
                                                std::uint64_t max_models = UINT64_MAX) {
  AllSatOptions o;
  o.guard = mk_lit(s.new_var());
  o.max_models = max_models;
  auto result = enumerate_models(s, proj, o);
  EXPECT_TRUE(result.complete() || result.models.size() == max_models);
  s.add_clause({~o.guard});
  std::sort(result.models.begin(), result.models.end());
  return result.models;
}

SolverOptions gauss_options(std::size_t gate) {
  SolverOptions o;
  o.use_gauss = true;
  o.gauss_max_unassigned = gate;
  return o;
}

// Rows added at level 0 after a solve rebuild the packed matrix while the
// level-0 trail holds fixed literals and, in several seeds, Gauss-implied
// ones whose saved row combinations the rebuild drops.
TEST(Gauss, RowsAddedBetweenSolvesMatchWatchedXors) {
  for (const std::size_t gate : {std::size_t{0}, SIZE_MAX}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      f2::Rng rng(seed * 11 + 5);
      const int n = 14;
      const Cnf first = random_rows(rng, n, 4, 3);
      const Cnf second = random_rows(rng, n, 3, 1);
      std::vector<Var> proj;
      for (Var v = 0; v < n; ++v) proj.push_back(v);

      Auditor auditor;  // every checkpoint, Gauss sweep included
      Solver gauss(gauss_options(gate));
      gauss.set_auditor(&auditor);
      Solver watched;
      first.load_into(gauss);
      first.load_into(watched);
      ASSERT_EQ(gauss.solve(), watched.solve()) << "seed " << seed;
      second.load_into(gauss);
      second.load_into(watched);
      EXPECT_EQ(enumerate_scoped(gauss, proj), enumerate_scoped(watched, proj))
          << "seed " << seed << " gate " << gate;
    }
  }
}

// A clone taken between AllSAT runs carries the packed matrix, the column
// bitmaps and the saved reasons, and enumerates what the original does.
TEST(Gauss, CloneBetweenAllSatRunsMatchesWatchedXors) {
  for (const std::size_t gate : {std::size_t{0}, SIZE_MAX}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      f2::Rng rng(seed * 7 + 3);
      const int n = 12;
      const Cnf cnf = random_rows(rng, n, 5, 4);
      std::vector<Var> proj;
      for (Var v = 0; v < n; ++v) proj.push_back(v);

      Solver watched;
      cnf.load_into(watched);
      const auto expected = enumerate_scoped(watched, proj);

      Auditor auditor;
      Solver gauss(gauss_options(gate));
      gauss.set_auditor(&auditor);
      cnf.load_into(gauss);
      enumerate_scoped(gauss, proj, 2);  // a capped run first
      auto clone = gauss.clone_solver();
      clone->set_auditor(&auditor);
      EXPECT_EQ(enumerate_scoped(*clone, proj), expected) << "seed " << seed;
      EXPECT_EQ(enumerate_scoped(gauss, proj), expected) << "seed " << seed;
    }
  }
}

TEST(Assumptions, SatUnderCompatibleAssumptions) {
  Solver s;
  auto vars = make_vars(s, 4);
  ASSERT_TRUE(s.add_clause({mk_lit(vars[0]), mk_lit(vars[1])}));
  ASSERT_EQ(s.solve_assuming({~mk_lit(vars[0])}), Status::Sat);
  EXPECT_EQ(s.model_value(vars[0]), LBool::False);
  EXPECT_EQ(s.model_value(vars[1]), LBool::True);
  // The solver is still usable with different assumptions afterwards.
  ASSERT_EQ(s.solve_assuming({~mk_lit(vars[1])}), Status::Sat);
  EXPECT_EQ(s.model_value(vars[0]), LBool::True);
}

TEST(Assumptions, UnsatUnderAssumptionsKeepsSolverUsable) {
  Solver s;
  auto vars = make_vars(s, 3);
  ASSERT_TRUE(s.add_clause({mk_lit(vars[0]), mk_lit(vars[1])}));
  EXPECT_EQ(s.solve_assuming({~mk_lit(vars[0]), ~mk_lit(vars[1])}), Status::Unsat);
  EXPECT_TRUE(s.okay());  // not unconditionally unsat
  // failed() is a clause over the failed assumptions.
  EXPECT_FALSE(s.failed().empty());
  for (Lit l : s.failed()) {
    EXPECT_TRUE(l == mk_lit(vars[0]) || l == mk_lit(vars[1]));
  }
  EXPECT_EQ(s.solve(), Status::Sat);
}

TEST(Assumptions, PropagatedConflictFindsResponsibleSubset) {
  // a -> b; assuming a and ~b is unsat; assuming a and an unrelated c is
  // fine.
  Solver s;
  auto vars = make_vars(s, 3);
  ASSERT_TRUE(s.add_clause({~mk_lit(vars[0]), mk_lit(vars[1])}));
  EXPECT_EQ(s.solve_assuming({mk_lit(vars[0]), ~mk_lit(vars[1]), mk_lit(vars[2])}),
            Status::Unsat);
  // vars[2] must not be blamed.
  for (Lit l : s.failed()) EXPECT_NE(l.var(), vars[2]);
  EXPECT_EQ(s.solve_assuming({mk_lit(vars[0]), mk_lit(vars[2])}), Status::Sat);
}

TEST(Assumptions, WithXorConstraints) {
  SolverOptions opts;
  opts.use_gauss = true;
  Solver s(opts);
  auto vars = make_vars(s, 4);
  ASSERT_TRUE(s.add_xor({vars[0], vars[1], vars[2]}, true));
  ASSERT_EQ(s.solve_assuming({mk_lit(vars[0]), mk_lit(vars[1])}), Status::Sat);
  EXPECT_EQ(s.model_value(vars[2]), LBool::True);
  EXPECT_EQ(s.solve_assuming({mk_lit(vars[0]), mk_lit(vars[1]),
                              ~mk_lit(vars[2])}),
            Status::Unsat);
  EXPECT_TRUE(s.okay());
}

TEST(Assumptions, UnconditionalUnsatStillPoisonsSolver) {
  Solver s;
  Var a = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a)}));
  s.add_clause({~mk_lit(a)});
  EXPECT_EQ(s.solve_assuming({mk_lit(a)}), Status::Unsat);
  EXPECT_FALSE(s.okay());
}

TEST(SolverStats, CountersIncrease) {
  Solver s;
  auto vars = make_vars(s, 12);
  std::vector<Lit> lits;
  for (Var v : vars) lits.push_back(mk_lit(v));
  encode_exactly(s, lits, 6);
  s.add_xor({vars[0], vars[1], vars[2], vars[3]}, true);
  ASSERT_EQ(s.solve(), Status::Sat);
  EXPECT_GT(s.stats().decisions, 0);
  EXPECT_GT(s.stats().propagations, 0);
}

TEST(SolverStats, SubtractionUndoesAdditionFieldByField) {
  // Every field distinct and non-zero in both operands, so a field that
  // either operator skips shows up; the seconds are exact in binary.
  SolverStats a;
  a.conflicts = 1;
  a.decisions = 2;
  a.propagations = 3;
  a.xor_propagations = 4;
  a.restarts = 5;
  a.learnt_clauses = 6;
  a.removed_clauses = 7;
  a.minimized_literals = 8;
  a.gauss_runs = 9;
  a.vivified_literals = 10;
  a.subsumed_clauses = 11;
  a.arena_gc_runs = 12;
  a.arena_bytes_reclaimed = 13;
  a.inprocess_rounds = 14;
  a.solve_seconds = 0.5;
  SolverStats b;
  b.conflicts = 101;
  b.decisions = 102;
  b.propagations = 103;
  b.xor_propagations = 104;
  b.restarts = 105;
  b.learnt_clauses = 106;
  b.removed_clauses = 107;
  b.minimized_literals = 108;
  b.gauss_runs = 109;
  b.vivified_literals = 110;
  b.subsumed_clauses = 111;
  b.arena_gc_runs = 112;
  b.arena_bytes_reclaimed = 113;
  b.inprocess_rounds = 114;
  b.solve_seconds = 0.25;

  SolverStats c = a;
  (c += b) -= b;
  EXPECT_EQ(c.conflicts, a.conflicts);
  EXPECT_EQ(c.decisions, a.decisions);
  EXPECT_EQ(c.propagations, a.propagations);
  EXPECT_EQ(c.xor_propagations, a.xor_propagations);
  EXPECT_EQ(c.restarts, a.restarts);
  EXPECT_EQ(c.learnt_clauses, a.learnt_clauses);
  EXPECT_EQ(c.removed_clauses, a.removed_clauses);
  EXPECT_EQ(c.minimized_literals, a.minimized_literals);
  EXPECT_EQ(c.gauss_runs, a.gauss_runs);
  EXPECT_EQ(c.vivified_literals, a.vivified_literals);
  EXPECT_EQ(c.subsumed_clauses, a.subsumed_clauses);
  EXPECT_EQ(c.arena_gc_runs, a.arena_gc_runs);
  EXPECT_EQ(c.arena_bytes_reclaimed, a.arena_bytes_reclaimed);
  EXPECT_EQ(c.inprocess_rounds, a.inprocess_rounds);
  EXPECT_EQ(c.solve_seconds, a.solve_seconds);
}

TEST(SolverOptions, DefaultPolarityRespected) {
  SolverOptions opts;
  opts.default_polarity = true;
  Solver s(opts);
  auto vars = make_vars(s, 4);
  (void)vars;
  ASSERT_EQ(s.solve(), Status::Sat);
  // With no constraints, the first decision polarity is the default.
  for (Var v = 0; v < 4; ++v) EXPECT_EQ(s.model_value(v), LBool::True);
}

TEST(Assumptions, IncrementalReSolveAfterBacktracking) {
  // The cube-and-conquer loop of the batch engine: solve under one cube,
  // block the model, re-solve the same cube, then switch cubes — the
  // solver must backtrack out of the assumption prefix cleanly each time.
  Solver s;
  auto vars = make_vars(s, 6);
  std::vector<Lit> lits;
  for (Var v : vars) lits.push_back(mk_lit(v));
  ASSERT_TRUE(encode_exactly(s, lits, 2));
  ASSERT_TRUE(s.add_xor({vars[0], vars[1], vars[2]}, true));

  int models_cube0 = 0;
  while (s.solve_assuming({mk_lit(vars[0])}) == Status::Sat) {
    ++models_cube0;
    std::vector<Lit> blocking;
    for (Var v : vars) {
      blocking.push_back(Lit(v, s.model_value(v) == LBool::True));
    }
    ASSERT_TRUE(s.add_clause(std::move(blocking)));
    ASSERT_LE(models_cube0, 32);  // enumeration must terminate
  }
  EXPECT_TRUE(s.okay());  // only assumption-unsat, not unconditional
  // v0=1 and exactly-2 with v0^v1^v2=1 forces the second change outside
  // {v1, v2}: pairs (0,3), (0,4), (0,5).
  EXPECT_EQ(models_cube0, 3);

  // The complementary cube still enumerates (v0=0: v1^v2=1, one of the
  // pair plus one free change — (1,3),(1,4),(1,5),(2,3),(2,4),(2,5)).
  EXPECT_EQ(s.solve_assuming({~mk_lit(vars[0])}), Status::Sat);
  EXPECT_EQ(s.model_value(vars[0]), LBool::False);
  // And an unconstrained solve still works after all of it.
  EXPECT_EQ(s.solve(), Status::Sat);
}

TEST(SolverClone, CloneSolvesLikeTheOriginal) {
  SolverOptions opts;
  opts.use_gauss = true;
  Solver s(opts);
  auto vars = make_vars(s, 10);
  std::vector<Lit> lits;
  for (Var v : vars) lits.push_back(mk_lit(v));
  ASSERT_TRUE(encode_exactly(s, lits, 4));
  ASSERT_TRUE(s.add_xor({vars[0], vars[1], vars[2], vars[3]}, true));
  ASSERT_TRUE(s.add_xor({vars[2], vars[5], vars[7]}, false));

  auto c = s.clone();
  ASSERT_EQ(s.solve(), Status::Sat);
  ASSERT_EQ(c->solve(), Status::Sat);
  // Identical state + deterministic search => identical model.
  for (Var v : vars) EXPECT_EQ(s.model_value(v), c->model_value(v));
}

TEST(SolverClone, CloneIsIndependentOfTheOriginal) {
  Solver s;
  auto vars = make_vars(s, 4);
  ASSERT_TRUE(s.add_clause({mk_lit(vars[0]), mk_lit(vars[1])}));

  auto c = s.clone();
  ASSERT_TRUE(c->add_clause({~mk_lit(vars[0])}));   // propagates v1 = true
  EXPECT_FALSE(c->add_clause({~mk_lit(vars[1])}));  // contradiction: clone unsat
  EXPECT_EQ(c->solve(), Status::Unsat);
  EXPECT_FALSE(c->okay());
  // The original never saw those clauses.
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve(), Status::Sat);
}

TEST(SolverClone, CloneAfterSearchCarriesLearntState) {
  // Clone mid-enumeration: learnt clauses, saved phases and level-0 units
  // travel with the clone, and both copies enumerate the same remainder.
  Solver s;
  auto vars = make_vars(s, 8);
  std::vector<Lit> lits;
  for (Var v : vars) lits.push_back(mk_lit(v));
  ASSERT_TRUE(encode_exactly(s, lits, 3));
  ASSERT_TRUE(s.add_xor({vars[0], vars[3], vars[6]}, true));
  ASSERT_EQ(s.solve(), Status::Sat);
  std::vector<Lit> blocking;
  for (Var v : vars) blocking.push_back(Lit(v, s.model_value(v) == LBool::True));
  ASSERT_TRUE(s.add_clause(std::move(blocking)));

  auto c = s.clone();
  auto rest_s = enumerate_models(s, vars);
  auto rest_c = enumerate_models(*c, vars);
  ASSERT_TRUE(rest_s.complete());
  ASSERT_TRUE(rest_c.complete());
  EXPECT_EQ(rest_s.models, rest_c.models);  // same models, same order
}

TEST(SolverClone, CloneUnderAssumptionsPartitionsTheModelSpace) {
  // Enumerate a projection fully, then re-enumerate it as two cubes on
  // fresh clones: the cubes are disjoint and their union is the whole set.
  Solver s;
  auto vars = make_vars(s, 5);
  std::vector<Lit> lits;
  for (Var v : vars) lits.push_back(mk_lit(v));
  ASSERT_TRUE(encode_exactly(s, lits, 2));

  const auto whole = s.clone();
  auto full = enumerate_models(*whole, vars);
  ASSERT_TRUE(full.complete());

  AllSatOptions cube0, cube1;
  cube0.assumptions = {mk_lit(vars[0])};
  cube1.assumptions = {~mk_lit(vars[0])};
  auto r0 = enumerate_models(*s.clone(), vars, cube0);
  auto r1 = enumerate_models(*s.clone(), vars, cube1);
  ASSERT_TRUE(r0.complete());
  ASSERT_TRUE(r1.complete());
  EXPECT_EQ(r0.models.size() + r1.models.size(), full.models.size());
  std::set<std::vector<bool>> all(r0.models.begin(), r0.models.end());
  all.insert(r1.models.begin(), r1.models.end());
  std::set<std::vector<bool>> expected(full.models.begin(), full.models.end());
  EXPECT_EQ(all, expected);
}

TEST(SolverInterrupt, PreSetTokenStopsTheSolveImmediately) {
  Solver s;
  auto vars = make_vars(s, 10);
  std::vector<Lit> lits;
  for (Var v : vars) lits.push_back(mk_lit(v));
  ASSERT_TRUE(encode_exactly(s, lits, 5));

  std::atomic<bool> stop{true};
  SolveLimits limits;
  limits.interrupt = &stop;
  EXPECT_EQ(s.solve(limits), Status::Unknown);
  EXPECT_TRUE(s.okay());

  // Clearing the token makes the same solve succeed.
  stop.store(false);
  EXPECT_EQ(s.solve(limits), Status::Sat);
}

TEST(Simplify, SweepsRootSatisfiedClausesAndKeepsSemantics) {
  // A guard-style scenario: clauses conditional on g become root-satisfied
  // ballast once g is fixed false; simplify() must drop them from the
  // database while leaving the solver's answers unchanged.
  Solver s;
  auto vars = make_vars(s, 4);
  const Lit g = mk_lit(s.new_var());
  ASSERT_TRUE(s.add_clause({mk_lit(vars[0]), mk_lit(vars[1])}));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.add_clause({~g, Lit(vars[2], i % 2 == 0), mk_lit(vars[3])}));
  }
  const std::size_t before = s.num_clauses();
  ASSERT_TRUE(s.add_clause({~g}));  // retire: the 3 guarded clauses die
  ASSERT_TRUE(s.simplify());
  EXPECT_EQ(s.num_clauses(), before - 3);

  ASSERT_EQ(s.solve(), Status::Sat);
  EXPECT_TRUE(s.model_value(vars[0]) == LBool::True ||
              s.model_value(vars[1]) == LBool::True);
  // The unguarded clause survived: forcing both of its literals false must
  // hit the root conflict (the second unit is rejected at level 0, since
  // the first one already propagated vars[1] true through that clause).
  ASSERT_TRUE(s.add_clause({~mk_lit(vars[0])}));
  EXPECT_FALSE(s.add_clause({~mk_lit(vars[1])}));
  EXPECT_EQ(s.solve(), Status::Unsat);
}

TEST(Simplify, IsANoOpWithoutRootAssignments) {
  Solver s;
  auto vars = make_vars(s, 3);
  ASSERT_TRUE(s.add_clause({mk_lit(vars[0]), mk_lit(vars[1]), mk_lit(vars[2])}));
  const std::size_t before = s.num_clauses();
  ASSERT_TRUE(s.simplify());
  EXPECT_EQ(s.num_clauses(), before);
  EXPECT_EQ(s.solve(), Status::Sat);
}

}  // namespace
}  // namespace tp::sat
