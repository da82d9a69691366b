// Tests for the DRAT proof layer: the independent RUP/RAT checker, the
// text/binary writers and parsers, solver proof emission end-to-end, and a
// randomized certification fuzz (every UNSAT verdict re-derived by the
// checker, every run swept by the invariant auditor).

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "f2/bitvec.hpp"
#include "sat/allsat.hpp"
#include "sat/audit.hpp"
#include "sat/cardinality.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat.hpp"
#include "sat/reference.hpp"
#include "sat/solver.hpp"

namespace tp::sat {
namespace {

// ---------------------------------------------------------- checker ----

TEST(DratChecker, ResolventIsRup) {
  DratChecker checker;
  checker.add_clause({1, 2});
  checker.add_clause({-1, 2});
  const auto res = checker.check({{ProofOp::Kind::Add, {2}}});
  EXPECT_TRUE(res.valid);
  EXPECT_FALSE(res.proved_unsat);
  EXPECT_EQ(res.ops_checked, 1u);
}

TEST(DratChecker, BogusAdditionRejected) {
  // {~a, c} blocks the vacuous-RAT escape: the resolvent {c} is not RUP.
  DratChecker checker;
  checker.add_clause({1, 2});
  checker.add_clause({-1, 3});
  const auto res = checker.check({{ProofOp::Kind::Add, {1}}});
  EXPECT_FALSE(res.valid);
  EXPECT_FALSE(res.error.empty());
}

TEST(DratChecker, EmptyClauseProvesUnsat) {
  DratChecker checker;
  checker.add_clause({1});
  checker.add_clause({-1});
  const auto res = checker.check({{ProofOp::Kind::Add, {}}});
  EXPECT_TRUE(res.valid);
  EXPECT_TRUE(res.proved_unsat);
}

TEST(DratChecker, EmptyClauseNotDerivableIsRejected) {
  DratChecker checker;
  checker.add_clause({1, 2});
  const auto res = checker.check({{ProofOp::Kind::Add, {}}});
  EXPECT_FALSE(res.valid);
  EXPECT_FALSE(res.proved_unsat);
}

TEST(DratChecker, DeletionRemovesPropagationPower) {
  // {b} is RUP via {a} and {~a, b} — but not once the binary is deleted.
  // ({~b, c} keeps a ~b occurrence around so RAT cannot pass vacuously.)
  DratChecker with_del;
  with_del.add_clause({1});
  with_del.add_clause({-1, 2});
  with_del.add_clause({-2, 3});
  const auto res = with_del.check(
      {{ProofOp::Kind::Delete, {-1, 2}}, {ProofOp::Kind::Add, {2}}});
  EXPECT_FALSE(res.valid);

  // Deletion matching is by literal multiset, order-insensitive.
  DratChecker reordered;
  reordered.add_clause({1});
  reordered.add_clause({-1, 2});
  const auto res2 = reordered.check({{ProofOp::Kind::Delete, {2, -1}}});
  EXPECT_TRUE(res2.valid);
  EXPECT_EQ(res2.ignored_deletions, 0u);
}

TEST(DratChecker, UnknownDeletionIsIgnoredNotFailed) {
  DratChecker checker;
  checker.add_clause({1, 2});
  const auto res = checker.check({{ProofOp::Kind::Delete, {3, 4}}});
  EXPECT_TRUE(res.valid);
  EXPECT_EQ(res.ignored_deletions, 1u);
}

TEST(DratChecker, FreshVariableUnitIsRatButNotRup) {
  // {x} with x unmentioned: no clause contains ~x, so the RAT check passes
  // vacuously; plain RUP cannot derive it.
  DratChecker rat_ok(/*check_rat=*/true);
  rat_ok.add_clause({1, 2});
  EXPECT_TRUE(rat_ok.check({{ProofOp::Kind::Add, {3}}}).valid);

  DratChecker rup_only(/*check_rat=*/false);
  rup_only.add_clause({1, 2});
  EXPECT_FALSE(rup_only.check({{ProofOp::Kind::Add, {3}}}).valid);
}

// ------------------------------------------- writers and parsers ----

TEST(DratFormat, TextRoundTrip) {
  std::ostringstream out;
  TextDratWriter writer(out);
  writer.add({Lit(0, false), Lit(1, true)});
  writer.del({Lit(2, false)});
  writer.add({});

  std::istringstream in(out.str());
  const auto ops = parse_drat_text(in);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, ProofOp::Kind::Add);
  EXPECT_EQ(ops[0].lits, (IntClause{1, -2}));
  EXPECT_EQ(ops[1].kind, ProofOp::Kind::Delete);
  EXPECT_EQ(ops[1].lits, (IntClause{3}));
  EXPECT_EQ(ops[2].kind, ProofOp::Kind::Add);
  EXPECT_TRUE(ops[2].lits.empty());
}

TEST(DratFormat, TextParserSkipsCommentsAndBlanks) {
  std::istringstream in("c a comment\n\n1 -2 0\n");
  const auto ops = parse_drat_text(in);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].lits, (IntClause{1, -2}));
}

TEST(DratFormat, TextParserRejectsMalformedInput) {
  std::istringstream junk("1 x 0\n");
  EXPECT_THROW(parse_drat_text(junk), std::runtime_error);
  std::istringstream unterminated("1 -2\n");
  EXPECT_THROW(parse_drat_text(unterminated), std::runtime_error);
  std::istringstream trailing("1 0 2\n");
  EXPECT_THROW(parse_drat_text(trailing), std::runtime_error);
}

TEST(DratFormat, BinaryRoundTrip) {
  // Variable 299 forces a multi-byte varint (2*300 = 600 > 127).
  std::ostringstream out;
  BinaryDratWriter writer(out);
  writer.add({Lit(0, false), Lit(299, true)});
  writer.del({Lit(1, false)});
  writer.add({});

  std::istringstream in(out.str());
  const auto ops = parse_drat_binary(in);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, ProofOp::Kind::Add);
  EXPECT_EQ(ops[0].lits, (IntClause{1, -300}));
  EXPECT_EQ(ops[1].kind, ProofOp::Kind::Delete);
  EXPECT_EQ(ops[1].lits, (IntClause{2}));
  EXPECT_TRUE(ops[2].lits.empty());
}

TEST(DratFormat, BinaryParserRejectsTruncation) {
  std::istringstream bad_prefix("x");
  EXPECT_THROW(parse_drat_binary(bad_prefix), std::runtime_error);
  std::string cut("a");
  cut.push_back(static_cast<char>(0x82));  // continuation bit, then EOF
  std::istringstream truncated(cut);
  EXPECT_THROW(parse_drat_binary(truncated), std::runtime_error);
}

TEST(DratFormat, XorClausesExpandParity) {
  const auto cs = xor_clauses({1, 2}, true);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0], (IntClause{1, 2}));       // forbid 00
  EXPECT_EQ(cs[1], (IntClause{-1, -2}));     // forbid 11
  EXPECT_TRUE(xor_clauses({}, false).empty());
  const auto contradiction = xor_clauses({}, true);
  ASSERT_EQ(contradiction.size(), 1u);
  EXPECT_TRUE(contradiction[0].empty());
  EXPECT_THROW(xor_clauses(std::vector<int>(25, 1), true),
               std::invalid_argument);
}

TEST(DratFormat, ClausalViewCancelsDuplicateXorVars) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.clauses.push_back({Lit(0, false)});
  // x0 ^ x0 ^ x1 = 1 reduces to x1 = 1: a single unit clause.
  cnf.xors.emplace_back(std::vector<Var>{0, 0, 1}, true);
  const auto view = clausal_view(cnf);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[1], (IntClause{2}));
}

// ------------------------------------- solver proof emission ----

// Certify a finished solver run: replay the recorded proof against the
// recorded axiom stream with a fresh independent checker. `extra_units`
// extends the formula (used for assumption-conditional UNSAT), and
// `expect_unsat` additionally requires a verified empty clause.
DratChecker::Result certify(const MemoryProof& proof, bool expect_unsat,
                            const std::vector<IntClause>& extra_units = {},
                            bool append_empty = false) {
  DratChecker checker;
  for (const auto& c : proof.formula()) checker.add_clause(c);
  for (const auto& c : extra_units) checker.add_clause(c);
  std::vector<ProofOp> ops = proof.ops();
  if (append_empty) ops.push_back({ProofOp::Kind::Add, {}});
  const auto res = checker.check(ops);
  EXPECT_TRUE(res.valid) << res.error;
  if (expect_unsat) {
    EXPECT_TRUE(res.proved_unsat);
  }
  return res;
}

Solver make_proof_solver(MemoryProof& proof) {
  SolverOptions opts;
  opts.proof = &proof;
  return Solver(opts);
}

std::vector<Var> make_vars(Solver& s, int n) {
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
  return vars;
}

void add_pigeonhole(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<Var>> p(static_cast<std::size_t>(pigeons));
  for (auto& row : p) {
    for (int j = 0; j < holes; ++j) row.push_back(s.new_var());
  }
  for (const auto& row : p) {
    std::vector<Lit> c;
    for (Var x : row) c.push_back(mk_lit(x));
    ASSERT_TRUE(s.add_clause(std::move(c)));
  }
  for (std::size_t j = 0; j < static_cast<std::size_t>(holes); ++j) {
    for (std::size_t i1 = 0; i1 < p.size(); ++i1) {
      for (std::size_t i2 = i1 + 1; i2 < p.size(); ++i2) {
        ASSERT_TRUE(s.add_clause({~mk_lit(p[i1][j]), ~mk_lit(p[i2][j])}));
      }
    }
  }
}

TEST(SolverProof, PigeonholeCertified) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  add_pigeonhole(s, 4, 3);
  ASSERT_EQ(s.solve(), Status::Unsat);
  ASSERT_FALSE(proof.ops().empty());
  certify(proof, /*expect_unsat=*/true);
}

TEST(SolverProof, ContradictingUnitsCertified) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  Var a = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a)}));
  EXPECT_FALSE(s.add_clause({~mk_lit(a)}));
  EXPECT_EQ(s.solve(), Status::Unsat);
  certify(proof, /*expect_unsat=*/true);
}

TEST(SolverProof, XorParityConflictCertified) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_xor({a, b}, true));
  ASSERT_TRUE(s.add_xor({a, c}, true));
  ASSERT_TRUE(s.add_xor({b, c}, true));
  ASSERT_EQ(s.solve(), Status::Unsat);
  // The axiom stream must carry the XOR expansions.
  ASSERT_EQ(proof.formula().size(), 6u);
  certify(proof, /*expect_unsat=*/true);
}

TEST(SolverProof, CardinalityConflictCertified) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  auto v = make_vars(s, 5);
  std::vector<Lit> lits;
  for (Var x : v) lits.push_back(mk_lit(x));
  ASSERT_TRUE(encode_at_most(s, lits, 1));
  ASSERT_TRUE(s.add_clause({mk_lit(v[0])}));
  // Forcing a second true literal contradicts the at-most-1 counter.
  const bool ok = s.add_clause({mk_lit(v[1])});
  ASSERT_EQ(ok ? s.solve() : Status::Unsat, Status::Unsat);
  certify(proof, /*expect_unsat=*/true);
}

TEST(SolverProof, EmptyXorCertified) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  Var a = s.new_var();
  ASSERT_TRUE(s.add_xor({a, a}, false));
  EXPECT_FALSE(s.add_xor({a, a}, true));  // folds to 0 = 1
  EXPECT_EQ(s.solve(), Status::Unsat);
  certify(proof, /*expect_unsat=*/true);
}

TEST(SolverProof, AssumptionUnsatCertifiedWithAssumptionUnits) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_clause({~mk_lit(a), mk_lit(b)}));  // a -> b
  ASSERT_EQ(s.solve_assuming({mk_lit(a), ~mk_lit(b)}), Status::Unsat);
  ASSERT_FALSE(s.failed().empty());
  // The logged failure clause is implied by the formula alone; under the
  // assumptions (added as formula units) it completes a refutation.
  certify(proof, /*expect_unsat=*/true, {{1}, {-2}}, /*append_empty=*/true);
  // The solver stays usable and the unconditional problem is still SAT.
  EXPECT_EQ(s.solve(), Status::Sat);
}

TEST(SolverProof, MutatedProofRejected) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  add_pigeonhole(s, 4, 3);
  ASSERT_EQ(s.solve(), Status::Unsat);

  // An empty clause out of thin air: unit propagation on the pigeonhole
  // axioms alone yields no conflict, so the checker must reject it.
  auto forged_empty = proof.ops();
  forged_empty.insert(forged_empty.begin(), {ProofOp::Kind::Add, {}});
  DratChecker c1;
  for (const auto& c : proof.formula()) c1.add_clause(c);
  const auto r1 = c1.check(forged_empty);
  EXPECT_FALSE(r1.valid);
  EXPECT_FALSE(r1.proved_unsat);

  // A forged unit ("pigeon 1 sits in hole 1") is neither RUP nor RAT.
  auto forged_unit = proof.ops();
  forged_unit.insert(forged_unit.begin(), {ProofOp::Kind::Add, {1}});
  DratChecker c2;
  for (const auto& c : proof.formula()) c2.add_clause(c);
  EXPECT_FALSE(c2.check(forged_unit).valid);
}

TEST(SolverProof, GaussIsIncompatible) {
  MemoryProof proof;
  SolverOptions opts;
  opts.proof = &proof;
  opts.use_gauss = true;
  EXPECT_THROW(Solver{opts}, std::invalid_argument);
}

TEST(SolverProof, WideXorThrowsInProofMode) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  auto v = make_vars(s, static_cast<int>(kProofMaxXorArity) + 1);
  EXPECT_THROW(s.add_xor(v, true), std::invalid_argument);
}

TEST(SolverProof, ProofModeDisablesXorChunking) {
  // A 16-wide XOR would normally be split with auxiliary link variables;
  // in proof mode it attaches whole, so no fresh variables appear.
  MemoryProof proof;
  SolverOptions opts;
  opts.proof = &proof;
  opts.xor_chunk_size = 4;
  Solver s{opts};
  auto v = make_vars(s, 16);
  ASSERT_TRUE(s.add_xor(v, true));
  EXPECT_EQ(s.num_vars(), 16);
  EXPECT_EQ(proof.formula().size(), std::size_t{1} << 15);
}

TEST(SolverProof, CloneDetachesFromSink) {
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  add_pigeonhole(s, 4, 3);
  const auto axioms_before = proof.formula().size();
  const auto ops_before = proof.ops().size();
  auto twin = s.clone();
  ASSERT_EQ(twin->solve(), Status::Unsat);
  EXPECT_EQ(proof.formula().size(), axioms_before);
  EXPECT_EQ(proof.ops().size(), ops_before);
  // The original still proves — and certifies — on its own.
  ASSERT_EQ(s.solve(), Status::Unsat);
  certify(proof, /*expect_unsat=*/true);
}

TEST(SolverProof, GaussVerdictCertifiedByTwinWithoutGauss) {
  // DRAT cannot express the Gaussian engine's row combinations; the Gauss
  // UNSAT verdict is certified by re-solving the instance on a proof-
  // logging twin with the watched-XOR engine.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.xors.emplace_back(std::vector<Var>{0, 1}, true);
  cnf.xors.emplace_back(std::vector<Var>{1, 2}, true);
  cnf.xors.emplace_back(std::vector<Var>{0, 2}, true);

  SolverOptions gopts;
  gopts.use_gauss = true;
  Solver gauss(gopts);
  cnf.load_into(gauss);
  ASSERT_EQ(gauss.solve(), Status::Unsat);

  MemoryProof proof;
  Solver twin = make_proof_solver(proof);
  cnf.load_into(twin);
  ASSERT_EQ(twin.solve(), Status::Unsat);
  certify(proof, /*expect_unsat=*/true);
}

TEST(SolverProof, GuardedAllSatCompletionCertified) {
  // Guarded enumeration: blocking clauses carry ~guard and enter the axiom
  // stream; the completion UNSAT is conditional on the guard, so the
  // certificate adds {guard} as a formula unit and derives the empty
  // clause from the logged assumption-failure clause.
  MemoryProof proof;
  Solver s = make_proof_solver(proof);
  Var a = s.new_var(), b = s.new_var();
  Var guard = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a), mk_lit(b)}));

  AllSatOptions opts;
  opts.guard = mk_lit(guard);
  const auto result = enumerate_models(s, {a, b}, opts);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), 3u);

  certify(proof, /*expect_unsat=*/true, {{lit_to_dimacs(mk_lit(guard))}},
          /*append_empty=*/true);

  // Retiring the guard keeps the solver reusable: the blocking clauses die
  // and the instance is SAT again.
  ASSERT_TRUE(s.add_clause({~mk_lit(guard)}));
  EXPECT_EQ(s.solve(), Status::Sat);
}

// -------------------------------------------------- auditor ----

TEST(Auditor, SweepsCleanSolver) {
  AuditOptions aopts;
  aopts.check_learnt_rup = true;
  Auditor auditor(aopts);
  Solver s;
  s.set_auditor(&auditor);
  ASSERT_EQ(s.auditor(), &auditor);
  add_pigeonhole(s, 4, 3);
  EXPECT_EQ(s.solve(), Status::Unsat);
  EXPECT_GT(auditor.checkpoints_seen(), 0u);
  EXPECT_GT(auditor.audits_run(), 0u);
}

TEST(Auditor, ManualAuditAtLevelZero) {
  Auditor auditor;
  Solver s;
  Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a), mk_lit(b)}));
  ASSERT_TRUE(s.add_xor({a, b}, true));
  EXPECT_NO_THROW(auditor.audit(s));
  ASSERT_EQ(s.solve(), Status::Sat);
  EXPECT_NO_THROW(auditor.audit(s));
}

TEST(Auditor, PeriodSkipsCheckpoints) {
  AuditOptions aopts;
  aopts.period = 1000000;  // sweep (at most) the first checkpoint only
  Auditor auditor(aopts);
  Solver s;
  s.set_auditor(&auditor);
  add_pigeonhole(s, 4, 3);
  EXPECT_EQ(s.solve(), Status::Unsat);
  EXPECT_GT(auditor.checkpoints_seen(), auditor.audits_run());
}

TEST(Auditor, DebugEnvPeriodIsTheGivenNumber) {
  // debug_env() reads TP_SAT_AUDIT once per process, so each setting needs
  // a process of its own: this run sees the variable as the caller set it,
  // and the audit.env_period_one ctest entry reruns the test with
  // TP_SAT_AUDIT=1.
  const char* env = std::getenv("TP_SAT_AUDIT");
  const Auditor* auditor = Auditor::debug_env();
  if (env == nullptr || env[0] == '\0' || std::string(env) == "0") {
    EXPECT_EQ(auditor, nullptr);
    return;
  }
  ASSERT_NE(auditor, nullptr);
  const unsigned long long n = std::strtoull(env, nullptr, 10);
  EXPECT_EQ(auditor->options().period, n >= 1 ? n : 64u);
}

// ------------------------------------------ certification fuzz ----

// 50 seeds x 4 configurations = 200 randomized instances, every one solved
// with proof logging on and a period-1 auditor (learnt-RUP sweep included)
// attached. UNSAT verdicts must be certified by the independent checker;
// SAT models must satisfy the instance.
struct ProofFuzzParams {
  std::uint64_t seed;
  int config;  // 0 = cnf, 1 = cnf+xor, 2 = cnf+card, 3 = cnf+xor+assumptions
};

class ProofFuzzTest : public ::testing::TestWithParam<ProofFuzzParams> {};

Cnf random_cnf(f2::Rng& rng, int num_vars, int num_clauses, int num_xors) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int i = 0; i < num_clauses; ++i) {
    const int len = 1 + static_cast<int>(rng.below(3));
    std::vector<Lit> c;
    for (int j = 0; j < len; ++j) {
      c.push_back(Lit(static_cast<Var>(rng.below(static_cast<std::uint64_t>(num_vars))),
                      rng.flip()));
    }
    cnf.clauses.push_back(std::move(c));
  }
  for (int i = 0; i < num_xors; ++i) {
    const int len = 2 + static_cast<int>(rng.below(4));
    std::vector<Var> vars;
    for (int j = 0; j < len; ++j) {
      vars.push_back(static_cast<Var>(rng.below(static_cast<std::uint64_t>(num_vars))));
    }
    cnf.xors.emplace_back(std::move(vars), rng.flip());
  }
  return cnf;
}

TEST_P(ProofFuzzTest, EveryUnsatVerdictIsCertified) {
  const auto p = GetParam();
  f2::Rng rng(p.seed * 4 + static_cast<std::uint64_t>(p.config) + 1);
  const int num_vars = 6 + static_cast<int>(rng.below(5));
  const bool with_xors = p.config == 1 || p.config == 3;
  const int num_clauses = 10 + static_cast<int>(rng.below(8));
  const int num_xors = with_xors ? 2 + static_cast<int>(rng.below(3)) : 0;
  const Cnf cnf = random_cnf(rng, num_vars, num_clauses, num_xors);

  MemoryProof proof;
  AuditOptions aopts;
  aopts.check_learnt_rup = true;
  Auditor auditor(aopts);

  SolverOptions sopts;
  sopts.proof = &proof;
  Solver s(sopts);
  s.set_auditor(&auditor);

  bool ok = cnf.load_into(s);
  if (ok && p.config == 2) {
    // Random cardinality layer over the problem variables.
    std::vector<Lit> lits;
    for (Var v = 0; v < cnf.num_vars; ++v) lits.push_back(mk_lit(v));
    const int k = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars - 1)));
    ok = encode_exactly(s, lits, k);
  }

  std::vector<Lit> assumptions;
  if (p.config == 3) {
    const int n = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < n; ++i) {
      assumptions.push_back(Lit(static_cast<Var>(rng.below(static_cast<std::uint64_t>(num_vars))),
                                rng.flip()));
    }
  }

  const Status st = !ok                   ? Status::Unsat
                    : assumptions.empty() ? s.solve()
                                          : s.solve_assuming(assumptions);
  ASSERT_NE(st, Status::Unknown);
  // Instances refuted while loading never reach a search checkpoint; every
  // searched-to-SAT run hits at least one post-propagate fixpoint.
  if (st == Status::Sat) {
    EXPECT_GT(auditor.audits_run(), 0u);
  }

  // Replaying the proof must succeed for every verdict: a SAT run's learnt
  // clauses are implied too.
  DratChecker checker;
  for (const auto& c : proof.formula()) checker.add_clause(c);
  auto res = checker.check(proof.ops());
  EXPECT_TRUE(res.valid) << "seed " << p.seed << " config " << p.config
                         << ": " << res.error;

  if (st == Status::Unsat) {
    if (!res.proved_unsat) {
      // Conditional (assumption) UNSAT: the assumptions close the proof.
      ASSERT_FALSE(assumptions.empty());
      DratChecker closing;
      for (const auto& c : proof.formula()) closing.add_clause(c);
      for (Lit a : assumptions) closing.add_clause({lit_to_dimacs(a)});
      auto ops = proof.ops();
      ops.push_back({ProofOp::Kind::Add, {}});
      res = closing.check(ops);
      EXPECT_TRUE(res.valid) << "seed " << p.seed << " config " << p.config
                             << ": " << res.error;
      EXPECT_TRUE(res.proved_unsat);
    }
  } else {
    std::vector<bool> model;
    for (Var v = 0; v < cnf.num_vars; ++v) {
      model.push_back(s.model_value(v) == LBool::True);
    }
    EXPECT_TRUE(cnf.satisfied_by(model));
    for (Lit a : assumptions) {
      EXPECT_EQ(s.model_value(a), LBool::True);
    }
  }

  // Small pure instances: cross-check the verdict against brute force.
  if (p.config == 0 || p.config == 1) {
    const bool any_model = !reference_all_models(cnf).empty();
    if (assumptions.empty()) {
      EXPECT_EQ(st == Status::Sat, any_model);
    } else if (st == Status::Sat) {
      EXPECT_TRUE(any_model);
    }
  }
}

std::vector<ProofFuzzParams> proof_fuzz_params() {
  std::vector<ProofFuzzParams> out;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (int config = 0; config < 4; ++config) out.push_back({seed, config});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Random, ProofFuzzTest,
                         ::testing::ValuesIn(proof_fuzz_params()));

}  // namespace
}  // namespace tp::sat
