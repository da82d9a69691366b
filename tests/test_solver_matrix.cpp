// Differential testing of the SAT solver across its option matrix: every
// configuration must agree on satisfiability (and on full projected model
// sets) over randomized CNF+XOR instances. This is the broadest guard
// against configuration-dependent soundness bugs (chunking, Gauss engine,
// gating, polarity, restarts).

#include <gtest/gtest.h>

#include <algorithm>

#include "f2/bitvec.hpp"
#include "sat/allsat.hpp"
#include "sat/audit.hpp"
#include "sat/dimacs.hpp"
#include "sat/reference.hpp"
#include "sat/solver.hpp"

namespace tp::sat {
namespace {

Cnf random_instance(std::uint64_t seed) {
  f2::Rng rng(seed);
  Cnf cnf;
  cnf.num_vars = 12;
  const int clauses = 10 + static_cast<int>(rng.below(8));
  for (int i = 0; i < clauses; ++i) {
    std::vector<Lit> c;
    const int len = 1 + static_cast<int>(rng.below(3));
    for (int j = 0; j < len; ++j) {
      c.push_back(Lit(static_cast<Var>(rng.below(12)), rng.flip()));
    }
    cnf.clauses.push_back(std::move(c));
  }
  const int xors = 2 + static_cast<int>(rng.below(4));
  for (int i = 0; i < xors; ++i) {
    std::vector<Var> xv;
    const int len = 2 + static_cast<int>(rng.below(7));
    for (int j = 0; j < len; ++j) xv.push_back(static_cast<Var>(rng.below(12)));
    cnf.xors.emplace_back(std::move(xv), rng.flip());
  }
  return cnf;
}

std::vector<SolverOptions> option_matrix() {
  std::vector<SolverOptions> out;
  {
    SolverOptions o;  // defaults: watched XORs, chunk 10
    out.push_back(o);
  }
  {
    SolverOptions o;
    o.xor_chunk_size = 0;  // monolithic XOR rows
    out.push_back(o);
  }
  {
    SolverOptions o;
    o.xor_chunk_size = 3;  // aggressive chunking
    out.push_back(o);
  }
  {
    SolverOptions o;
    o.use_gauss = true;  // Gaussian engine, auto gate
    out.push_back(o);
  }
  {
    SolverOptions o;
    o.use_gauss = true;
    o.gauss_max_unassigned = SIZE_MAX;  // ungated Gauss
    out.push_back(o);
  }
  {
    SolverOptions o;
    o.default_polarity = true;  // opposite phase default
    out.push_back(o);
  }
  {
    SolverOptions o;
    o.restart_base = 5;  // frantic restarts
    o.reduce_base = 50;  // frantic clause deletion
    out.push_back(o);
  }
  {
    SolverOptions o;
    o.phase_saving = false;
    o.var_decay = 0.6;
    out.push_back(o);
  }
  return out;
}

class SolverMatrixTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverMatrixTest, AllConfigurationsAgreeWithReference) {
  const Cnf cnf = random_instance(GetParam());
  const auto reference = reference_all_models(cnf);

  for (std::size_t ci = 0; ci < option_matrix().size(); ++ci) {
    Solver s(option_matrix()[ci]);
    Auditor auditor;  // every checkpoint, Gauss sweep included
    s.set_auditor(&auditor);
    cnf.load_into(s);
    const Status st = s.solve();
    if (reference.empty()) {
      EXPECT_EQ(st, Status::Unsat) << "config " << ci;
    } else {
      ASSERT_EQ(st, Status::Sat) << "config " << ci;
      std::vector<bool> model;
      for (Var v = 0; v < cnf.num_vars; ++v) {
        model.push_back(s.model_value(v) == LBool::True);
      }
      EXPECT_TRUE(cnf.satisfied_by(model)) << "config " << ci;
    }
  }
}

TEST_P(SolverMatrixTest, AllConfigurationsEnumerateTheSameModels) {
  const Cnf cnf = random_instance(GetParam() + 1000);
  const auto reference = reference_all_models(cnf);
  auto sorted_ref = reference;
  std::sort(sorted_ref.begin(), sorted_ref.end());

  std::vector<Var> projection;
  for (Var v = 0; v < cnf.num_vars; ++v) projection.push_back(v);

  for (std::size_t ci = 0; ci < option_matrix().size(); ++ci) {
    Solver s(option_matrix()[ci]);
    Auditor auditor;
    s.set_auditor(&auditor);
    cnf.load_into(s);
    auto result = enumerate_models(s, projection);
    ASSERT_TRUE(result.complete()) << "config " << ci;
    auto got = result.models;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, sorted_ref) << "config " << ci;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverMatrixTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tp::sat
