#include "sat/interface.hpp"

#include <memory>

#include "sat/portfolio.hpp"
#include "sat/solver.hpp"

namespace tp::sat {

SolverInterface::~SolverInterface() = default;

bool SolverInterface::inprocess() { return simplify(); }

std::size_t SolverInterface::retained_bytes() const {
  // Coarse default for backends without byte-accurate storage accounting:
  // header + an average handful of literals per clause.
  return (num_clauses() + num_learnts()) * 40;
}

Status SolverInterface::solve_assuming(const std::vector<Lit>& assumptions,
                                       const SolveLimits& limits) {
  for (Lit l : assumptions) assume(l);
  return solve(limits);
}

const char* to_string(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::Single:
      return "single";
    case SolverBackend::Portfolio:
      return "portfolio";
  }
  return "?";
}

std::unique_ptr<SolverInterface> SolverFactory::make(const SolverOptions& base) {
  return make(SolverBackend::Single, base);
}

std::unique_ptr<SolverInterface> SolverFactory::make(
    SolverBackend backend, const SolverOptions& base,
    const PortfolioOptions& portfolio) {
  switch (backend) {
    case SolverBackend::Single:
      return std::make_unique<Solver>(base);
    case SolverBackend::Portfolio:
      return std::make_unique<PortfolioSolver>(base, portfolio);
  }
  return nullptr;
}

}  // namespace tp::sat
