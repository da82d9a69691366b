#include "timeprint/sr_encoder.hpp"

#include <stdexcept>
#include <string>

#include "sat/xor_to_cnf.hpp"

namespace tp::core {

using sat::Lit;
using sat::SolverInterface;
using sat::Var;

void check_width(const TimestampEncoding& encoding, const f2::BitVec& tp) {
  if (tp.size() != encoding.width()) {
    throw std::invalid_argument("timeprint has " + std::to_string(tp.size()) +
                                " bits but the encoding's width is b = " +
                                std::to_string(encoding.width()));
  }
}

void SrEncoder::add_row(SolverInterface& solver, SrRows& rows, std::vector<Var> vars,
                        bool rhs) const {
  const bool ok = native_xor_ ? solver.add_xor(std::move(vars), rhs)
                              : sat::add_xor_as_cnf(solver, vars, rhs);
  rows.ok = ok && rows.ok;
}

void SrEncoder::encode(SolverInterface& solver, SrRows& rows, const f2::BitVec* rhs,
                       bool keep_all_vars) const {
  const std::size_t m = enc_->m();
  if (presolve_ == nullptr) {
    if (rhs != nullptr) check_width(*enc_, *rhs);
    if (rows.cycle_vars.size() != m) {
      rows.cycle_vars.clear();
      for (std::size_t i = 0; i < m; ++i) rows.cycle_vars.push_back(solver.new_var());
    }
    for (std::size_t j = 0; j < enc_->width(); ++j) {
      std::vector<Var> row;
      for (std::size_t i = 0; i < m; ++i) {
        if (enc_->timestamp(i).get(j)) row.push_back(rows.cycle_vars[i]);
      }
      if (rhs == nullptr) {
        // An all-zero row degrades to the unit ¬s: an entry setting that
        // bit fails at the assumption level, a conditional Unsat.
        rows.selectors.push_back(solver.new_var());
        row.push_back(rows.selectors.back());
      }
      add_row(solver, rows, std::move(row), rhs != nullptr && rhs->get(j));
    }
    return;
  }

  const f2::Echelonizer& ech = presolve_->echelon();
  rows.cycle_vars.assign(m, kNoVar);
  for (std::size_t f : ech.free_cols()) rows.cycle_vars[f] = solver.new_var();
  for (std::size_t r = 0; r < ech.rank(); ++r) {
    std::vector<Var> row;
    for (std::size_t f : ech.free_cols()) {
      if (ech.reduced_rows()[r].get(f)) row.push_back(rows.cycle_vars[f]);
    }
    Var& pivot = rows.cycle_vars[ech.pivot_cols()[r]];
    const bool c = rhs != nullptr && rhs->get(r);
    // An empty free support fixes the pivot to rhs_r outright.
    Var selector = kNoVar;
    if (rhs == nullptr) {
      selector = solver.new_var();
      rows.selectors.push_back(selector);
      if (row.empty()) {
        pivot = selector;  // pivot = s_r: the selector is the cycle variable
        continue;
      }
    } else if (row.empty() && !keep_all_vars) {
      if (c) ++rows.fixed_ones;  // pivot forced to 1: a pre-counted change
      continue;
    }
    pivot = solver.new_var();
    if (row.empty()) {
      rows.ok = solver.add_clause({Lit(pivot, /*negated=*/!c)}) && rows.ok;
      continue;
    }
    row.push_back(pivot);
    if (selector != kNoVar) row.push_back(selector);
    add_row(solver, rows, std::move(row), c);
  }
}

}  // namespace tp::core
