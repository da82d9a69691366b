#include "sat/dimacs.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tp::sat {

bool Cnf::load_into(SolverInterface& solver) const {
  while (solver.num_vars() < num_vars) solver.new_var();
  bool ok = true;
  // Canonicalize each clause before it reaches the solver: drop
  // tautologies outright and merge duplicate literals. DIMACS inputs from
  // other tools routinely carry both, and while the CDCL backend would
  // canonicalize again, the proof axiom stream is cleaner when fed the
  // canonical form.
  std::vector<Lit> canon;
  for (const auto& c : clauses) {
    canon.assign(c.begin(), c.end());
    std::sort(canon.begin(), canon.end());
    bool tautology = false;
    Lit prev = lit_undef;
    std::size_t keep = 0;
    for (Lit l : canon) {
      if (l == ~prev) {
        tautology = true;
        break;
      }
      if (l == prev) continue;
      canon[keep++] = l;
      prev = l;
    }
    if (tautology) continue;
    canon.resize(keep);
    ok = solver.add_clause(canon) && ok;
  }
  for (const auto& [vars, rhs] : xors) ok = solver.add_xor(vars, rhs) && ok;
  return ok;
}

bool Cnf::satisfied_by(const std::vector<bool>& assignment) const {
  for (const auto& c : clauses) {
    bool sat = false;
    for (Lit l : c) {
      if (assignment[static_cast<std::size_t>(l.var())] != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  for (const auto& [vars, rhs] : xors) {
    bool parity = false;
    for (Var v : vars) parity ^= assignment[static_cast<std::size_t>(v)];
    if (parity != rhs) return false;
  }
  return true;
}

Cnf parse_dimacs(std::istream& in) {
  Cnf cnf;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      std::istringstream ss(line);
      std::string p, fmt;
      long vars = 0, clauses = 0;
      if (!(ss >> p >> fmt >> vars >> clauses)) {
        throw DimacsError(lineno, "malformed problem line, expected 'p cnf <vars> <clauses>'");
      }
      if (fmt != "cnf") throw DimacsError(lineno, "expected 'p cnf'");
      if (vars < 0 || clauses < 0) {
        throw DimacsError(lineno, "negative count in problem line");
      }
      cnf.num_vars = static_cast<int>(vars);
      continue;
    }
    const bool is_xor = line[0] == 'x';
    std::istringstream ss(is_xor ? line.substr(1) : line);
    std::vector<Lit> lits;
    bool parity = true;  // an XOR clause asserts XOR of its literals = true
    bool terminated = false;
    long v = 0;
    while (ss >> v) {
      if (v == 0) {
        terminated = true;
        break;
      }
      const Var var = static_cast<Var>(std::labs(v)) - 1;
      cnf.ensure_var(var);
      if (is_xor) {
        if (v < 0) parity = !parity;  // ¬x = x ⊕ 1
        lits.push_back(mk_lit(var));
      } else {
        lits.push_back(Lit(var, v < 0));
      }
    }
    if (!terminated) {
      // Distinguish "ran out of tokens" from "hit a non-numeric token":
      // both leave the extraction failed, but the messages should differ.
      ss.clear();
      std::string junk;
      if (ss >> junk) {
        throw DimacsError(lineno, "expected a literal, got '" + junk + "'");
      }
      throw DimacsError(lineno, "clause not 0-terminated");
    }
    std::string trailing;
    if (ss >> trailing) {
      throw DimacsError(lineno, "unexpected token '" + trailing +
                                    "' after the terminating 0");
    }
    if (is_xor) {
      std::vector<Var> vars;
      vars.reserve(lits.size());
      for (Lit l : lits) vars.push_back(l.var());
      cnf.xors.emplace_back(std::move(vars), parity);
    } else {
      cnf.clauses.push_back(std::move(lits));
    }
  }
  return cnf;
}

void write_dimacs(const Cnf& cnf, std::ostream& out) {
  out << "p cnf " << cnf.num_vars << ' ' << (cnf.clauses.size() + cnf.xors.size())
      << '\n';
  for (const auto& c : cnf.clauses) {
    for (Lit l : c) out << (l.negated() ? -(l.var() + 1) : (l.var() + 1)) << ' ';
    out << "0\n";
  }
  for (const auto& [vars, rhs] : cnf.xors) {
    if (vars.empty()) {
      // An empty XOR asserting parity 1 is plain falsity: keep the
      // round-trip lossless by writing it as the empty clause. Parity 0 is
      // a tautology and can be dropped.
      if (rhs) out << "0\n";
      continue;
    }
    out << 'x';
    for (std::size_t i = 0; i < vars.size(); ++i) {
      // Express the parity on the first literal: a negated first literal
      // flips the asserted parity from true to false.
      const long lit = vars[i] + 1;
      out << ((i == 0 && !rhs) ? -lit : lit) << ' ';
    }
    out << "0\n";
  }
}

}  // namespace tp::sat
