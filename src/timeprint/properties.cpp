#include "timeprint/properties.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace tp::core {

using sat::Lit;
using sat::mk_lit;
using sat::SolverInterface;
using sat::Var;

// ---- ExistsConsecutivePair (P2) ----

bool ExistsConsecutivePair::holds(const Signal& s) const {
  for (std::size_t i = 0; i + 1 < s.length(); ++i) {
    if (s.has_change(i) && s.has_change(i + 1)) return true;
  }
  return false;
}

bool ExistsConsecutivePair::encode(SolverInterface& solver,
                                   const std::vector<Var>& x) const {
  if (x.size() < 2) return solver.add_clause({});  // impossible
  // Auxiliary p_i => x_i & x_{i+1}; at least one p_i. (One implication
  // direction suffices: any model with a consecutive pair extends to the
  // auxiliaries, and any model of the encoding has a consecutive pair.)
  std::vector<Lit> any;
  bool ok = true;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const Lit p = mk_lit(solver.new_var());
    ok = solver.add_clause({~p, mk_lit(x[i])}) && ok;
    ok = solver.add_clause({~p, mk_lit(x[i + 1])}) && ok;
    any.push_back(p);
  }
  return solver.add_clause(std::move(any)) && ok;
}

std::unique_ptr<Property> ExistsConsecutivePair::negation() const {
  return std::make_unique<NoConsecutivePair>();
}

// ---- NoConsecutivePair ----

bool NoConsecutivePair::holds(const Signal& s) const {
  for (std::size_t i = 0; i + 1 < s.length(); ++i) {
    if (s.has_change(i) && s.has_change(i + 1)) return false;
  }
  return true;
}

bool NoConsecutivePair::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  bool ok = true;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    ok = solver.add_clause({~mk_lit(x[i]), ~mk_lit(x[i + 1])}) && ok;
  }
  return ok;
}

std::unique_ptr<Property> NoConsecutivePair::negation() const {
  return std::make_unique<ExistsConsecutivePair>();
}

// ---- ChangesInConsecutivePairs ----

bool ChangesInConsecutivePairs::holds(const Signal& s) const {
  std::size_t run = 0;
  for (std::size_t i = 0; i <= s.length(); ++i) {
    const bool bit = i < s.length() && s.has_change(i);
    if (bit) {
      ++run;
    } else {
      if (run != 0 && run != 2) return false;
      run = 0;
    }
  }
  return true;
}

bool ChangesInConsecutivePairs::encode(SolverInterface& solver,
                                       const std::vector<Var>& x) const {
  const std::size_t m = x.size();
  bool ok = true;
  // Every maximal run of ones has length exactly 2:
  //  * no isolated one: x_i -> x_{i-1} | x_{i+1} (boundaries force the
  //    single neighbour);
  //  * no run of three: !(x_{i-1} & x_i & x_{i+1}).
  if (m == 1) return solver.add_clause({~mk_lit(x[0])});
  ok = solver.add_clause({~mk_lit(x[0]), mk_lit(x[1])}) && ok;
  ok = solver.add_clause({~mk_lit(x[m - 1]), mk_lit(x[m - 2])}) && ok;
  for (std::size_t i = 1; i + 1 < m; ++i) {
    ok = solver.add_clause({~mk_lit(x[i]), mk_lit(x[i - 1]), mk_lit(x[i + 1])}) && ok;
  }
  for (std::size_t i = 1; i + 1 < m; ++i) {
    ok = solver.add_clause({~mk_lit(x[i - 1]), ~mk_lit(x[i]), ~mk_lit(x[i + 1])}) && ok;
  }
  return ok;
}

// ---- MinChangesBefore (Dk) ----

bool MinChangesBefore::holds(const Signal& s) const {
  std::size_t count = 0;
  const std::size_t hi = std::min(deadline_, s.length());
  for (std::size_t i = 0; i < hi; ++i) count += s.has_change(i) ? 1 : 0;
  return count >= min_changes_;
}

bool MinChangesBefore::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  const std::size_t hi = std::min(deadline_, x.size());
  std::vector<Lit> lits;
  lits.reserve(hi);
  for (std::size_t i = 0; i < hi; ++i) lits.push_back(mk_lit(x[i]));
  return sat::encode_at_least(solver, lits, min_changes_, card_);
}

std::unique_ptr<Property> MinChangesBefore::negation() const {
  if (min_changes_ == 0) return nullptr;  // "at least 0" is trivially true
  return std::make_unique<MaxChangesBefore>(deadline_, min_changes_ - 1, card_);
}

std::string MinChangesBefore::describe() const {
  return "Dk: at least " + std::to_string(min_changes_) + " changes before cycle " +
         std::to_string(deadline_);
}

// ---- MaxChangesBefore ----

bool MaxChangesBefore::holds(const Signal& s) const {
  std::size_t count = 0;
  const std::size_t hi = std::min(deadline_, s.length());
  for (std::size_t i = 0; i < hi; ++i) count += s.has_change(i) ? 1 : 0;
  return count <= max_changes_;
}

bool MaxChangesBefore::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  const std::size_t hi = std::min(deadline_, x.size());
  std::vector<Lit> lits;
  lits.reserve(hi);
  for (std::size_t i = 0; i < hi; ++i) lits.push_back(mk_lit(x[i]));
  return sat::encode_at_most(solver, lits, max_changes_, card_);
}

std::unique_ptr<Property> MaxChangesBefore::negation() const {
  // "At most SIZE_MAX" holds for every signal, so its negation holds for
  // none: at least SIZE_MAX changes, which the encoding refutes outright.
  const std::size_t more = max_changes_ == SIZE_MAX ? SIZE_MAX : max_changes_ + 1;
  return std::make_unique<MinChangesBefore>(deadline_, more, card_);
}

std::string MaxChangesBefore::describe() const {
  return "at most " + std::to_string(max_changes_) + " changes before cycle " +
         std::to_string(deadline_);
}

// ---- ChangeInWindow ----

bool ChangeInWindow::holds(const Signal& s) const {
  const std::size_t hi = std::min(hi_, s.length());
  for (std::size_t i = lo_; i < hi; ++i) {
    if (s.has_change(i)) return true;
  }
  return false;
}

bool ChangeInWindow::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  const std::size_t hi = std::min(hi_, x.size());
  std::vector<Lit> clause;
  for (std::size_t i = lo_; i < hi; ++i) clause.push_back(mk_lit(x[i]));
  return solver.add_clause(std::move(clause));
}

std::unique_ptr<Property> ChangeInWindow::negation() const {
  return std::make_unique<NoChangeInWindow>(lo_, hi_);
}

std::string ChangeInWindow::describe() const {
  return "some change in [" + std::to_string(lo_) + ", " + std::to_string(hi_) + ")";
}

// ---- NoChangeInWindow ----

bool NoChangeInWindow::holds(const Signal& s) const {
  const std::size_t hi = std::min(hi_, s.length());
  for (std::size_t i = lo_; i < hi; ++i) {
    if (s.has_change(i)) return false;
  }
  return true;
}

bool NoChangeInWindow::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  const std::size_t hi = std::min(hi_, x.size());
  bool ok = true;
  for (std::size_t i = lo_; i < hi; ++i) {
    ok = solver.add_clause({~mk_lit(x[i])}) && ok;
  }
  return ok;
}

std::unique_ptr<Property> NoChangeInWindow::negation() const {
  return std::make_unique<ChangeInWindow>(lo_, hi_);
}

std::string NoChangeInWindow::describe() const {
  return "no change in [" + std::to_string(lo_) + ", " + std::to_string(hi_) + ")";
}

// ---- ExactlyKInWindow ----

bool ExactlyKInWindow::holds(const Signal& s) const {
  std::size_t count = 0;
  const std::size_t hi = std::min(hi_, s.length());
  for (std::size_t i = lo_; i < hi; ++i) count += s.has_change(i) ? 1 : 0;
  return count == k_;
}

bool ExactlyKInWindow::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  const std::size_t hi = std::min(hi_, x.size());
  std::vector<Lit> lits;
  for (std::size_t i = lo_; i < hi; ++i) lits.push_back(mk_lit(x[i]));
  return sat::encode_exactly(solver, lits, k_, card_);
}

std::string ExactlyKInWindow::describe() const {
  return "exactly " + std::to_string(k_) + " changes in [" + std::to_string(lo_) +
         ", " + std::to_string(hi_) + ")";
}

// ---- MinGap ----

bool MinGap::holds(const Signal& s) const {
  std::size_t last = s.length();
  for (std::size_t i = 0; i < s.length(); ++i) {
    if (!s.has_change(i)) continue;
    if (last != s.length() && i - last < gap_) return false;
    last = i;
  }
  return true;
}

bool MinGap::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  bool ok = true;
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = i + 1; j < x.size() && j - i < gap_; ++j) {
      ok = solver.add_clause({~mk_lit(x[i]), ~mk_lit(x[j])}) && ok;
    }
  }
  return ok;
}

std::string MinGap::describe() const {
  return "changes at least " + std::to_string(gap_) + " cycles apart";
}

// ---- KnownValue ----

bool KnownValue::holds(const Signal& s) const {
  return s.has_change(cycle_) == changed_;
}

bool KnownValue::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  assert(cycle_ < x.size());
  return solver.add_clause({Lit(x[cycle_], /*negated=*/!changed_)});
}

std::unique_ptr<Property> KnownValue::negation() const {
  return std::make_unique<KnownValue>(cycle_, !changed_);
}

std::string KnownValue::describe() const {
  return "cycle " + std::to_string(cycle_) + (changed_ ? " changed" : " unchanged");
}

// ---- OneChangeDelayed ----

OneChangeDelayed::OneChangeDelayed(Signal reference, std::size_t delay)
    : reference_(std::move(reference)), delay_(delay), variants_() {
  // A change at cycle c can be delayed to c+delay if that stays inside the
  // trace-cycle and does not collide with another change of the reference.
  for (std::size_t c : reference_.change_cycles()) {
    const std::size_t target = c + delay_;
    if (target >= reference_.length()) continue;
    if (reference_.has_change(target)) continue;
    Signal v = reference_;
    v.set_change(c, false);
    v.set_change(target, true);
    variants_.push_back(std::move(v));
  }
}

bool OneChangeDelayed::holds(const Signal& s) const {
  for (const Signal& v : variants_) {
    if (s == v) return true;
  }
  return false;
}

bool OneChangeDelayed::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  assert(reference_.length() == x.size());
  if (variants_.empty()) return solver.add_clause({});  // no feasible variant
  // One selector per variant; the chosen selector forces the whole signal.
  std::vector<Lit> selectors;
  bool ok = true;
  for (const Signal& v : variants_) {
    const Lit s = mk_lit(solver.new_var());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ok = solver.add_clause({~s, Lit(x[i], /*negated=*/!v.has_change(i))}) && ok;
    }
    selectors.push_back(s);
  }
  ok = solver.add_clause(selectors) && ok;
  return ok;
}

std::string OneChangeDelayed::describe() const {
  return "one change of the reference delayed by " + std::to_string(delay_) +
         " cycle(s) (" + std::to_string(variants_.size()) + " variants)";
}

// ---- SuffixDelayed ----

SuffixDelayed::SuffixDelayed(Signal reference, std::size_t delay)
    : reference_(std::move(reference)), delay_(delay), variants_() {
  // One variant per change cycle c: changes at cycles >= c move +delay.
  // Variants where a shifted change leaves the trace-cycle or collides
  // with an unshifted change are infeasible; duplicates are dropped.
  for (std::size_t c : reference_.change_cycles()) {
    Signal v(reference_.length());
    bool feasible = true;
    for (std::size_t i : reference_.change_cycles()) {
      const std::size_t target = i >= c ? i + delay_ : i;
      if (target >= reference_.length() || v.has_change(target)) {
        feasible = false;
        break;
      }
      v.set_change(target);
    }
    if (!feasible) continue;
    if (std::find(variants_.begin(), variants_.end(), v) == variants_.end()) {
      variants_.push_back(std::move(v));
    }
  }
}

bool SuffixDelayed::holds(const Signal& s) const {
  for (const Signal& v : variants_) {
    if (s == v) return true;
  }
  return false;
}

bool SuffixDelayed::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  assert(reference_.length() == x.size());
  if (variants_.empty()) return solver.add_clause({});
  std::vector<Lit> selectors;
  bool ok = true;
  for (const Signal& v : variants_) {
    const Lit s = mk_lit(solver.new_var());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ok = solver.add_clause({~s, Lit(x[i], /*negated=*/!v.has_change(i))}) && ok;
    }
    selectors.push_back(s);
  }
  ok = solver.add_clause(selectors) && ok;
  return ok;
}

std::string SuffixDelayed::describe() const {
  return "suffix of the reference delayed by " + std::to_string(delay_) +
         " cycle(s) (" + std::to_string(variants_.size()) + " variants)";
}

// ---- MaxGap ----

bool MaxGap::holds(const Signal& s) const {
  std::size_t last = s.length();
  for (std::size_t i = 0; i < s.length(); ++i) {
    if (!s.has_change(i)) continue;
    if (last != s.length() && i - last > gap_) return false;
    last = i;
  }
  return true;
}

bool MaxGap::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  // For each change at i, some change must follow within gap cycles —
  // unless i is the last change. Encode: x_i -> (x_{i+1} | ... |
  // x_{i+gap} | none_after_i), where none_after_i is an auxiliary meaning
  // "no change after cycle i" (chained: none_i <-> !x_{i+1} & none_{i+1}).
  const std::size_t m = x.size();
  if (m == 0) return solver.okay();
  bool ok = true;
  // none[i]: no change at cycles > i. Build from the back.
  std::vector<Lit> none(m, sat::lit_undef);
  Lit prev = sat::lit_undef;
  for (std::size_t i = m; i-- > 0;) {
    const Lit n = mk_lit(solver.new_var());
    if (i + 1 == m) {
      ok = solver.add_clause({n}) && ok;  // nothing after the last cycle
    } else {
      // n <-> !x_{i+1} & none_{i+1}
      ok = solver.add_clause({~n, ~mk_lit(x[i + 1])}) && ok;
      ok = solver.add_clause({~n, prev}) && ok;
      ok = solver.add_clause({n, mk_lit(x[i + 1]), ~prev}) && ok;
    }
    none[i] = n;
    prev = n;
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Lit> clause = {~mk_lit(x[i])};
    for (std::size_t j = i + 1; j < m && j <= i + gap_; ++j) {
      clause.push_back(mk_lit(x[j]));
    }
    clause.push_back(none[i]);
    ok = solver.add_clause(std::move(clause)) && ok;
  }
  return ok;
}

std::string MaxGap::describe() const {
  return "consecutive changes at most " + std::to_string(gap_) + " cycles apart";
}

// ---- Conjunction ----

bool Conjunction::holds(const Signal& s) const {
  for (const auto& p : parts_) {
    if (!p->holds(s)) return false;
  }
  return true;
}

bool Conjunction::encode(SolverInterface& solver, const std::vector<Var>& x) const {
  bool ok = true;
  for (const auto& p : parts_) ok = p->encode(solver, x) && ok;
  return ok;
}

std::string Conjunction::describe() const {
  std::string out = "all of {";
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i > 0) out += "; ";
    out += parts_[i]->describe();
  }
  return out + "}";
}

}  // namespace tp::core
