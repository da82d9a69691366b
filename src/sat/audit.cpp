#include "sat/audit.hpp"

#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "f2/bitvec.hpp"
#include "f2/reference.hpp"
#include "sat/drat.hpp"
#include "sat/solver.hpp"

namespace tp::sat {

const char* to_string(AuditPoint p) {
  switch (p) {
    case AuditPoint::PostPropagate: return "post-propagate";
    case AuditPoint::PostBacktrack: return "post-backtrack";
    case AuditPoint::PostSimplify: return "post-simplify";
    case AuditPoint::Manual: return "manual";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(AuditPoint p, const std::string& what) {
  throw AuditFailure(std::string("sat audit [") + to_string(p) + "]: " + what);
}

}  // namespace

Auditor* Auditor::debug_env() {
  static Auditor* instance = [] {
    const char* env = std::getenv("TP_SAT_AUDIT");
    if (env == nullptr || env[0] == '\0' ||
        (env[0] == '0' && env[1] == '\0')) {
      return static_cast<Auditor*>(nullptr);
    }
    AuditOptions opts;
    opts.period = 64;
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) opts.period = static_cast<std::uint64_t>(parsed);
    static Auditor global(opts);
    return &global;
  }();
  return instance;
}

void Auditor::checkpoint(const Solver& solver, AuditPoint point) {
  const std::uint64_t n = seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (opts_.period > 1 && (n % opts_.period) != 0) return;
  audit(solver, point);
}

void Auditor::audit(const Solver& solver, AuditPoint point) {
  runs_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.check_trail) {
    check_trail(solver, point);
    check_gauss(solver, point);
  }
  if (opts_.check_watches) check_watches(solver, point);
  if (opts_.check_arena) check_arena(solver, point);
  if (opts_.check_xor_watches) check_xor_watches(solver, point);
  if (opts_.check_fixpoint && point == AuditPoint::PostPropagate) {
    check_fixpoint(solver, point);
  }
  if (opts_.check_learnt_rup && point == AuditPoint::PostBacktrack) {
    check_learnt_rup(solver, point);
  }
}

void Auditor::check_trail(const Solver& s, AuditPoint p) const {
  const std::size_t n = s.trail_.size();
  if (s.qhead_ > n) fail(p, "qhead past the end of the trail");
  std::size_t prev = 0;
  for (std::size_t lim : s.trail_lim_) {
    if (lim < prev) fail(p, "trail level boundaries not monotone");
    if (lim > n) fail(p, "trail level boundary past the end of the trail");
    prev = lim;
  }

  std::vector<char> on_trail(s.assigns_.size(), 0);
  std::size_t lvl = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Lit l = s.trail_[i];
    const auto v = static_cast<std::size_t>(l.var());
    if (v >= s.assigns_.size()) fail(p, "trail literal over an unknown variable");
    if (on_trail[v]) fail(p, "variable appears twice on the trail");
    on_trail[v] = 1;
    if (s.assigns_[v] == LBool::Undef) fail(p, "trail literal unassigned");
    if ((s.assigns_[v] == LBool::True) != !l.negated()) {
      fail(p, "trail literal contradicts the assignment");
    }
    // Advance past every level opened at or before this position. Equal
    // boundaries are dummy levels (assumptions already true).
    while (lvl < s.trail_lim_.size() && s.trail_lim_[lvl] <= i) ++lvl;
    if (static_cast<std::size_t>(s.vardata_[v].level) != lvl) {
      fail(p, "trail literal's level does not match its trail segment");
    }
    const Solver::Reason r = s.vardata_[v].reason;
    if (lvl > 0 && r.none() && i != s.trail_lim_[lvl - 1]) {
      fail(p, "reason-less literal above level 0 is not a decision");
    }
    if (r.kind == Solver::Reason::Kind::Clause && s.arena_.lit(r.cref, 0) != l) {
      fail(p, "reason clause does not have the implied literal first");
    }
    if (r.kind == Solver::Reason::Kind::Binary &&
        s.value(r.other) != LBool::False) {
      fail(p, "binary reason's partner literal is not false");
    }
  }
  std::size_t assigned = 0;
  for (const LBool a : s.assigns_) {
    if (a != LBool::Undef) ++assigned;
  }
  if (assigned != n) fail(p, "assigned variables not in bijection with the trail");
}

void Auditor::check_gauss(const Solver& s, AuditPoint p) const {
  const Solver::Gauss& g = s.gauss_;
  // The column bitmaps and the unassigned count, against a fresh scan.
  std::vector<std::uint64_t> assigned(g.words, 0);
  std::vector<std::uint64_t> values(g.words, 0);
  std::size_t unassigned = 0;
  for (std::size_t c = 0; c < g.cols.size(); ++c) {
    const auto v = static_cast<std::size_t>(g.cols[c]);
    if (v >= s.assigns_.size() || g.col_of[v] != static_cast<std::int32_t>(c)) {
      fail(p, "Gauss column and variable indices disagree");
    }
    const std::uint64_t bit = std::uint64_t{1} << (c % 64);
    if (s.assigns_[v] == LBool::Undef) {
      ++unassigned;
    } else {
      assigned[c / 64] |= bit;
      if (s.assigns_[v] == LBool::True) values[c / 64] |= bit;
    }
  }
  if (assigned != g.assigned || values != g.values || unassigned != g.unassigned) {
    fail(p, "Gauss column bitmaps disagree with the assignment");
  }

  // Every Gauss-implied literal above level 0 materializes a reason that
  // starts with the literal; the rest are false and earlier on the trail.
  // Its columns, with the parity of their values, must also be a
  // combination of the rows [mask | rhs], which the scalar reference
  // kernel reduces once per sweep.
  const std::size_t ncols = g.cols.size();
  std::vector<f2::BitVec> rows;
  std::vector<std::size_t> pivots;
  std::vector<std::size_t> pos(s.assigns_.size(), SIZE_MAX);
  std::vector<Lit> reason;
  for (std::size_t i = 0; i < s.trail_.size(); ++i) {
    const Lit l = s.trail_[i];
    const auto v = static_cast<std::size_t>(l.var());
    pos[v] = i;
    const Solver::Reason r = s.vardata_[v].reason;
    if (r.kind != Solver::Reason::Kind::Gauss || s.vardata_[v].level == 0) continue;
    s.reason_literals(l, r, reason);
    if (reason.empty() || reason[0] != l) {
      fail(p, "Gauss reason does not start with the implied literal");
    }
    for (std::size_t j = 1; j < reason.size(); ++j) {
      const auto q = static_cast<std::size_t>(reason[j].var());
      if (s.value(reason[j]) != LBool::False || pos[q] >= i) {
        fail(p, "Gauss reason literal not false earlier on the trail");
      }
    }
    if (rows.empty()) {
      for (std::size_t row = 0; row < g.rhs.size(); ++row) {
        f2::BitVec full(ncols + 1);
        for (std::size_t c = 0; c < ncols; ++c) {
          if (((g.masks[row * g.words + c / 64] >> (c % 64)) & 1) != 0) full.set(c, true);
        }
        full.set(ncols, g.rhs[row] != 0);
        rows.push_back(std::move(full));
      }
      pivots = f2::reference::row_reduce(rows);
    }
    f2::BitVec combination(ncols + 1);
    bool parity = false;
    for (const Lit q : reason) {
      const std::int32_t c = g.col_of[static_cast<std::size_t>(q.var())];
      if (c < 0) fail(p, "Gauss reason literal outside the Gauss columns");
      combination.set(static_cast<std::size_t>(c), true);
      parity = parity != (s.value(q.var()) == LBool::True);
    }
    combination.set(ncols, parity);
    for (std::size_t k = 0; k < pivots.size(); ++k) {
      if (combination.get(pivots[k])) combination ^= rows[k];
    }
    if (!combination.is_zero()) {
      fail(p, "Gauss reason is not a combination of the rows");
    }
  }
}

void Auditor::check_watches(const Solver& s, AuditPoint p) const {
  std::unordered_set<ClauseRef> live;
  for (const ClauseRef c : s.clauses_) live.insert(c);
  for (const ClauseRef c : s.learnts_) live.insert(c);

  std::size_t total = 0;
  for (std::size_t code = 0; code < s.watches_.size(); ++code) {
    const Lit watched = ~Lit::from_code(static_cast<std::int32_t>(code));
    for (const Solver::Watcher& w : s.watches_[code]) {
      ++total;
      if (live.find(w.cref) == live.end()) {
        fail(p, "watcher points at a detached clause");
      }
      if (s.arena_.dead(w.cref)) fail(p, "watcher points at a dead clause");
      const std::size_t n = s.arena_.size(w.cref);
      if (n < 3) fail(p, "watched arena clause shorter than three literals");
      if (s.arena_.lit(w.cref, 0) != watched && s.arena_.lit(w.cref, 1) != watched) {
        fail(p, "watch-list entry does not match the clause's watched literals");
      }
      bool blocker_in_clause = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (s.arena_.lit(w.cref, i) == w.blocker) {
          blocker_in_clause = true;
          break;
        }
      }
      if (!blocker_in_clause) fail(p, "blocker is not a literal of its clause");
    }
  }
  if (total != 2 * live.size()) {
    fail(p, "global watcher count is not twice the clause count");
  }
  // The total being exact still allows one clause to be watched twice on
  // the same literal while another lost a watcher; pin each clause down.
  for (const ClauseRef c : live) {
    for (std::size_t i = 0; i < 2; ++i) {
      const Lit l = s.arena_.lit(c, i);
      const auto& wl = s.watches_[static_cast<std::size_t>((~l).code())];
      std::size_t count = 0;
      for (const Solver::Watcher& w : wl) {
        if (w.cref == c) ++count;
      }
      if (count != 1) fail(p, "clause not watched exactly once per watched literal");
    }
  }

  // Binary implication lists: every clause {a, b} holds one entry b in a's
  // falsification list and one entry a in b's, with matching learnt flags.
  // Counting canonical-side entries as +1 and the mirror side as -1 over
  // (unordered pair, learnt) keys must cancel exactly; the canonical-side
  // totals must match the solver's binary-clause counters.
  std::unordered_map<std::uint64_t, std::int64_t> pairing;
  std::size_t canon_problem = 0;
  std::size_t canon_learnt = 0;
  for (std::size_t code = 0; code < s.bin_watches_.size(); ++code) {
    const Lit a = ~Lit::from_code(static_cast<std::int32_t>(code));
    for (const Solver::BinWatcher& w : s.bin_watches_[code]) {
      const Lit b = w.other;
      if (static_cast<std::size_t>(b.var()) >= s.assigns_.size()) {
        fail(p, "binary watcher over an unknown variable");
      }
      if (a.var() == b.var()) fail(p, "degenerate binary clause on one variable");
      const auto ac = static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.code()));
      const auto bc = static_cast<std::uint64_t>(static_cast<std::uint32_t>(b.code()));
      const std::uint64_t lo = ac < bc ? ac : bc;
      const std::uint64_t hi = ac < bc ? bc : ac;
      const std::uint64_t key = (lo << 33) | (hi << 1) | (w.learnt != 0 ? 1 : 0);
      if (ac < bc) {
        pairing[key] += 1;
        if (w.learnt != 0) {
          ++canon_learnt;
        } else {
          ++canon_problem;
        }
      } else {
        pairing[key] -= 1;
      }
    }
  }
  for (const auto& [key, balance] : pairing) {
    if (balance != 0) {
      fail(p, "binary clause not mirrored across its two implication lists");
    }
  }
  if (canon_problem != s.num_bin_problem_ || canon_learnt != s.num_bin_learnt_) {
    fail(p, "binary implication lists disagree with the binary-clause counters");
  }
}

void Auditor::check_arena(const Solver& s, AuditPoint p) const {
  const std::size_t buf_words = s.arena_.buffer_words();
  std::size_t live_words = 0;
  auto check_db = [&](const std::vector<ClauseRef>& db, bool learnt) {
    for (const ClauseRef c : db) {
      if (c + ClauseArena::kHeaderWords > buf_words) {
        fail(p, "database ClauseRef outside the arena buffer");
      }
      if (s.arena_.dead(c)) fail(p, "database holds a dead ClauseRef");
      const std::size_t n = s.arena_.size(c);
      if (n < 3) fail(p, "arena clause shorter than three literals");
      if (c + ClauseArena::kHeaderWords + n > buf_words) {
        fail(p, "arena clause extends past the buffer");
      }
      if (s.arena_.learnt(c) != learnt) {
        fail(p, "arena learnt flag disagrees with the clause's database");
      }
      live_words += ClauseArena::kHeaderWords + n;
    }
  };
  check_db(s.clauses_, /*learnt=*/false);
  check_db(s.learnts_, /*learnt=*/true);
  if (live_words + s.arena_.wasted_words() != buf_words) {
    fail(p, "arena occupancy: live words + recorded waste != buffer size");
  }
}

void Auditor::check_xor_watches(const Solver& s, AuditPoint p) const {
  std::unordered_set<const XorConstraint*> live;
  for (const auto& x : s.xors_) live.insert(x.get());

  for (const auto& wl : s.xor_watch_) {
    for (const XorConstraint* x : wl) {
      // Stale entries (the constraint moved its watch away and the lazy
      // sweep has not visited this list since) are legal; dangling
      // pointers are not.
      if (live.find(x) == live.end()) {
        fail(p, "XOR watch list holds a dangling constraint pointer");
      }
    }
  }
  for (const auto& x : s.xors_) {
    if (x->vars.size() < 2) fail(p, "XOR constraint with fewer than two variables");
    if (x->w0 == x->w1) fail(p, "XOR watch positions coincide");
    if (x->w0 >= x->vars.size() || x->w1 >= x->vars.size()) {
      fail(p, "XOR watch position out of range");
    }
    for (const std::size_t w : {x->w0, x->w1}) {
      const auto v = static_cast<std::size_t>(x->vars[w]);
      const auto& wl = s.xor_watch_[v];
      bool found = false;
      for (const XorConstraint* entry : wl) {
        if (entry == x.get()) {
          found = true;
          break;
        }
      }
      if (!found) fail(p, "XOR constraint missing from its watched variable's list");
    }
  }
}

void Auditor::check_fixpoint(const Solver& s, AuditPoint p) const {
  auto clause_check = [&](const ClauseRef c) {
    const std::size_t n = s.arena_.size(c);
    std::size_t unassigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const LBool v = s.value(s.arena_.lit(c, i));
      if (v == LBool::True) return;
      if (v == LBool::Undef) ++unassigned;
    }
    if (unassigned == 0) fail(p, "clause falsified at a propagation fixpoint");
    if (unassigned == 1) fail(p, "unit clause unpropagated at a fixpoint");
  };
  for (const ClauseRef c : s.clauses_) clause_check(c);
  for (const ClauseRef c : s.learnts_) clause_check(c);

  // Binary clauses, visited once each from the canonical side.
  for (std::size_t code = 0; code < s.bin_watches_.size(); ++code) {
    const Lit a = ~Lit::from_code(static_cast<std::int32_t>(code));
    for (const Solver::BinWatcher& w : s.bin_watches_[code]) {
      if (a.code() >= w.other.code()) continue;
      const LBool va = s.value(a);
      const LBool vb = s.value(w.other);
      if (va == LBool::True || vb == LBool::True) continue;
      if (va == LBool::False && vb == LBool::False) {
        fail(p, "binary clause falsified at a propagation fixpoint");
      }
      if (va == LBool::False || vb == LBool::False) {
        fail(p, "unit binary clause unpropagated at a fixpoint");
      }
    }
  }

  for (const auto& x : s.xors_) {
    std::size_t unassigned = 0;
    bool parity = false;
    for (const Var v : x->vars) {
      const LBool a = s.value(v);
      if (a == LBool::Undef) {
        ++unassigned;
        if (unassigned > 1) break;
      } else if (a == LBool::True) {
        parity = !parity;
      }
    }
    if (unassigned == 0 && parity != x->rhs) {
      fail(p, "XOR constraint violated at a propagation fixpoint");
    }
    if (unassigned == 1) fail(p, "unit XOR constraint unpropagated at a fixpoint");
  }

  // Gauss rows, when the gate admitted this fixpoint: the residual system
  // (unassigned columns plus the residual parity as a last column) is
  // reduced by the scalar reference kernel, which shares no code with the
  // solver's packed one. No reduced row may be unit or violated.
  const Solver::Gauss& g = s.gauss_;
  if (g.dirty || g.rhs.empty() || g.unassigned > s.gauss_gate()) return;
  const std::size_t ncols = g.cols.size();
  std::vector<f2::BitVec> rows;
  rows.reserve(g.rhs.size());
  for (std::size_t r = 0; r < g.rhs.size(); ++r) {
    f2::BitVec row(ncols + 1);
    bool parity = g.rhs[r] != 0;
    for (std::size_t c = 0; c < ncols; ++c) {
      if (((g.masks[r * g.words + c / 64] >> (c % 64)) & 1) == 0) continue;
      const LBool a = s.value(g.cols[c]);
      if (a == LBool::Undef) {
        row.set(c, true);
      } else if (a == LBool::True) {
        parity = !parity;
      }
    }
    row.set(ncols, parity);
    rows.push_back(std::move(row));
  }
  f2::reference::row_reduce(rows);
  for (const f2::BitVec& row : rows) {
    std::size_t residual = row.popcount();
    if (row.get(ncols)) --residual;
    if (residual == 0 && row.get(ncols)) {
      fail(p, "Gauss row combination violated at a propagation fixpoint");
    }
    if (residual == 1) fail(p, "unit Gauss row combination unpropagated at a fixpoint");
  }
}

void Auditor::check_learnt_rup(const Solver& s, AuditPoint p) const {
  // Row-combination reasons from the Gaussian engine cannot be replayed by
  // a clausal RUP check.
  if (s.opts_.use_gauss) return;
  for (const auto& x : s.xors_) {
    if (x->vars.size() > opts_.rup_max_xor_arity) return;
  }

  // Identify what this conflict just produced: a stored arena clause (it is
  // the reason of the newly asserted trail literal), a fresh binary (the
  // reason carries the partner literal), or a unit (asserted with no reason
  // after a backjump to level 0).
  if (s.trail_.empty()) return;
  const Lit asserted = s.trail_.back();
  const Solver::Reason reason =
      s.vardata_[static_cast<std::size_t>(asserted.var())].reason;
  ClauseRef candidate = kCRefUndef;
  bool candidate_binary = false;
  if (reason.kind == Solver::Reason::Kind::Clause && !s.learnts_.empty() &&
      reason.cref == s.learnts_.back()) {
    candidate = s.learnts_.back();
  } else if (reason.kind == Solver::Reason::Kind::Binary) {
    candidate_binary = true;  // the just-learnt binary {asserted, reason.other}
  } else if (!reason.none()) {
    return;  // checkpoint fired somewhere unexpected; nothing to certify
  }

  DratChecker checker(/*check_rat=*/false);
  auto feed = [&checker, &s](const ClauseRef c) {
    IntClause ic;
    const std::size_t n = s.arena_.size(c);
    ic.reserve(n);
    for (std::size_t i = 0; i < n; ++i) ic.push_back(lit_to_dimacs(s.arena_.lit(c, i)));
    checker.add_clause(ic);
  };
  for (const ClauseRef c : s.clauses_) feed(c);
  for (const ClauseRef c : s.learnts_) {
    if (c != candidate) feed(c);
  }
  // Binary clauses, fed once each from the canonical side. When the claim
  // under test is itself a binary, exactly one stored instance of it is the
  // just-attached claim and must be withheld from the database.
  bool skipped_candidate_binary = false;
  for (std::size_t code = 0; code < s.bin_watches_.size(); ++code) {
    const Lit a = ~Lit::from_code(static_cast<std::int32_t>(code));
    for (const Solver::BinWatcher& w : s.bin_watches_[code]) {
      if (a.code() >= w.other.code()) continue;
      if (candidate_binary && !skipped_candidate_binary &&
          ((a == asserted && w.other == reason.other) ||
           (a == reason.other && w.other == asserted))) {
        skipped_candidate_binary = true;
        continue;
      }
      checker.add_clause({lit_to_dimacs(a), lit_to_dimacs(w.other)});
    }
  }
  for (const auto& x : s.xors_) {
    std::vector<int> vars;
    vars.reserve(x->vars.size());
    for (const Var v : x->vars) vars.push_back(v + 1);
    for (const auto& clause : xor_clauses(vars, x->rhs)) {
      checker.add_clause(clause);
    }
  }
  // Level-0 facts take part in conflict analysis but are dropped from the
  // learnt clause, so the independent derivation needs them as units. The
  // just-asserted unit itself (the candidate in the backjump-to-0 case) is
  // excluded — it is the claim under test.
  const bool unit_claim = candidate == kCRefUndef && !candidate_binary;
  const std::size_t level0_end =
      s.trail_lim_.empty() ? s.trail_.size() : s.trail_lim_[0];
  for (std::size_t i = 0; i < level0_end; ++i) {
    if (unit_claim && i + 1 == s.trail_.size()) continue;
    checker.add_clause({lit_to_dimacs(s.trail_[i])});
  }

  ProofOp claim;
  if (candidate != kCRefUndef) {
    const std::size_t n = s.arena_.size(candidate);
    for (std::size_t i = 0; i < n; ++i) {
      claim.lits.push_back(lit_to_dimacs(s.arena_.lit(candidate, i)));
    }
  } else if (candidate_binary) {
    claim.lits.push_back(lit_to_dimacs(asserted));
    claim.lits.push_back(lit_to_dimacs(reason.other));
  } else {
    claim.lits.push_back(lit_to_dimacs(asserted));
  }
  const DratChecker::Result res = checker.check({claim});
  if (!res.valid) {
    fail(p, "learnt clause is not RUP against the database: " + res.error);
  }
}

}  // namespace tp::sat
