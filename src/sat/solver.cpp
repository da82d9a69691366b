#include "sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "sat/audit.hpp"
#include "sat/drat.hpp"

namespace tp::sat {

namespace {
using Clock = std::chrono::steady_clock;
}

double luby(double y, int i) {
  // Find the finite subsequence that contains index i and the size of that
  // subsequence (standard MiniSat implementation).
  int size = 1;
  int seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return std::pow(y, seq);
}

SolverStats& SolverStats::operator+=(const SolverStats& o) {
  conflicts += o.conflicts;
  decisions += o.decisions;
  propagations += o.propagations;
  xor_propagations += o.xor_propagations;
  restarts += o.restarts;
  learnt_clauses += o.learnt_clauses;
  removed_clauses += o.removed_clauses;
  minimized_literals += o.minimized_literals;
  gauss_runs += o.gauss_runs;
  vivified_literals += o.vivified_literals;
  subsumed_clauses += o.subsumed_clauses;
  arena_gc_runs += o.arena_gc_runs;
  arena_bytes_reclaimed += o.arena_bytes_reclaimed;
  inprocess_rounds += o.inprocess_rounds;
  solve_seconds += o.solve_seconds;
  return *this;
}

SolverStats& SolverStats::operator-=(const SolverStats& o) {
  conflicts -= o.conflicts;
  decisions -= o.decisions;
  propagations -= o.propagations;
  xor_propagations -= o.xor_propagations;
  restarts -= o.restarts;
  learnt_clauses -= o.learnt_clauses;
  removed_clauses -= o.removed_clauses;
  minimized_literals -= o.minimized_literals;
  gauss_runs -= o.gauss_runs;
  vivified_literals -= o.vivified_literals;
  subsumed_clauses -= o.subsumed_clauses;
  arena_gc_runs -= o.arena_gc_runs;
  arena_bytes_reclaimed -= o.arena_bytes_reclaimed;
  inprocess_rounds -= o.inprocess_rounds;
  solve_seconds -= o.solve_seconds;
  return *this;
}

// ---------------------------------------------------------------- heap ----

void Solver::VarOrderHeap::insert(Var v, const std::vector<double>& act) {
  if (contains(v)) return;
  positions_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  sift_up(heap_.size() - 1, act);
}

Var Solver::VarOrderHeap::pop(const std::vector<double>& act) {
  Var top = heap_.front();
  positions_[static_cast<std::size_t>(top)] = -1;
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    positions_[static_cast<std::size_t>(heap_.front())] = 0;
    sift_down(0, act);
  }
  return top;
}

void Solver::VarOrderHeap::increased(Var v, const std::vector<double>& act) {
  if (contains(v)) sift_up(static_cast<std::size_t>(positions_[static_cast<std::size_t>(v)]), act);
}

void Solver::VarOrderHeap::sift_up(std::size_t i, const std::vector<double>& act) {
  Var v = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (act[static_cast<std::size_t>(heap_[parent])] >= act[static_cast<std::size_t>(v)]) break;
    heap_[i] = heap_[parent];
    positions_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  positions_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::VarOrderHeap::sift_down(std::size_t i, const std::vector<double>& act) {
  Var v = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        act[static_cast<std::size_t>(heap_[child + 1])] > act[static_cast<std::size_t>(heap_[child])]) {
      ++child;
    }
    if (act[static_cast<std::size_t>(heap_[child])] <= act[static_cast<std::size_t>(v)]) break;
    heap_[i] = heap_[child];
    positions_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  positions_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

// -------------------------------------------------------------- solver ----

Solver::Solver() : Solver(SolverOptions{}) {}

Solver::Solver(const SolverOptions& options) : opts_(options) {
  if (opts_.proof != nullptr && opts_.use_gauss) {
    // A Gaussian conflict/implication comes from a *combination* of rows,
    // which DRAT's clause-redundancy checks cannot express (the same
    // restriction CryptoMiniSat documents for its BIRD work).
    throw std::invalid_argument(
        "SolverOptions: proof logging is incompatible with use_gauss");
  }
  next_reduce_ = opts_.reduce_base;
#ifndef NDEBUG
  // Debug builds can force an auditor onto every solver in the process via
  // the environment — the sanitizer CI job runs the whole suite this way.
  audit_ = Auditor::debug_env();
#endif
}

Solver::~Solver() = default;

std::unique_ptr<Solver> Solver::clone_solver() const {
  assert(decision_level() == 0 && "clone() only between solve() calls");
  auto c = std::make_unique<Solver>(opts_);

  // A proof certifies one solver's derivation stream; interleaving a
  // clone's additions would corrupt it, so the copy starts unlogged (and
  // unaudited — attach a fresh auditor explicitly if wanted).
  c->opts_.proof = nullptr;
  c->proof_empty_done_ = false;

  c->ok_ = ok_;
  c->assigns_ = assigns_;
  c->lit_assigns_ = lit_assigns_;
  c->polarity_ = polarity_;
  c->activity_ = activity_;
  c->trail_ = trail_;
  c->trail_lim_ = trail_lim_;
  c->qhead_ = qhead_;
  c->order_ = order_;
  c->var_inc_ = var_inc_;
  c->cla_inc_ = cla_inc_;
  c->model_ = model_;
  c->seen_.assign(seen_.size(), 0);
  c->lbd_seen_.assign(lbd_seen_.size(), 0);
  c->next_reduce_ = next_reduce_;
  c->num_reduces_ = num_reduces_;
  c->vivify_head_ = vivify_head_;
  c->probe_head_ = probe_head_;

  // The clause store is position-addressed, so the whole database — arena
  // buffer, ref lists, watcher lists (same order, same blockers) and binary
  // implication lists — copies flat with every ClauseRef still valid.
  c->arena_ = arena_;
  c->clauses_ = clauses_;
  c->learnts_ = learnts_;
  c->watches_ = watches_;
  c->bin_watches_ = bin_watches_;
  c->num_bin_problem_ = num_bin_problem_;
  c->num_bin_learnt_ = num_bin_learnt_;

  // Only the XOR constraints hold heap identity: duplicate them and remap
  // their watch lists and reason pointers. Each constraint's circular
  // search_pos travels with it, so the clone's watch replacement scans
  // start exactly where the original's would.
  std::unordered_map<const XorConstraint*, XorConstraint*> xmap;
  c->xors_.reserve(xors_.size());
  for (const auto& x : xors_) {
    auto copy = std::make_unique<XorConstraint>(*x);
    xmap.emplace(x.get(), copy.get());
    c->xors_.push_back(std::move(copy));
  }
  c->xor_watch_.resize(xor_watch_.size());
  for (std::size_t i = 0; i < xor_watch_.size(); ++i) {
    c->xor_watch_[i].reserve(xor_watch_[i].size());
    for (XorConstraint* x : xor_watch_[i]) {
      c->xor_watch_[i].push_back(xmap.at(x));
    }
  }

  c->vardata_ = vardata_;
  for (VarData& vd : c->vardata_) {
    if (vd.reason.kind == Reason::Kind::Xor) vd.reason.xr = xmap.at(vd.reason.xr);
  }

  c->gauss_ = gauss_;

  return c;
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  lit_assigns_.push_back(LBool::Undef);
  lit_assigns_.push_back(LBool::Undef);
  vardata_.push_back({});
  polarity_.push_back(opts_.default_polarity);
  activity_.push_back(0.0);
  seen_.push_back(0);
  lbd_seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  xor_watch_.emplace_back();
  gauss_.col_of.push_back(-1);
  order_.grow(assigns_.size());
  order_.insert(v, activity_);
  return v;
}

LBool Solver::fixed_value(Var v) const {
  if (assigns_[static_cast<std::size_t>(v)] != LBool::Undef &&
      vardata_[static_cast<std::size_t>(v)].level == 0) {
    return assigns_[static_cast<std::size_t>(v)];
  }
  return LBool::Undef;
}

// ------------------------------------------- portfolio clause sharing ----

std::size_t Solver::export_learnts(
    std::uint32_t max_lbd, std::size_t max_clauses,
    std::vector<std::pair<std::vector<Lit>, std::uint32_t>>& out) const {
  std::size_t appended = 0;
  // Newest first: the freshest learnts are the ones most relevant to the
  // query the race just finished.
  for (auto it = learnts_.rbegin();
       it != learnts_.rend() && appended < max_clauses; ++it) {
    const ClauseRef c = *it;
    if (arena_.lbd(c) > max_lbd) continue;
    std::vector<Lit> lits;
    const std::size_t n = arena_.size(c);
    lits.reserve(n);
    for (std::size_t i = 0; i < n; ++i) lits.push_back(arena_.lit(c, i));
    out.emplace_back(std::move(lits), arena_.lbd(c));
    ++appended;
  }
  return appended;
}

bool Solver::import_learnt(std::vector<Lit> lits, std::uint32_t lbd) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  if (opts_.proof != nullptr) return ok_;  // foreign clause: not RUP here

  // Same level-0 canonicalization as add_clause, without the axiom log:
  // the clause is implied by the formula, not part of it.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  Lit prev = lit_undef;
  for (Lit l : lits) {
    assert(l.var() < num_vars());
    if (value(l) == LBool::True || l == ~prev) return true;
    if (value(l) == LBool::False || l == prev) continue;
    out.push_back(l);
    prev = l;
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    unchecked_enqueue(out[0], {});
    ok_ = propagate().none();
    return ok_;
  }
  if (out.size() == 2) {
    attach_binary(out[0], out[1], /*learnt=*/true);
    return true;
  }
  const ClauseRef c = arena_.alloc(out, /*learnt=*/true);
  arena_.set_lbd(c, std::max<std::uint32_t>(lbd, 2));
  // Start at the current activity scale so the import survives until it
  // has had a chance to prove itself in reduce_db().
  arena_.set_activity(c, static_cast<float>(cla_inc_));
  attach_clause(c);
  learnts_.push_back(c);
  return true;
}

// ----------------------------------------------------- proof emission ----

void Solver::proof_axiom(const std::vector<Lit>& lits) {
  if (opts_.proof != nullptr) opts_.proof->axiom(lits);
}

void Solver::proof_add(const std::vector<Lit>& lits) {
  if (opts_.proof != nullptr) opts_.proof->add(lits);
}

void Solver::proof_del(const std::vector<Lit>& lits) {
  if (opts_.proof != nullptr) opts_.proof->del(lits);
}

void Solver::proof_del_ref(ClauseRef c) {
  if (opts_.proof != nullptr) opts_.proof->del(arena_, c);
}

void Solver::proof_empty() {
  if (opts_.proof == nullptr || proof_empty_done_) return;
  proof_empty_done_ = true;
  opts_.proof->add({});
}

void Solver::proof_xor_axioms(const std::vector<Var>& vars, bool rhs) {
  // One axiom per parity-violating assignment: 2^(n-1) clauses forbidding
  // exactly the assignments whose parity differs from rhs. Arity is capped
  // by add_xor before this is reached.
  const std::size_t n = vars.size();
  std::vector<Lit> clause(n, lit_undef);
  for (std::uint32_t mask = 0; mask < (std::uint32_t{1} << n); ++mask) {
    bool parity = false;
    for (std::size_t i = 0; i < n; ++i) parity ^= ((mask >> i) & 1) != 0;
    if (parity == rhs) continue;
    for (std::size_t i = 0; i < n; ++i) {
      clause[i] = Lit(vars[i], /*negated=*/((mask >> i) & 1) != 0);
    }
    opts_.proof->axiom(clause);
  }
}

// ------------------------------------------------------- constraints -----

bool Solver::add_clause(std::vector<Lit> lits) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  proof_axiom(lits);

  // Level-0 simplification: drop false literals, detect satisfied clauses,
  // merge duplicates, detect tautologies.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  Lit prev = lit_undef;
  for (Lit l : lits) {
    assert(l.var() < num_vars());
    if (value(l) == LBool::True || l == ~prev) return true;  // satisfied / tautology
    if (value(l) == LBool::False || l == prev) continue;     // false / duplicate
    out.push_back(l);
    prev = l;
  }

  if (out.empty()) {
    // Every literal of the logged axiom is false at level 0, so the empty
    // clause is derivable by unit propagation alone.
    ok_ = false;
    proof_empty();
    return false;
  }
  if (out.size() == 1) {
    unchecked_enqueue(out[0], {});
    ok_ = propagate().none();
    if (!ok_) proof_empty();
    return ok_;
  }
  if (out.size() == 2) {
    attach_binary(out[0], out[1], /*learnt=*/false);
    return true;
  }
  const ClauseRef c = arena_.alloc(out, /*learnt=*/false);
  attach_clause(c);
  clauses_.push_back(c);
  return true;
}

bool Solver::add_xor(std::vector<Var> vars, bool rhs) {
  assert(decision_level() == 0);
  if (!ok_) return false;

  // Canonicalize: duplicated variables cancel pairwise; variables fixed at
  // level 0 fold into the parity.
  std::sort(vars.begin(), vars.end());
  std::vector<Var> out;
  for (std::size_t i = 0; i < vars.size();) {
    assert(vars[i] < num_vars());
    if (i + 1 < vars.size() && vars[i] == vars[i + 1]) {
      i += 2;  // x XOR x = 0
      continue;
    }
    const LBool fv = value(vars[i]);
    if (fv != LBool::Undef) {
      if (fv == LBool::True) rhs = !rhs;
    } else {
      out.push_back(vars[i]);
    }
    ++i;
  }

  if (out.empty()) {
    if (rhs) {
      // Degenerate fold: the constraint contradicts the level-0 fixings.
      // The contradiction lives in the *folded-away* literals, which the
      // proof's clausal axioms cannot see, so the empty clause is emitted
      // as an axiom (a documented trust boundary — covered by the
      // differential fuzz suites, not by the checker).
      proof_axiom({});
      ok_ = false;
      proof_empty();  // RUP against the axiom just logged
    }
    return ok_;
  }
  if (out.size() == 1) {
    // Same trust boundary as above: the folded unit is an axiom.
    const Lit unit(out[0], /*negated=*/!rhs);
    proof_axiom({unit});
    unchecked_enqueue(unit, {});
    ok_ = propagate().none();
    if (!ok_) proof_empty();
    return ok_;
  }

  if (opts_.use_gauss) {
    gauss_.raw.emplace_back(std::move(out), rhs);
    gauss_.dirty = true;
    return true;
  }

  if (opts_.proof != nullptr) {
    // Proof mode attaches the constraint whole: chunk splitting introduces
    // definitional link variables whose clauses are only RAT in an order
    // the emission stream cannot promise once chains get long. The direct
    // expansion needs no new variables, at the cost of a 2^(n-1) axiom
    // fan-out — hence the arity cap.
    if (out.size() > kProofMaxXorArity) {
      throw std::invalid_argument(
          "add_xor: XOR arity exceeds kProofMaxXorArity under proof logging");
    }
    proof_xor_axioms(out, rhs);
    return attach_xor(std::move(out), rhs);
  }

  // Split long constraints into a chain of short XORs linked by fresh
  // parity variables: t1 = v1^..^vc, t2 = t1^v_{c+1}^..., last chunk
  // carries rhs. Keeps watched-variable scans and XOR reason clauses short.
  const std::size_t chunk = opts_.xor_chunk_size;
  if (chunk >= 3 && out.size() > chunk) {
    std::size_t consumed = 0;
    Var link = -1;
    while (out.size() - consumed > chunk) {
      // Take (chunk-1) inputs plus the incoming link; produce a new link.
      std::vector<Var> part;
      if (link >= 0) part.push_back(link);
      const std::size_t take = chunk - part.size() - 1;
      for (std::size_t i = 0; i < take; ++i) part.push_back(out[consumed++]);
      link = new_var();
      part.push_back(link);  // link = parity of the part's other vars
      if (!attach_xor(std::move(part), false)) return false;
    }
    std::vector<Var> tail;
    if (link >= 0) tail.push_back(link);
    while (consumed < out.size()) tail.push_back(out[consumed++]);
    return attach_xor(std::move(tail), rhs);
  }
  return attach_xor(std::move(out), rhs);
}

// Precondition: vars are distinct, unassigned, size >= 2.
bool Solver::attach_xor(std::vector<Var> vars, bool rhs) {
  auto x = std::make_unique<XorConstraint>();
  x->vars = std::move(vars);
  x->rhs = rhs;
  x->w0 = 0;
  x->w1 = 1;
  xor_watch_[static_cast<std::size_t>(x->vars[0])].push_back(x.get());
  xor_watch_[static_cast<std::size_t>(x->vars[1])].push_back(x.get());
  xors_.push_back(std::move(x));
  return true;
}

void Solver::attach_clause(ClauseRef c) {
  assert(arena_.size(c) >= 3);
  const Lit l0 = arena_.lit(c, 0);
  const Lit l1 = arena_.lit(c, 1);
  watches_[static_cast<std::size_t>((~l0).code())].push_back({c, l1});
  watches_[static_cast<std::size_t>((~l1).code())].push_back({c, l0});
}

void Solver::detach_clause(ClauseRef c) {
  for (std::size_t i = 0; i < 2; ++i) {
    auto& wl = watches_[static_cast<std::size_t>((~arena_.lit(c, i)).code())];
    auto it = std::find_if(wl.begin(), wl.end(),
                           [c](const Watcher& w) { return w.cref == c; });
    assert(it != wl.end());
    *it = wl.back();
    wl.pop_back();
  }
}

void Solver::attach_binary(Lit a, Lit b, bool learnt) {
  // Implication form: a false forces b, b false forces a.
  bin_watches_[static_cast<std::size_t>((~a).code())].push_back(
      {b, learnt ? 1u : 0u});
  bin_watches_[static_cast<std::size_t>((~b).code())].push_back(
      {a, learnt ? 1u : 0u});
  if (learnt) {
    ++num_bin_learnt_;
  } else {
    ++num_bin_problem_;
  }
}

void Solver::unchecked_enqueue(Lit l, Reason reason) {
  assert(value(l) == LBool::Undef);
  const auto v = static_cast<std::size_t>(l.var());
  assigns_[v] = to_lbool(!l.negated());
  lit_assigns_[static_cast<std::size_t>(l.code())] = LBool::True;
  lit_assigns_[static_cast<std::size_t>((~l).code())] = LBool::False;
  vardata_[v] = {reason, decision_level()};
  trail_.push_back(l);
  const std::int32_t col = gauss_.col_of[v];
  if (col >= 0) {
    const std::uint64_t bit = std::uint64_t{1} << (col & 63);
    gauss_.assigned[static_cast<std::size_t>(col >> 6)] |= bit;
    if (!l.negated()) gauss_.values[static_cast<std::size_t>(col >> 6)] |= bit;
    --gauss_.unassigned;
    gauss_.quiet = false;
  }
}

bool Solver::enqueue(Lit l, Reason reason) {
  const LBool v = value(l);
  if (v != LBool::Undef) return v == LBool::True;
  unchecked_enqueue(l, reason);
  return true;
}

Solver::Reason Solver::propagate() {
  Reason conflict;
  while (true) {
    bcp(conflict);
    if (!conflict.none() || !opts_.use_gauss) break;
    if (!gauss_propagate(conflict)) break;  // nothing implied: fixpoint
    if (!conflict.none()) break;
  }
  return conflict;
}

void Solver::bcp(Reason& conflict) {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;

    // ---- binary implications: clauses (~p ∨ q), no clause memory ----
    {
      const auto& bl = bin_watches_[static_cast<std::size_t>(p.code())];
      for (const BinWatcher& w : bl) {
        const LBool v = value(w.other);
        if (v == LBool::True) continue;
        if (v == LBool::False) {
          bin_conflict_ = {~p, w.other};
          conflict.kind = Reason::Kind::Binary;
          conflict.other = w.other;
          qhead_ = trail_.size();
          break;
        }
        unchecked_enqueue(w.other, Reason::binary(~p));
      }
      if (!conflict.none()) break;
    }

    // ---- clause watches: clauses in which ~p is watched ----
    auto& wl = watches_[static_cast<std::size_t>(p.code())];
    std::size_t keep = 0;
    std::size_t idx = 0;
    for (; idx < wl.size(); ++idx) {
      const Watcher w = wl[idx];
      if (value(w.blocker) == LBool::True) {
        wl[keep++] = w;
        continue;
      }
      std::uint32_t* lits = arena_.lits(w.cref);
      const Lit false_lit = ~p;
      const auto false_code = static_cast<std::uint32_t>(false_lit.code());
      if (lits[0] == false_code) std::swap(lits[0], lits[1]);
      assert(lits[1] == false_code);

      const Lit first = Lit::from_code(static_cast<std::int32_t>(lits[0]));
      if (value(first) == LBool::True) {
        wl[keep++] = {w.cref, first};
        continue;
      }
      const std::size_t size = arena_.size(w.cref);
      bool moved = false;
      for (std::size_t i = 2; i < size; ++i) {
        const Lit li = Lit::from_code(static_cast<std::int32_t>(lits[i]));
        if (value(li) != LBool::False) {
          std::swap(lits[1], lits[i]);
          watches_[static_cast<std::size_t>((~li).code())].push_back(
              {w.cref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // Clause is unit or conflicting.
      wl[keep++] = {w.cref, first};
      if (value(first) == LBool::False) {
        conflict = Reason::clause(w.cref);
        qhead_ = trail_.size();
        // Copy the remaining (unprocessed) watchers back.
        for (++idx; idx < wl.size(); ++idx) wl[keep++] = wl[idx];
        break;
      }
      unchecked_enqueue(first, Reason::clause(w.cref));
    }
    wl.resize(keep);
    if (!conflict.none()) break;

    // ---- XOR watches on the assigned variable ----
    auto& xl = xor_watch_[static_cast<std::size_t>(p.var())];
    std::size_t xkeep = 0;
    std::size_t xi = 0;
    for (; xi < xl.size(); ++xi) {
      XorConstraint& x = *xl[xi];
      bool kept = true;
      if (!propagate_xor(x, p.var(), conflict)) {
        kept = false;  // moved to another variable's watch list
      }
      if (kept) xl[xkeep++] = xl[xi];
      if (!conflict.none()) {
        qhead_ = trail_.size();
        for (++xi; xi < xl.size(); ++xi) xl[xkeep++] = xl[xi];
        break;
      }
    }
    xl.resize(xkeep);
    if (!conflict.none()) break;
  }
}

void Solver::gauss_rebuild() {
  Gauss& g = gauss_;
  // Rows are added at decision level 0 only, so every Gauss-implied
  // literal still on the trail is at level 0, where analysis reads no
  // reason: the saved combinations can be dropped with the old matrix.
  assert(std::all_of(trail_.begin(), trail_.end(), [this](Lit l) {
    return vardata_[static_cast<std::size_t>(l.var())].reason.kind !=
               Reason::Kind::Gauss ||
           level(l.var()) == 0;
  }));
  for (const Var v : g.cols) g.col_of[static_cast<std::size_t>(v)] = -1;
  g.cols.clear();
  for (const auto& [vars, rhs] : g.raw) {
    for (const Var v : vars) {
      std::int32_t& col = g.col_of[static_cast<std::size_t>(v)];
      if (col < 0) {
        col = static_cast<std::int32_t>(g.cols.size());
        g.cols.push_back(v);
      }
    }
  }
  const std::size_t ncols = g.cols.size();
  const std::size_t nrows = g.raw.size();
  g.words = (ncols + 63) / 64;
  g.comb_words = (nrows + 63) / 64;
  g.masks.assign(nrows * g.words, 0);
  g.rhs.resize(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    for (const Var v : g.raw[r].first) {
      const auto c = static_cast<std::size_t>(g.col_of[static_cast<std::size_t>(v)]);
      g.masks[r * g.words + c / 64] |= std::uint64_t{1} << (c % 64);
    }
    g.rhs[r] = static_cast<std::uint8_t>(g.raw[r].second);
  }
  g.assigned.assign(g.words, 0);
  g.values.assign(g.words, 0);
  g.unassigned = 0;
  for (std::size_t c = 0; c < ncols; ++c) {
    const LBool a = value(g.cols[c]);
    if (a == LBool::Undef) {
      ++g.unassigned;
      continue;
    }
    g.assigned[c / 64] |= std::uint64_t{1} << (c % 64);
    if (a == LBool::True) g.values[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  g.reason.assign(ncols * g.comb_words, 0);
  g.res.resize(nrows * g.words);
  g.comb.resize(nrows * g.comb_words);
  g.parity.resize(nrows);
  g.order.resize(nrows);
  g.live.resize(g.words);
  g.quiet = false;
  g.dirty = false;
}

std::size_t Solver::gauss_gate() const {
  return opts_.gauss_max_unassigned != 0 ? opts_.gauss_max_unassigned
                                         : 4 * gauss_.rhs.size() + 32;
}

void Solver::gauss_false_literals(const std::uint64_t* comb, std::size_t skip,
                                  std::vector<Lit>& out) const {
  const Gauss& g = gauss_;
  for (std::size_t w = 0; w < g.words; ++w) {
    std::uint64_t full = 0;
    for (std::size_t x = 0; x < g.comb_words; ++x) {
      for (std::uint64_t rows = comb[x]; rows != 0; rows &= rows - 1) {
        const std::size_t r = x * 64 + static_cast<std::size_t>(std::countr_zero(rows));
        full ^= g.masks[r * g.words + w];
      }
    }
    if (skip / 64 == w) full &= ~(std::uint64_t{1} << (skip % 64));
    for (; full != 0; full &= full - 1) {
      const Var v = g.cols[w * 64 + static_cast<std::size_t>(std::countr_zero(full))];
      assert(value(v) != LBool::Undef);
      out.push_back(Lit(v, /*negated=*/value(v) == LBool::True));  // false literal
    }
  }
}

bool Solver::gauss_propagate(Reason& conflict) {
  Gauss& g = gauss_;
  if (g.dirty) gauss_rebuild();
  const std::size_t nrows = g.rhs.size();
  if (nrows == 0 || g.unassigned > gauss_gate()) return false;

  ++stats_.gauss_runs;
  if (opts_.tracer != nullptr && (stats_.gauss_runs & 1023) == 0) {
    opts_.tracer->event(
        "solver.gauss",
        {{"runs", stats_.gauss_runs},
         {"unassigned", static_cast<std::uint64_t>(g.unassigned)},
         {"rows", static_cast<std::uint64_t>(nrows)}});
  }
  // Same column assignment as at a call that implied nothing: same answer.
  if (g.quiet) return false;

  // Working rows: the residual mask (the row's unassigned columns), the
  // combination of input rows it stands for, and the residual parity.
  const std::size_t nw = g.words;
  const std::size_t cw = g.comb_words;
  std::fill(g.live.begin(), g.live.end(), 0);
  std::fill(g.comb.begin(), g.comb.end(), 0);
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::uint64_t* mask = &g.masks[r * nw];
    std::uint64_t* res = &g.res[r * nw];
    int ones = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      res[w] = mask[w] & ~g.assigned[w];
      g.live[w] |= res[w];
      ones += std::popcount(mask[w] & g.values[w]);
    }
    g.parity[r] = static_cast<std::uint8_t>(g.rhs[r] ^ (ones & 1));
    g.comb[r * cw + r / 64] = std::uint64_t{1} << (r % 64);
    g.order[r] = static_cast<std::uint32_t>(r);
  }

  // Gauss-Jordan elimination on the residual columns, in column order
  // (full reduction: the extra row combinations find strictly more unit
  // rows per call than forward-only echelon form, which measures faster
  // overall). Only columns some residual row holds can take a pivot. Rows
  // are swapped through `order`; rows at or after `next` in that order
  // hold no column left of the current one, so a pivot row's residual
  // starts at the current word.
  std::size_t next = 0;
  for (std::size_t w = 0; w < nw && next < nrows; ++w) {
    for (std::uint64_t cand = g.live[w]; cand != 0 && next < nrows; cand &= cand - 1) {
      const std::uint64_t bit = cand & (~cand + 1);
      std::size_t pivot = next;
      while (pivot < nrows && (g.res[g.order[pivot] * nw + w] & bit) == 0) ++pivot;
      if (pivot == nrows) continue;
      std::swap(g.order[next], g.order[pivot]);
      const std::size_t p = g.order[next];
      const std::uint64_t* prow = &g.res[p * nw];
      for (std::size_t r = 0; r < nrows; ++r) {
        std::uint64_t* row = &g.res[r * nw];
        if (r == p || (row[w] & bit) == 0) continue;
        for (std::size_t x = w; x < nw; ++x) row[x] ^= prow[x];
        for (std::size_t x = 0; x < cw; ++x) g.comb[r * cw + x] ^= g.comb[p * cw + x];
        g.parity[r] = static_cast<std::uint8_t>(g.parity[r] ^ g.parity[p]);
      }
      ++next;
    }
  }

  bool enqueued = false;
  for (std::size_t i = 0; i < nrows; ++i) {
    const std::size_t r = g.order[i];
    const std::uint64_t* res = &g.res[r * nw];
    int ones = 0;
    std::size_t col = 0;
    for (std::size_t w = 0; w < nw && ones < 2; ++w) {
      if (res[w] == 0) continue;
      ones += std::popcount(res[w]);
      col = w * 64 + static_cast<std::size_t>(std::countr_zero(res[w]));
    }
    if (ones == 0) {
      if (g.parity[r] == 0) continue;
      // The combined constraint is violated by assigned variables only.
      g.conflict.clear();
      gauss_false_literals(&g.comb[r * cw], SIZE_MAX, g.conflict);
      conflict = Reason::gauss();
      return true;
    }
    if (ones == 1) {
      // The combination is saved; its clause is built only if analysis
      // asks for this literal's reason.
      std::copy_n(&g.comb[r * cw], cw, &g.reason[col * cw]);
      unchecked_enqueue(Lit(g.cols[col], /*negated=*/g.parity[r] == 0),
                        Reason::gauss());
      ++stats_.xor_propagations;
      enqueued = true;
    }
  }
  if (!enqueued) g.quiet = true;
  return enqueued;
}

// Returns true if the constraint stays in `assigned`'s watch list, false if
// the watch moved elsewhere. Sets `conflict` on parity violation.
bool Solver::propagate_xor(XorConstraint& x, Var assigned, Reason& conflict) {
  std::size_t* my_watch;
  if (x.vars[x.w0] == assigned) {
    my_watch = &x.w0;
  } else if (x.vars[x.w1] == assigned) {
    my_watch = &x.w1;
  } else {
    return false;  // stale entry: constraint no longer watches this variable
  }

  // Try to find an unassigned, unwatched variable to take over the watch.
  // The circular search pointer avoids rescanning the (assigned) prefix on
  // every call, keeping a full pass amortized linear.
  const std::size_t other = (my_watch == &x.w0) ? x.w1 : x.w0;
  const std::size_t n = x.vars.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t j = (x.search_pos + step) % n;
    if (j == x.w0 || j == x.w1) continue;
    if (value(x.vars[j]) == LBool::Undef) {
      *my_watch = j;
      x.search_pos = (j + 1) % n;
      xor_watch_[static_cast<std::size_t>(x.vars[j])].push_back(&x);
      return false;
    }
  }

  // All variables except possibly vars[other] are assigned.
  bool parity = x.rhs;
  for (std::size_t j = 0; j < x.vars.size(); ++j) {
    if (j == other) continue;
    assert(value(x.vars[j]) != LBool::Undef);
    if (value(x.vars[j]) == LBool::True) parity = !parity;
  }
  const LBool other_val = value(x.vars[other]);
  if (other_val == LBool::Undef) {
    // Unit: vars[other] must take the residual parity.
    ++stats_.xor_propagations;
    unchecked_enqueue(Lit(x.vars[other], /*negated=*/!parity), Reason::xor_c(&x));
    return true;
  }
  if ((other_val == LBool::True) != parity) {
    conflict = Reason::xor_c(&x);
  }
  return true;
}

void Solver::cancel_until(int lvl) {
  if (decision_level() <= lvl) return;
  const std::size_t bound = trail_lim_[static_cast<std::size_t>(lvl)];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const Var v = trail_[i].var();
    const auto vi = static_cast<std::size_t>(v);
    if (opts_.phase_saving) polarity_[vi] = !trail_[i].negated();
    assigns_[vi] = LBool::Undef;
    lit_assigns_[static_cast<std::size_t>(trail_[i].code())] = LBool::Undef;
    lit_assigns_[static_cast<std::size_t>((~trail_[i]).code())] = LBool::Undef;
    vardata_[vi].reason = {};
    order_.insert(v, activity_);
    const std::int32_t col = gauss_.col_of[vi];
    if (col >= 0) {
      const std::uint64_t keep = ~(std::uint64_t{1} << (col & 63));
      gauss_.assigned[static_cast<std::size_t>(col >> 6)] &= keep;
      gauss_.values[static_cast<std::size_t>(col >> 6)] &= keep;
      ++gauss_.unassigned;
      gauss_.quiet = false;
    }
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<std::size_t>(lvl));
  qhead_ = trail_.size();
}

Lit Solver::pick_branch_lit() {
  while (!order_.empty()) {
    // Peek-and-pop until an unassigned variable surfaces.
    Var v = order_.pop(activity_);
    if (value(v) == LBool::Undef) {
      ++stats_.decisions;
      return Lit(v, /*negated=*/!polarity_[static_cast<std::size_t>(v)]);
    }
  }
  return lit_undef;
}

void Solver::reason_literals(Lit p, Reason r, std::vector<Lit>& out) const {
  out.clear();
  switch (r.kind) {
    case Reason::Kind::Gauss: {
      const std::int32_t col = gauss_.col_of[static_cast<std::size_t>(p.var())];
      assert(col >= 0);
      const auto c = static_cast<std::size_t>(col);
      out.push_back(p);
      gauss_false_literals(&gauss_.reason[c * gauss_.comb_words], c, out);
      return;
    }
    case Reason::Kind::Clause: {
      out.push_back(p);
      const std::size_t n = arena_.size(r.cref);
      for (std::size_t i = 0; i < n; ++i) {
        const Lit l = arena_.lit(r.cref, i);
        if (l != p) out.push_back(l);
      }
      return;
    }
    case Reason::Kind::Binary:
      out.push_back(p);
      out.push_back(r.other);
      return;
    case Reason::Kind::Xor:
      // Materialize the implication clause of an XOR propagation: p is
      // implied by the conjunction of the other variables' assignments.
      out.push_back(p);
      for (Var v : r.xr->vars) {
        if (v == p.var()) continue;
        assert(value(v) != LBool::Undef);
        out.push_back(Lit(v, /*negated=*/value(v) == LBool::True));  // false literal
      }
      return;
    case Reason::Kind::None:
      assert(false && "reason_literals on a decision");
      return;
  }
}

void Solver::conflict_literals(Reason r, std::vector<Lit>& out) const {
  out.clear();
  switch (r.kind) {
    case Reason::Kind::Gauss:
      out = gauss_.conflict;
      return;
    case Reason::Kind::Clause: {
      const std::size_t n = arena_.size(r.cref);
      for (std::size_t i = 0; i < n; ++i) out.push_back(arena_.lit(r.cref, i));
      return;
    }
    case Reason::Kind::Binary:
      out.push_back(bin_conflict_[0]);
      out.push_back(bin_conflict_[1]);
      return;
    case Reason::Kind::Xor:
      for (Var v : r.xr->vars) {
        assert(value(v) != LBool::Undef);
        out.push_back(Lit(v, /*negated=*/value(v) == LBool::True));  // all false
      }
      return;
    case Reason::Kind::None:
      assert(false && "conflict_literals on an empty reason");
      return;
  }
}

void Solver::bump_var(Var v) {
  const auto vi = static_cast<std::size_t>(v);
  activity_[vi] += var_inc_;
  if (activity_[vi] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_.increased(v, activity_);
}

void Solver::decay_var_activity() { var_inc_ /= opts_.var_decay; }

void Solver::bump_clause(ClauseRef c) {
  const float a = arena_.activity(c) + static_cast<float>(cla_inc_);
  arena_.set_activity(c, a);
  if (a > 1e20f) {
    for (ClauseRef l : learnts_) {
      arena_.set_activity(l, arena_.activity(l) * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

void Solver::decay_clause_activity() { cla_inc_ /= opts_.clause_decay; }

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& lits) {
  ++lbd_stamp_;
  std::uint32_t lbd = 0;
  for (Lit l : lits) {
    const auto lv = static_cast<std::size_t>(level(l.var()));
    if (lv == 0) continue;
    if (lbd_seen_.size() <= lv) lbd_seen_.resize(lv + 1, 0);
    if (lbd_seen_[lv] != lbd_stamp_) {
      lbd_seen_[lv] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

int Solver::analyze(Reason conflict, std::vector<Lit>& learnt) {
  learnt.clear();
  learnt.push_back(lit_undef);  // slot for the asserting literal

  int counter = 0;
  Lit p = lit_undef;
  std::size_t index = trail_.size();

  conflict_literals(conflict, reason_buf_);
  if (conflict.kind == Reason::Kind::Clause && arena_.learnt(conflict.cref)) {
    bump_clause(conflict.cref);
  }

  while (true) {
    for (Lit q : reason_buf_) {
      if (p != lit_undef && q == p) continue;
      const auto qv = static_cast<std::size_t>(q.var());
      if (!seen_[qv] && level(q.var()) > 0) {
        seen_[qv] = 1;
        to_clear_.push_back(q.var());
        bump_var(q.var());
        if (level(q.var()) >= decision_level()) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Select the next literal of the current level to resolve on.
    while (!seen_[static_cast<std::size_t>(trail_[index - 1].var())]) --index;
    p = trail_[--index];
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --counter;
    if (counter == 0) break;
    const Reason r = vardata_[static_cast<std::size_t>(p.var())].reason;
    assert(!r.none());
    if (r.kind == Reason::Kind::Clause && arena_.learnt(r.cref)) {
      bump_clause(r.cref);
    }
    reason_literals(p, r, reason_buf_);
  }
  learnt[0] = ~p;

  // Conflict-clause minimization (single-step self-subsumption: a literal is
  // redundant if its reason's literals are all already in the clause or at
  // level 0).
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (!literal_redundant(learnt[i])) {
      learnt[kept++] = learnt[i];
    } else {
      ++stats_.minimized_literals;
    }
  }
  learnt.resize(kept);

  // Compute the backtrack level and put a literal of that level at slot 1.
  int bt = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level(learnt[i].var()) > level(learnt[max_i].var())) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    bt = level(learnt[1].var());
  }

  // Clear every flag set during this analysis, including those of literals
  // dropped by minimization.
  for (Var v : to_clear_) seen_[static_cast<std::size_t>(v)] = 0;
  to_clear_.clear();
  return bt;
}

bool Solver::literal_redundant(Lit l) {
  const Reason r = vardata_[static_cast<std::size_t>(l.var())].reason;
  if (r.none()) return false;
  std::vector<Lit>& rl = redundant_buf_;
  reason_literals(~l, r, rl);
  for (std::size_t i = 1; i < rl.size(); ++i) {
    const Lit q = rl[i];
    if (level(q.var()) == 0) continue;
    if (!seen_[static_cast<std::size_t>(q.var())]) return false;
  }
  return true;
}

bool Solver::locked(ClauseRef c) const {
  const Lit first = arena_.lit(c, 0);
  if (value(first) != LBool::True) return false;
  const Reason r = vardata_[static_cast<std::size_t>(first.var())].reason;
  return r.kind == Reason::Kind::Clause && r.cref == c;
}

// --------------------------------------------- database maintenance -----

void Solver::remove_clause(ClauseRef c) {
  detach_clause(c);
  proof_del_ref(c);
  auto erase_from = [c](std::vector<ClauseRef>& db) {
    // Recent clauses are removed most often: search from the back.
    auto it = std::find(db.rbegin(), db.rend(), c);
    if (it == db.rend()) return false;
    db.erase(std::next(it).base());
    return true;
  };
  if (!erase_from(learnts_)) {
    const bool found = erase_from(clauses_);
    assert(found);
    (void)found;
  }
  arena_.free_clause(c);
}

void Solver::reduce_db() {
  ++num_reduces_;
  // Sort learnt clauses: keep low-LBD / high-activity ones.
  std::vector<ClauseRef> sorted = learnts_;
  std::sort(sorted.begin(), sorted.end(), [this](ClauseRef a, ClauseRef b) {
    if (arena_.lbd(a) != arena_.lbd(b)) return arena_.lbd(a) > arena_.lbd(b);
    return arena_.activity(a) < arena_.activity(b);
  });

  const std::size_t target = sorted.size() / 2;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < target; ++i) {
    const ClauseRef c = sorted[i];
    if (arena_.lbd(c) <= 2 || locked(c)) continue;
    detach_clause(c);
    proof_del_ref(c);
    arena_.free_clause(c);
    ++removed;
  }
  if (removed != 0) {
    stats_.removed_clauses += static_cast<std::int64_t>(removed);
    learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                  [this](ClauseRef c) { return arena_.dead(c); }),
                   learnts_.end());
  }
  maybe_gc();
}

void Solver::try_subsume_conflict(Reason conflict, const std::vector<Lit>& learnt) {
  // On-the-fly backward subsumption: when the freshly learnt clause is a
  // strict subset of the arena clause the conflict arose in, that clause is
  // redundant from now on — every assignment the long clause rejects the
  // short one rejects earlier. Binary and constraint conflicts are skipped
  // (binaries are already minimal; XOR/Gauss conflicts have no stored
  // clause to delete).
  if (conflict.kind != Reason::Kind::Clause) return;
  const ClauseRef c = conflict.cref;
  const std::size_t n = arena_.size(c);
  if (learnt.size() >= n || learnt.empty()) return;
  if (learnt.size() * n > 512) return;  // cap the quadratic membership scan
  if (locked(c)) return;
  for (const Lit l : learnt) {
    const auto code = static_cast<std::uint32_t>(l.code());
    const std::uint32_t* lits = arena_.lits(c);
    bool found = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (lits[i] == code) {
        found = true;
        break;
      }
    }
    if (!found) return;
  }
  if (!arena_.learnt(c)) {
    // The subsumed clause is irredundant, so its constraint now rests on
    // the subsuming learnt clause alone — which must therefore stop being
    // eligible for reduce_db() deletion, or the constraint is silently
    // lost (an AllSAT blocking clause would readmit its model). Promote
    // the learnt clause into the problem database. A unit learnt needs no
    // promotion: it is a permanent root-level assignment.
    if (learnt.size() == 2) {
      auto promote_side = [this](Lit from, Lit other) {
        for (BinWatcher& w : bin_watches_[static_cast<std::size_t>((~from).code())]) {
          if (w.other == other && w.learnt != 0) {
            w.learnt = 0;
            return;
          }
        }
        assert(false && "subsuming learnt binary not found in watch list");
      };
      promote_side(learnt[0], learnt[1]);
      promote_side(learnt[1], learnt[0]);
      --num_bin_learnt_;
      ++num_bin_problem_;
    } else if (learnt.size() >= 3) {
      const ClauseRef lc = learnts_.back();  // attached just before this call
      assert(arena_.size(lc) == learnt.size() && !arena_.dead(lc));
      arena_.promote(lc);
      learnts_.pop_back();
      clauses_.push_back(lc);
    }
  }
  // The learnt clause was proof_add'ed before this call, so deleting the
  // subsumed clause keeps the DRAT stream checkable (add before delete).
  remove_clause(c);
  ++stats_.subsumed_clauses;
}

void Solver::vivify_round(std::int64_t budget) {
  // Root-level clause vivification (distillation): for each stored clause
  // C = (l1 ∨ ... ∨ ln), assume the negation of its literals one at a time
  // (with C itself detached) and unit-propagate.
  //  * some li propagates to true  → the prefix ¬l1..¬l(i-1) implies li:
  //    C shrinks to (l1..li);
  //  * some li propagates to false → li is redundant in C (resolving C with
  //    the propagation reasons yields C \ {li}): drop it;
  //  * propagation conflicts       → the prefix alone is contradictory:
  //    C shrinks to (l1..li).
  // Every shrink is a RUP consequence of the remaining database, so the
  // DRAT stream records add(new) before del(old). The round is bounded by
  // `budget` propagations and resumes round-robin at vivify_head_.
  assert(decision_level() == 0);
  if (clauses_.empty()) return;
  const std::int64_t start_props = stats_.propagations;
  std::size_t visited = 0;
  const std::size_t total = clauses_.size();
  if (vivify_head_ >= clauses_.size()) vivify_head_ = 0;

  std::vector<Lit> work;
  std::vector<Lit> kept;
  while (visited < total && ok_ &&
         stats_.propagations - start_props < budget) {
    ++visited;
    if (vivify_head_ >= clauses_.size()) vivify_head_ = 0;
    const std::size_t idx = vivify_head_;
    const ClauseRef c = clauses_[idx];
    if (locked(c)) {
      ++vivify_head_;
      continue;
    }

    // Earlier units of this round may have touched the clause at level 0:
    // a true literal means the whole clause is satisfied ballast, false
    // literals fall away for free.
    work.clear();
    bool satisfied = false;
    const std::size_t n = arena_.size(c);
    for (std::size_t i = 0; i < n && !satisfied; ++i) {
      const Lit l = arena_.lit(c, i);
      if (value(l) == LBool::True) satisfied = true;
      if (value(l) == LBool::Undef) work.push_back(l);
    }
    if (satisfied) {
      remove_clause(c);
      ++stats_.removed_clauses;
      continue;  // clauses_[idx] now holds the next clause
    }

    detach_clause(c);
    kept.clear();
    bool conflicted = false;
    for (const Lit l : work) {
      const LBool v = value(l);
      if (v == LBool::True) {
        kept.push_back(l);  // prefix implies l: truncate here
        break;
      }
      if (v == LBool::False) continue;  // prefix refutes l: drop it
      kept.push_back(l);
      trail_lim_.push_back(trail_.size());
      unchecked_enqueue(~l, {});
      if (!propagate().none()) {
        conflicted = true;  // prefix is contradictory: truncate here
        break;
      }
    }
    cancel_until(0);
    (void)conflicted;

    if (kept.size() == work.size() && work.size() == n) {
      attach_clause(c);  // nothing learned; literals are still level-0 free
      ++vivify_head_;
      continue;
    }

    stats_.vivified_literals += static_cast<std::int64_t>(n - kept.size());
    proof_add(kept);
    proof_del_ref(c);
    assert(!kept.empty());
    if (kept.size() == 1) {
      clauses_.erase(clauses_.begin() + static_cast<std::ptrdiff_t>(idx));
      arena_.free_clause(c);
      if (value(kept[0]) == LBool::Undef) {
        unchecked_enqueue(kept[0], {});
        ok_ = propagate().none();
      } else if (value(kept[0]) == LBool::False) {
        ok_ = false;
      }
      if (!ok_) proof_empty();
    } else if (kept.size() == 2) {
      clauses_.erase(clauses_.begin() + static_cast<std::ptrdiff_t>(idx));
      arena_.free_clause(c);
      attach_binary(kept[0], kept[1], /*learnt=*/false);
    } else {
      const ClauseRef nc = arena_.alloc(kept, /*learnt=*/false);
      clauses_[idx] = nc;
      arena_.free_clause(c);
      attach_clause(nc);
      ++vivify_head_;
    }
  }
}

bool Solver::simplify() {
  assert(decision_level() == 0);
  if (!ok_) return false;
  auto satisfied = [this](ClauseRef c) {
    const std::size_t n = arena_.size(c);
    for (std::size_t i = 0; i < n; ++i) {
      if (value(arena_.lit(c, i)) == LBool::True) return true;
    }
    return false;
  };
  auto sweep = [&](std::vector<ClauseRef>& db) {
    std::size_t removed = 0;
    for (const ClauseRef c : db) {
      if (satisfied(c) && !locked(c)) {
        detach_clause(c);
        proof_del_ref(c);
        arena_.free_clause(c);
        ++removed;
      }
    }
    if (removed != 0) {
      db.erase(std::remove_if(db.begin(), db.end(),
                              [this](ClauseRef c) { return arena_.dead(c); }),
               db.end());
    }
    return removed;
  };
  stats_.removed_clauses += static_cast<std::int64_t>(sweep(learnts_) + sweep(clauses_));

  // Sweep the binary implication lists: a binary clause {a, b} is level-0
  // satisfied ballast once either literal is fixed true. Each clause
  // appears in two lists; the proof deletion and the counter decrement are
  // emitted from its canonical side only.
  for (std::size_t code = 0; code < bin_watches_.size(); ++code) {
    auto& bl = bin_watches_[code];
    if (bl.empty()) continue;
    const Lit a = ~Lit::from_code(static_cast<std::int32_t>(code));
    const LBool va = value(a);
    std::size_t keep = 0;
    for (const BinWatcher& w : bl) {
      if (va != LBool::True && value(w.other) != LBool::True) {
        bl[keep++] = w;
        continue;
      }
      if (a.code() < w.other.code()) {  // canonical side
        proof_del({a, w.other});
        if (w.learnt != 0) {
          --num_bin_learnt_;
        } else {
          --num_bin_problem_;
        }
        ++stats_.removed_clauses;
      }
    }
    bl.resize(keep);
  }

  if (opts_.vivify && ok_) vivify_round(opts_.vivify_budget);
  maybe_gc();
  if (audit_ != nullptr) audit_->checkpoint(*this, AuditPoint::PostSimplify);
  return ok_;
}

void Solver::subsume_round(std::int64_t budget) {
  // Backward subsumption between solves: a stored problem clause C
  // subsumes every other stored clause D ⊇ C (problem or learnt), which
  // can then be deleted — any assignment D rejects, C rejects no later.
  // Deletions only, so the DRAT stream needs nothing but the del ops.
  // Bounded by `budget` literal visits; occurrence lists are rebuilt per
  // round (the solver keeps none between solves).
  assert(decision_level() == 0);
  if (clauses_.empty()) return;
  std::int64_t work = budget;

  // lit code -> refs of clauses containing it (problem + learnt).
  std::vector<std::vector<ClauseRef>> occ(2 * static_cast<std::size_t>(num_vars()));
  auto index_db = [&](const std::vector<ClauseRef>& db) {
    for (const ClauseRef c : db) {
      const std::size_t n = arena_.size(c);
      work -= static_cast<std::int64_t>(n);
      for (std::size_t i = 0; i < n; ++i) {
        occ[static_cast<std::size_t>(arena_.lit(c, i).code())].push_back(c);
      }
    }
  };
  index_db(clauses_);
  index_db(learnts_);
  if (work <= 0) return;

  std::vector<unsigned char> marked(2 * static_cast<std::size_t>(num_vars()), 0);
  std::size_t removed = 0;
  for (const ClauseRef c : clauses_) {
    if (work <= 0) break;
    if (arena_.dead(c) || locked(c)) continue;
    const std::size_t n = arena_.size(c);

    // Scan the occurrence list of c's least-occurring literal: every
    // superset of c must appear there.
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const auto code = static_cast<std::size_t>(arena_.lit(c, i).code());
      if (occ[code].size() <
          occ[static_cast<std::size_t>(arena_.lit(c, best).code())].size()) {
        best = i;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      marked[static_cast<std::size_t>(arena_.lit(c, i).code())] = 1;
    }
    for (const ClauseRef d :
         occ[static_cast<std::size_t>(arena_.lit(c, best).code())]) {
      if (d == c || arena_.dead(d) || locked(d)) continue;
      const std::size_t dn = arena_.size(d);
      if (dn < n) continue;
      if (dn == n && d < c) continue;  // duplicate pair: delete once
      work -= static_cast<std::int64_t>(dn);
      std::size_t hits = 0;
      for (std::size_t i = 0; i < dn; ++i) {
        hits += marked[static_cast<std::size_t>(arena_.lit(d, i).code())];
      }
      if (hits == n) {
        detach_clause(d);
        proof_del_ref(d);
        arena_.free_clause(d);
        ++removed;
      }
      if (work <= 0) break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      marked[static_cast<std::size_t>(arena_.lit(c, i).code())] = 0;
    }
  }
  if (removed != 0) {
    auto drop_dead = [this](std::vector<ClauseRef>& db) {
      db.erase(std::remove_if(db.begin(), db.end(),
                              [this](ClauseRef c) { return arena_.dead(c); }),
               db.end());
    };
    drop_dead(clauses_);
    drop_dead(learnts_);
    stats_.removed_clauses += static_cast<std::int64_t>(removed);
    stats_.subsumed_clauses += static_cast<std::int64_t>(removed);
  }
}

void Solver::probe_round(std::int64_t budget) {
  // Root-level failed-literal probing: assume each unfixed literal in
  // turn and unit-propagate; a conflict makes the negation a root unit
  // (RUP against the database that just refuted it, so the DRAT add goes
  // out before the unit is enqueued). Bounded by `budget` propagations,
  // resuming round-robin at probe_head_ like vivify_round.
  assert(decision_level() == 0);
  const auto n = static_cast<std::size_t>(num_vars());
  if (n == 0) return;
  const std::int64_t start_props = stats_.propagations;
  if (probe_head_ >= n) probe_head_ = 0;
  std::size_t visited = 0;
  while (visited < n && ok_ && stats_.propagations - start_props < budget) {
    const Var v = static_cast<Var>(probe_head_);
    probe_head_ = (probe_head_ + 1) % n;
    ++visited;
    for (int sign = 0; sign < 2 && ok_; ++sign) {
      const Lit l(v, sign == 1);
      if (value(l) != LBool::Undef) break;  // fixed (possibly just now)
      trail_lim_.push_back(trail_.size());
      unchecked_enqueue(l, {});
      const bool conflicted = !propagate().none();
      cancel_until(0);
      if (!conflicted) continue;
      proof_add({~l});
      unchecked_enqueue(~l, {});
      if (!propagate().none()) {
        ok_ = false;
        proof_empty();
      }
    }
  }
}

bool Solver::inprocess() {
  assert(decision_level() == 0);
  if (!simplify()) return false;  // satisfied sweep + vivification + GC
  const std::int64_t budget = opts_.inprocess_budget;
  if (budget <= 0) return ok_;
  subsume_round(budget);
  if (ok_) probe_round(budget);
  maybe_gc();
  ++stats_.inprocess_rounds;
  static obs::Counter& rounds_m =
      obs::MetricsRegistry::global().counter("solver.inprocess.rounds");
  rounds_m.add(1);
  return ok_;
}

std::size_t Solver::retained_bytes() const {
  // Live arena bytes plus the binaries, which live in the implication
  // lists (two watcher entries per binary clause) rather than the arena.
  return arena_.bytes_live() +
         (num_bin_problem_ + num_bin_learnt_) * 2 * sizeof(BinWatcher);
}

void Solver::maybe_gc() {
  if (arena_.want_gc()) garbage_collect();
}

void Solver::garbage_collect() {
  // Mark-and-compact: move every live clause into a fresh buffer, then
  // rewrite all outstanding references. gc_move is idempotent, so the
  // database lists, the watcher lists and the trail reasons can each be
  // walked independently. Locked clauses are never freed, so every reason
  // ref on the trail is live by construction.
  arena_.gc_begin();
  for (ClauseRef& c : clauses_) c = arena_.gc_move(c);
  for (ClauseRef& c : learnts_) c = arena_.gc_move(c);
  for (auto& wl : watches_) {
    for (Watcher& w : wl) w.cref = arena_.gc_move(w.cref);
  }
  for (const Lit l : trail_) {
    Reason& r = vardata_[static_cast<std::size_t>(l.var())].reason;
    if (r.kind == Reason::Kind::Clause) r.cref = arena_.gc_move(r.cref);
  }
  const std::size_t reclaimed = arena_.gc_end();
  ++stats_.arena_gc_runs;
  stats_.arena_bytes_reclaimed += static_cast<std::int64_t>(reclaimed);
}

// ------------------------------------------------------------- search ----

Status Solver::search(const SolveLimits& limits, std::int64_t conflict_budget,
                      std::int64_t conflicts_at_start) {
  const auto start = Clock::now();
  std::int64_t conflicts_here = 0;

  while (true) {
    if (limits.interrupt != nullptr &&
        limits.interrupt->load(std::memory_order_relaxed)) {
      cancel_until(0);
      return Status::Unknown;
    }
    Reason conflict = propagate();
    if (audit_ != nullptr && conflict.none()) {
      audit_->checkpoint(*this, AuditPoint::PostPropagate);
    }
    if (!conflict.none()) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (opts_.tracer != nullptr && (stats_.conflicts & 4095) == 0) {
        opts_.tracer->event(
            "solver.progress",
            {{"conflicts", stats_.conflicts},
             {"decisions", stats_.decisions},
             {"propagations", stats_.propagations},
             {"learnts", static_cast<std::uint64_t>(num_learnts())},
             {"trail", static_cast<std::uint64_t>(trail_.size())}});
      }
      if (decision_level() == 0) {
        proof_empty();
        return Status::Unsat;
      }

      // The gated Gauss engine can detect a conflict whose literals were
      // all assigned below the current decision level (the violated row
      // combination existed earlier but the elimination only ran now).
      // 1UIP analysis needs a current-level literal to resolve on, so hop
      // down to the conflict's own level first. Clause, binary and watched-
      // XOR conflicts always surface while propagating a current-level
      // literal that appears in them, so only Gauss conflicts pay the
      // materialization and level scan.
      if (conflict.kind == Reason::Kind::Gauss) {
        int max_level = 0;
        for (Lit q : gauss_.conflict) max_level = std::max(max_level, level(q.var()));
        if (max_level == 0) {
          proof_empty();  // unreachable in proof mode (Gauss is excluded)
          return Status::Unsat;
        }
        if (max_level < decision_level()) cancel_until(max_level);
      }

      std::vector<Lit>& learnt = learnt_buf_;
      const int bt = analyze(conflict, learnt);
      cancel_until(bt);
      // The 1UIP clause (minimization included) is derived by resolution
      // over stored clauses and materialized XOR implications, all of which
      // were logged as axioms or earlier additions — so it is RUP here.
      proof_add(learnt);

      if (learnt.size() == 1) {
        unchecked_enqueue(learnt[0], {});
      } else if (learnt.size() == 2) {
        attach_binary(learnt[0], learnt[1], /*learnt=*/true);
        unchecked_enqueue(learnt[0], Reason::binary(learnt[1]));
        ++stats_.learnt_clauses;
      } else {
        const ClauseRef c = arena_.alloc(learnt, /*learnt=*/true);
        arena_.set_lbd(c, compute_lbd(learnt));
        bump_clause(c);
        attach_clause(c);
        unchecked_enqueue(learnt[0], Reason::clause(c));
        learnts_.push_back(c);
        ++stats_.learnt_clauses;
      }
      if (audit_ != nullptr) audit_->checkpoint(*this, AuditPoint::PostBacktrack);
      // Subsumption deletes the conflict clause only *after* the checkpoint:
      // the learnt-RUP audit replays the learnt clause against the database
      // as it was when the clause was derived.
      try_subsume_conflict(conflict, learnt);
      decay_var_activity();
      decay_clause_activity();

      if ((stats_.conflicts & 1023) == 0 && limits.max_seconds > 0) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (elapsed > limits.max_seconds) return Status::Unknown;
      }
      if (limits.max_conflicts >= 0 &&
          stats_.conflicts - conflicts_at_start >= limits.max_conflicts) {
        return Status::Unknown;
      }
      if (conflict_budget >= 0 && conflicts_here >= conflict_budget) {
        cancel_until(0);
        return Status::Unknown;  // restart
      }
      if (static_cast<std::int64_t>(num_learnts()) >= next_reduce_) {
        next_reduce_ += opts_.reduce_increment;
        reduce_db();
      }
    } else {
      Lit next = lit_undef;
      // Re-assert pending assumptions as pseudo-decisions.
      while (decision_level() < static_cast<int>(assumptions_.size())) {
        const Lit a = assumptions_[static_cast<std::size_t>(decision_level())];
        if (value(a) == LBool::True) {
          trail_lim_.push_back(trail_.size());  // dummy level, already holds
        } else if (value(a) == LBool::False) {
          analyze_final(~a);
          assumption_conflict_ = true;
          // The failure clause resolves only stored constraints (the
          // assumptions enter as decisions, never as resolution inputs),
          // so it is RUP against the database alone. A certifier of the
          // conditional UNSAT appends the assumptions as unit clauses and
          // then derives the empty clause by unit propagation.
          proof_add(final_conflict_);
          return Status::Unsat;
        } else {
          next = a;
          break;
        }
      }
      if (next == lit_undef) next = pick_branch_lit();
      if (next == lit_undef) {
        // All variables assigned: model found.
        model_.assign(assigns_.begin(), assigns_.end());
        return Status::Sat;
      }
      trail_lim_.push_back(trail_.size());
      unchecked_enqueue(next, {});
    }
  }
}

void Solver::analyze_final(Lit p) {
  final_conflict_.clear();
  final_conflict_.push_back(p);
  if (decision_level() == 0) return;

  seen_[static_cast<std::size_t>(p.var())] = 1;
  for (std::size_t i = trail_.size(); i-- > trail_lim_[0];) {
    const Var v = trail_[i].var();
    const auto vi = static_cast<std::size_t>(v);
    if (!seen_[vi]) continue;
    const Reason r = vardata_[vi].reason;
    if (r.none()) {
      // A decision: under assumption solving every decision below the
      // assumption prefix is an assumption.
      final_conflict_.push_back(~trail_[i]);
    } else {
      reason_literals(trail_[i], r, reason_buf_);
      for (std::size_t j = 1; j < reason_buf_.size(); ++j) {
        const Lit q = reason_buf_[j];
        if (level(q.var()) > 0) seen_[static_cast<std::size_t>(q.var())] = 1;
      }
    }
    seen_[vi] = 0;
  }
  seen_[static_cast<std::size_t>(p.var())] = 0;
}

Status Solver::solve_assuming(const std::vector<Lit>& assumptions,
                              const SolveLimits& limits) {
  assumptions_ = assumptions;
  const Status st = solve(limits);
  assumptions_.clear();
  return st;
}

Status Solver::solve(const SolveLimits& limits) {
  if (!pending_assumptions_.empty()) {
    // assume() queue (IPASIR idiom): consume it as a one-shot assumption
    // set. solve_assuming re-enters solve() with the queue empty.
    std::vector<Lit> assumed;
    assumed.swap(pending_assumptions_);
    return solve_assuming(assumed, limits);
  }
  static obs::Counter& solves = obs::MetricsRegistry::global().counter("solver.solves");
  static obs::Counter& conflicts = obs::MetricsRegistry::global().counter("solver.conflicts");
  static obs::Counter& decisions = obs::MetricsRegistry::global().counter("solver.decisions");
  static obs::Counter& propagations =
      obs::MetricsRegistry::global().counter("solver.propagations");
  static obs::Counter& xor_props =
      obs::MetricsRegistry::global().counter("solver.xor_propagations");
  static obs::Counter& restarts_m = obs::MetricsRegistry::global().counter("solver.restarts");
  static obs::Counter& gc_runs_m =
      obs::MetricsRegistry::global().counter("solver.arena_gc_runs");
  static obs::Counter& gc_bytes_m =
      obs::MetricsRegistry::global().counter("solver.arena_bytes_reclaimed");
  static obs::Gauge& arena_live_m =
      obs::MetricsRegistry::global().gauge("solver.arena_bytes_live");
  static obs::Timing& solve_time =
      obs::MetricsRegistry::global().timing("solver.solve_seconds");

  const SolverStats before = stats_;
  obs::Tracer::Span span;
  if (opts_.tracer != nullptr) {
    span = opts_.tracer->span(
        "solver.solve",
        {{"vars", static_cast<std::int64_t>(num_vars())},
         {"clauses", static_cast<std::uint64_t>(num_clauses())},
         {"xors", static_cast<std::uint64_t>(num_xors())}});
  }
  const auto t0 = Clock::now();
  const Status st = solve_main(limits);
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  stats_.solve_seconds += seconds;

  solves.add(1);
  conflicts.add(stats_.conflicts - before.conflicts);
  decisions.add(stats_.decisions - before.decisions);
  propagations.add(stats_.propagations - before.propagations);
  xor_props.add(stats_.xor_propagations - before.xor_propagations);
  restarts_m.add(stats_.restarts - before.restarts);
  gc_runs_m.add(stats_.arena_gc_runs - before.arena_gc_runs);
  gc_bytes_m.add(stats_.arena_bytes_reclaimed - before.arena_bytes_reclaimed);
  arena_live_m.set(static_cast<std::int64_t>(arena_.bytes_live()));
  solve_time.observe(seconds);

  if (span.active()) {
    span.add("status", std::string(to_string(st)));
    span.add("conflicts", stats_.conflicts - before.conflicts);
    span.add("decisions", stats_.decisions - before.decisions);
    span.add("propagations", stats_.propagations - before.propagations);
    span.add("restarts", stats_.restarts - before.restarts);
    span.add("props_per_sec",
             seconds > 0.0
                 ? static_cast<double>(stats_.propagations - before.propagations) / seconds
                 : 0.0);
    span.add("arena_bytes_live", static_cast<std::uint64_t>(arena_.bytes_live()));
    span.add("arena_gc_runs", stats_.arena_gc_runs - before.arena_gc_runs);
    span.add("arena_bytes_reclaimed",
             stats_.arena_bytes_reclaimed - before.arena_bytes_reclaimed);
    span.finish();
  }
  return st;
}

Status Solver::solve_main(const SolveLimits& limits) {
  if (!ok_) return Status::Unsat;
  assumption_conflict_ = false;
  final_conflict_.clear();
  cancel_until(0);
  if (!propagate().none()) {
    ok_ = false;
    proof_empty();
    return Status::Unsat;
  }

  const auto start = Clock::now();
  const std::int64_t conflicts_at_start = stats_.conflicts;
  int restarts = 0;
  while (true) {
    SolveLimits inner = limits;
    if (limits.max_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      inner.max_seconds = limits.max_seconds - elapsed;
      if (inner.max_seconds <= 0) return Status::Unknown;
    }
    const auto budget =
        static_cast<std::int64_t>(luby(2.0, restarts) * opts_.restart_base);
    const Status st = search(inner, budget, conflicts_at_start);
    if (st == Status::Sat) {
      cancel_until(0);
      return st;
    }
    if (st == Status::Unsat) {
      cancel_until(0);
      if (!assumption_conflict_) ok_ = false;  // unconditional unsatisfiability
      return st;
    }
    // Unknown: either a real limit, an interrupt, or a restart.
    if (limits.interrupt != nullptr &&
        limits.interrupt->load(std::memory_order_relaxed)) {
      cancel_until(0);
      return Status::Unknown;
    }
    if (limits.max_conflicts >= 0 &&
        stats_.conflicts - conflicts_at_start >= limits.max_conflicts) {
      cancel_until(0);
      return Status::Unknown;
    }
    if (limits.max_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (elapsed > limits.max_seconds) {
        cancel_until(0);
        return Status::Unknown;
      }
    }
    ++restarts;
    ++stats_.restarts;
    if (opts_.tracer != nullptr) {
      opts_.tracer->event(
          "solver.restart",
          {{"restart", restarts},
           {"conflicts", stats_.conflicts - conflicts_at_start},
           {"learnts", static_cast<std::uint64_t>(num_learnts())}});
    }
    cancel_until(0);
  }
}

}  // namespace tp::sat
