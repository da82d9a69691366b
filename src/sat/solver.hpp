#pragma once
// solver.hpp — a CDCL SAT solver with native XOR-constraint propagation.
//
// The solver is a from-scratch reimplementation of the algorithmic core the
// paper relies on (CryptoMiniSat [21]): conflict-driven clause learning with
// two-watched-literal propagation, 1UIP conflict analysis with clause
// minimization, EVSIDS branching, phase saving, Luby restarts and LBD-based
// learnt-clause database reduction — plus *native XOR constraints*
// propagated with a watched-variable scheme. XOR constraints are exactly
// what the timeprint reconstruction needs: each bit j of A·x = TP is one
// XOR clause over the signal variables (paper §4.2).
//
// Clause storage is a flat ClauseArena (arena.hpp): clauses are addressed
// by 32-bit ClauseRef offsets into one contiguous buffer, watchers carry a
// blocking literal next to the ref, and binary clauses skip the arena
// entirely — they live in per-literal implication lists, so propagating
// them touches no clause memory at all. A mark-and-compact GC run from
// reduce_db()/simplify() keeps the arena dense. simplify() additionally
// runs lightweight inprocessing: root-level clause vivification, paired
// with on-the-fly backward subsumption during conflict analysis; both emit
// the DRAT add/delete ops that keep proofs checkable.
//
// With use_gauss, XOR constraints bypass the watched engine and become rows
// of a Gauss–Jordan engine run at every propagation fixpoint. The rows are
// packed once per addition batch as flat ⌈columns/64⌉-word masks. A
// variable → column index lets unchecked_enqueue() and cancel_until() keep
// the columns' assigned/value bitmaps and unassigned count current, so the
// gate (gauss_max_unassigned) costs O(1). An admitted call returns at once
// when no column changed since a call that implied nothing (same
// assignment, same answer); otherwise it eliminates on reused scratch
// words over the columns some residual row still holds, in column order.
// An implied literal saves only its row combination; reason_literals()
// builds the clause from it when analysis asks. stats().gauss_runs counts
// the fixpoints the gate admits, quiet returns included.
//
// Usage:
//   Solver s;
//   Var a = s.new_var(), b = s.new_var();
//   s.add_clause({mk_lit(a), ~mk_lit(b)});
//   s.add_xor({a, b}, true);            // a XOR b = 1
//   Status st = s.solve();
//   if (st == Status::Sat) { ... s.model_value(a) ... }
//
// The solver is incremental in the AllSAT sense: after a Sat answer you may
// add further (e.g. blocking) clauses and call solve() again.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "sat/arena.hpp"
#include "sat/interface.hpp"
#include "sat/types.hpp"

namespace tp::sat {

class Auditor;     // audit.hpp — debug invariant auditor

/// An XOR constraint: the parity of the variables' values must equal rhs.
/// Propagated with two watched *variables* (an XOR constraint can only
/// become unit/conflicting once all but one of its variables are assigned).
struct XorConstraint {
  std::vector<Var> vars;  ///< distinct variables
  bool rhs = false;       ///< required parity
  std::size_t w0 = 0;     ///< index into vars of the first watched variable
  std::size_t w1 = 1;     ///< index into vars of the second watched variable
  std::size_t search_pos = 0;  ///< circular scan start for watch replacement
};

/// Tunable solver parameters (defaults follow MiniSat-era folklore). The
/// cross-layer knobs — Gauss engine, Gauss gate, tracer, proof sink — live
/// in the inherited sat::SolverConfig (interface.hpp), shared verbatim with
/// ReconstructionOptions; only the CDCL-specific tunables are declared
/// here. SolveLimits and SolverStats also moved to interface.hpp (they are
/// part of the abstract solver contract) and are re-exported unchanged.
struct SolverOptions : SolverConfig {
  double var_decay = 0.95;        ///< EVSIDS decay per conflict
  double clause_decay = 0.999;    ///< learnt-clause activity decay
  int restart_base = 100;         ///< conflicts per Luby unit
  int reduce_base = 4000;         ///< learnt clauses before first reduction
  int reduce_increment = 1000;    ///< growth of the reduction threshold
  bool phase_saving = true;       ///< remember last polarity per variable
  bool default_polarity = false;  ///< polarity used before any saving
  /// Root-level clause vivification inside simplify(): each stored clause
  /// is re-derived under assumed negations of its own literals, dropping
  /// literals (or the whole clause) that unit propagation proves
  /// redundant. Bounded by vivify_budget propagations per simplify() call,
  /// resuming round-robin where the previous call stopped.
  bool vivify = true;
  std::int64_t vivify_budget = 50000;
  /// XOR constraints longer than this are split into a chain of short XORs
  /// linked by fresh auxiliary parity variables (0 disables splitting).
  /// Short XORs keep watched-variable propagation and reason clauses cheap;
  /// without splitting, an m-variable reconstruction instance has XOR rows
  /// of ~m/2 variables and propagation dominates the runtime.
  std::size_t xor_chunk_size = 10;
  // Inherited from SolverConfig (see interface.hpp for full semantics):
  //
  //  * use_gauss / gauss_max_unassigned — the Gaussian elimination engine
  //    and its endgame gate. When the tracer is attached, every solve()
  //    emits a "solver.solve" span with its stats delta, each restart a
  //    "solver.restart" event, and the search loop emits sampled
  //    "solver.progress" / "solver.gauss" events (every 4096 conflicts /
  //    1024 eliminations, so tracing never dominates the inner loop).
  //  * proof — when attached, every input clause (and the CNF expansion of
  //    every attached XOR constraint) is reported as an axiom, every
  //    learnt clause and assumption-failure clause as an addition, and
  //    every clause dropped by reduce_db()/simplify()/inprocessing as a
  //    deletion, so an UNSAT answer can be certified by an independent
  //    checker. Restrictions: incompatible with use_gauss (the constructor
  //    throws — DRAT cannot express row-combination reasoning), disables
  //    xor_chunk_size splitting (XORs attach whole) and caps XOR arity at
  //    kProofMaxXorArity (add_xor throws above it). The sink serves
  //    exactly one solver — clone() detaches it from the copy.
};

/// Largest XOR arity (after level-0 canonicalization) accepted while proof
/// logging: the axiom stream carries the 2^(n-1)-clause CNF expansion.
inline constexpr std::size_t kProofMaxXorArity = 20;

/// CDCL SAT solver with XOR-constraint support. See file comment.
class Solver : public SolverInterface {
 public:
  Solver();
  explicit Solver(const SolverOptions& options);
  ~Solver() override;

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Deep copy of the solver at decision level 0 (the state between
  /// solve() calls): variables, level-0 assignments, problem and learnt
  /// clauses, XOR constraints (watched and Gaussian, including each
  /// constraint's circular search_pos), activities, phases and watch lists
  /// are all duplicated, so the clone searches exactly as the original
  /// would. The clause arena is copied as one flat buffer — every
  /// ClauseRef stays valid in the copy, so cloning costs a few memcpys
  /// instead of a per-clause heap walk. Statistics start at zero in the
  /// clone. This is the branching point for cube-and-conquer workers:
  /// encode once, clone per cube, solve each clone under its guiding-path
  /// assumptions. An attached ProofSink does not travel (one sink, one
  /// solver); the thread-safe tracer is shared; pending assume() literals
  /// do not carry over.
  std::unique_ptr<Solver> clone_solver() const;

  /// SolverInterface clone — same deep copy, interface-typed.
  std::unique_ptr<SolverInterface> clone() const override {
    return clone_solver();
  }

  /// Create a fresh variable and return it.
  Var new_var() override;

  /// Number of variables created so far.
  int num_vars() const override { return static_cast<int>(assigns_.size()); }

  /// Add a disjunctive clause. Returns false iff the solver became
  /// trivially unsatisfiable (empty clause after level-0 simplification).
  /// Must be called at decision level 0 (which is always the case between
  /// solve() calls).
  bool add_clause(std::vector<Lit> lits) override;

  /// Add an XOR constraint over the given variables with the given parity.
  /// Duplicated variables cancel; variables already fixed at level 0 fold
  /// into the parity. Returns false iff trivially unsatisfiable.
  bool add_xor(std::vector<Var> vars, bool rhs) override;

  /// Queue an assumption for the next solve() call only (IPASIR idiom);
  /// equivalent to collecting the literals and calling solve_assuming.
  void assume(Lit l) override { pending_assumptions_.push_back(l); }

  /// Run the CDCL search. Returns Sat/Unsat, or Unknown when a limit hit.
  Status solve(const SolveLimits& limits = {}) override;

  /// Solve under assumptions: the given literals are fixed for this call
  /// only (decision levels 1..n). Unsat means "unsatisfiable together with
  /// the assumptions" — the solver stays usable and failed()
  /// holds the subset of assumptions responsible (negated, as a clause).
  /// An unconditional Unsat (okay() turns false) can also surface.
  Status solve_assuming(const std::vector<Lit>& assumptions,
                        const SolveLimits& limits = {});

  /// After an assumption-Unsat: clause over the failed assumptions
  /// (each literal is the negation of a responsible assumption).
  const std::vector<Lit>& failed() const override { return final_conflict_; }

  /// After Status::Sat: the model value of a variable (never Undef).
  LBool model(Var v) const override {
    return model_[static_cast<std::size_t>(v)];
  }

  /// After Status::Sat: the model value of a variable / literal.
  LBool model_value(Var v) const { return model_[static_cast<std::size_t>(v)]; }
  LBool model_value(Lit l) const {
    LBool v = model_value(l.var());
    return l.negated() ? ~v : v;
  }

  /// False once the clause database is known unsatisfiable.
  bool okay() const override { return ok_; }

  /// Value of a variable fixed at decision level 0, or Undef.
  LBool fixed_value(Var v) const override;

  /// Lifetime statistics.
  SolverStats stats() const override { return stats_; }

  /// Attach (or detach) the event tracer consulted by solve()/search.
  void set_tracer(obs::Tracer* tracer) override { opts_.tracer = tracer; }

  /// Number of problem (non-learnt) clauses currently held, counting the
  /// binary clauses stored in the implication lists.
  std::size_t num_clauses() const override {
    return clauses_.size() + num_bin_problem_;
  }

  /// Number of XOR constraints currently held (watched + Gaussian rows).
  std::size_t num_xors() const override {
    return xors_.size() + gauss_.raw.size();
  }

  /// Number of learnt clauses currently held (the warm-start capital an
  /// incremental engine carries from one query to the next), counting
  /// learnt binaries.
  std::size_t num_learnts() const override {
    return learnts_.size() + num_bin_learnt_;
  }

  /// Portfolio clause sharing, export side: append up to `max_clauses` of
  /// the freshest learnt arena clauses with LBD <= max_lbd to `out` as
  /// (literals, LBD) pairs, in this solver's literal space. Learnt
  /// binaries are not exported (the implication lists carry no LBD).
  /// Returns the number appended.
  std::size_t export_learnts(
      std::uint32_t max_lbd, std::size_t max_clauses,
      std::vector<std::pair<std::vector<Lit>, std::uint32_t>>& out) const;

  /// Portfolio clause sharing, import side: attach a clause another member
  /// learnt from the *same formula* as a learnt clause here. Level 0 only.
  /// Refused (no-op, returns okay()) while a proof sink is attached — a
  /// foreign clause is not RUP in this solver's own derivation stream.
  /// Returns false iff the import made the solver unsatisfiable.
  bool import_learnt(std::vector<Lit> lits, std::uint32_t lbd);

  /// Bytes of the clause arena occupied by live clauses right now.
  std::size_t arena_bytes_live() const { return arena_.bytes_live(); }

  /// Root-level database simplification (MiniSat's simplify()): remove
  /// clauses satisfied by the level-0 assignment from both the problem and
  /// learnt databases and their watch lists, vivify stored clauses under
  /// the vivify options, and compact the clause arena when enough of it is
  /// dead. The workhorse of guard-literal retirement — once a run's guard
  /// g is fixed false, every blocking or learnt clause containing ¬g is
  /// root-satisfied ballast that would otherwise slow propagation for the
  /// rest of the solver's life. Clauses currently locked as a propagation
  /// reason are kept. Only callable between solves (decision level 0).
  /// Returns okay().
  bool simplify() override;

  /// simplify() plus one budgeted round of heavier root-level
  /// inprocessing (SolverOptions::inprocess_budget work units): backward
  /// subsumption of stored clauses against each other and failed-literal
  /// probing at the root (each failed probe becomes a DRAT-logged unit).
  /// Budget 0 degrades to plain simplify(). Only callable between solves.
  /// Returns okay().
  bool inprocess() override;

  /// Retained clause storage: live arena bytes plus the binary watch
  /// lists (the arena excludes binaries).
  std::size_t retained_bytes() const override;

  /// Attach (or detach, with null) an invariant auditor. The auditor is
  /// consulted at the search-loop checkpoints (post-propagate fixpoint,
  /// post-backtrack, post-simplify); it observes the solver read-only and
  /// throws AuditFailure on an invariant violation. Not owned; must outlive
  /// the solver. One auditor may serve many solvers (its counters are
  /// atomic), but a clone() starts detached. In debug builds (NDEBUG unset)
  /// a process-wide auditor is auto-attached at construction when the
  /// TP_SAT_AUDIT environment variable is set (see Auditor::debug_env).
  void set_auditor(Auditor* auditor) { audit_ = auditor; }
  Auditor* auditor() const { return audit_; }

 private:
  friend class Auditor;  // read-only invariant sweeps over the internals

  /// What implied a literal (or what a conflict arose in). Binary reasons
  /// and conflicts are self-contained — they store the partner literal(s)
  /// directly, so they never dangle across arena GC or implication-list
  /// sweeps.
  struct Reason {
    enum class Kind : std::uint8_t { None, Clause, Binary, Xor, Gauss };
    Kind kind = Kind::None;
    ClauseRef cref = kCRefUndef;   ///< Kind::Clause
    Lit other = lit_undef;         ///< Kind::Binary: the (false) partner
    XorConstraint* xr = nullptr;   ///< Kind::Xor

    bool none() const { return kind == Kind::None; }
    static Reason clause(ClauseRef c) {
      Reason r;
      r.kind = Kind::Clause;
      r.cref = c;
      return r;
    }
    static Reason binary(Lit other) {
      Reason r;
      r.kind = Kind::Binary;
      r.other = other;
      return r;
    }
    static Reason xor_c(XorConstraint* x) {
      Reason r;
      r.kind = Kind::Xor;
      r.xr = x;
      return r;
    }
    static Reason gauss() {
      Reason r;
      r.kind = Kind::Gauss;
      return r;
    }
  };

  /// Watch-list entry for clauses of three or more literals: the clause
  /// ref plus a blocking literal — when the blocker is already true the
  /// visit never touches clause memory.
  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  /// Implication-list entry for binary clauses: for an entry q in
  /// bin_watches_[p.code()], the stored clause is (~p ∨ q) — p becoming
  /// true implies q directly, no arena access.
  struct BinWatcher {
    Lit other;
    std::uint32_t learnt;
  };

  struct VarData {
    Reason reason;
    int level = 0;
  };

  /// Mutable max-heap over variables ordered by EVSIDS activity.
  class VarOrderHeap {
   public:
    void grow(std::size_t n) { positions_.resize(n, -1); }
    bool empty() const { return heap_.empty(); }
    bool contains(Var v) const { return positions_[static_cast<std::size_t>(v)] >= 0; }
    void insert(Var v, const std::vector<double>& act);
    Var pop(const std::vector<double>& act);
    void increased(Var v, const std::vector<double>& act);

   private:
    void sift_up(std::size_t i, const std::vector<double>& act);
    void sift_down(std::size_t i, const std::vector<double>& act);
    std::vector<Var> heap_;
    std::vector<std::int32_t> positions_;
  };

  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  /// Literal values are kept in a code-indexed mirror of assigns_ so the
  /// propagation loop's dominant operation is one load with no sign fixup.
  LBool value(Lit l) const {
    return lit_assigns_[static_cast<std::size_t>(l.code())];
  }
  int level(Var v) const { return vardata_[static_cast<std::size_t>(v)].level; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void unchecked_enqueue(Lit l, Reason reason);
  bool enqueue(Lit l, Reason reason);

  /// Propagate all enqueued assignments. Returns the conflicting constraint
  /// (as a Reason) or an empty Reason when no conflict arose.
  Reason propagate();
  void bcp(Reason& conflict);
  bool propagate_xor(XorConstraint& x, Var assigned, Reason& conflict);
  /// Row-reduce the Gaussian XOR system under the current assignment.
  /// Enqueues implied literals (returns true if any) or sets `conflict`.
  bool gauss_propagate(Reason& conflict);
  /// Pack gauss_.raw into the matrix and rescan the column bitmaps.
  void gauss_rebuild();
  /// The unassigned-column count above which gauss_propagate skips.
  std::size_t gauss_gate() const;
  /// Append, in column order, the false literals of the columns that the
  /// row combination `comb` (a bitset over the rows) holds, except `skip`.
  void gauss_false_literals(const std::uint64_t* comb, std::size_t skip,
                            std::vector<Lit>& out) const;

  void attach_clause(ClauseRef c);
  void detach_clause(ClauseRef c);
  void attach_binary(Lit a, Lit b, bool learnt);
  bool attach_xor(std::vector<Var> vars, bool rhs);

  void cancel_until(int lvl);
  Lit pick_branch_lit();

  /// 1UIP conflict analysis; fills `learnt` (asserting literal first) and
  /// returns the backtrack level.
  int analyze(Reason conflict, std::vector<Lit>& learnt);
  bool literal_redundant(Lit l);
  /// The literals of the constraint that implied `p` (p first). For XOR
  /// reasons the clause is materialized from the current assignment.
  void reason_literals(Lit p, Reason r, std::vector<Lit>& out) const;
  void conflict_literals(Reason r, std::vector<Lit>& out) const;

  void bump_var(Var v);
  void decay_var_activity();
  void bump_clause(ClauseRef c);
  void decay_clause_activity();
  std::uint32_t compute_lbd(const std::vector<Lit>& lits);

  void reduce_db();
  bool locked(ClauseRef c) const;

  /// On-the-fly backward subsumption: after learning `learnt` from a
  /// clause conflict, delete the conflicting clause when the learnt clause
  /// is a strict subset of it (the conflict clause became redundant).
  void try_subsume_conflict(Reason conflict, const std::vector<Lit>& learnt);
  /// Root-level vivification over the problem clauses, resuming at the
  /// round-robin cursor, spending at most `budget` propagations.
  void vivify_round(std::int64_t budget);
  void subsume_round(std::int64_t budget);
  void probe_round(std::int64_t budget);
  /// Detach + proof-delete + free + erase from its database list.
  void remove_clause(ClauseRef c);

  /// Compact the arena when enough of it is dead: moves every live clause,
  /// then rewrites the database lists, the watcher refs and the reasons of
  /// all trail variables.
  void maybe_gc();
  void garbage_collect();

  /// The restart/search driver behind solve(), which wraps it with
  /// observability (span emission and metrics accounting).
  Status solve_main(const SolveLimits& limits);
  Status search(const SolveLimits& limits, std::int64_t conflict_budget,
                std::int64_t conflicts_at_start);
  /// Collect the assumptions responsible for forcing ~p (into
  /// final_conflict_, starting with p itself).
  void analyze_final(Lit p);

  // --- state ---
  SolverOptions opts_;
  bool ok_ = true;

  std::vector<LBool> assigns_;
  std::vector<LBool> lit_assigns_;  ///< indexed by Lit::code, mirrors assigns_
  std::vector<VarData> vardata_;
  std::vector<bool> polarity_;
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;

  ClauseArena arena_;
  std::vector<ClauseRef> clauses_;
  std::vector<ClauseRef> learnts_;
  std::vector<std::unique_ptr<XorConstraint>> xors_;

  std::vector<std::vector<Watcher>> watches_;           // indexed by Lit::code
  std::vector<std::vector<BinWatcher>> bin_watches_;    // indexed by Lit::code
  std::size_t num_bin_problem_ = 0;
  std::size_t num_bin_learnt_ = 0;
  std::array<Lit, 2> bin_conflict_{lit_undef, lit_undef};
  std::vector<std::vector<XorConstraint*>> xor_watch_;  // indexed by Var

  VarOrderHeap order_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;

  std::vector<LBool> model_;
  SolverStats stats_;
  std::vector<Lit> assumptions_;
  std::vector<Lit> pending_assumptions_;  ///< assume() queue for next solve
  std::vector<Lit> final_conflict_;
  bool assumption_conflict_ = false;

  // --- certification hooks (no-ops when opts_.proof / audit_ are null) ---
  Auditor* audit_ = nullptr;
  bool proof_empty_done_ = false;  ///< the empty clause is emitted only once
  void proof_axiom(const std::vector<Lit>& lits);
  void proof_add(const std::vector<Lit>& lits);
  void proof_del(const std::vector<Lit>& lits);
  /// Deletion logged straight from the arena (no vector materialized).
  void proof_del_ref(ClauseRef c);
  /// Record the empty clause: the point where ok_ turns false is always a
  /// level-0 propagation conflict, from which the empty clause is RUP.
  void proof_empty();
  /// Emit the CNF expansion of an attached XOR constraint as axioms.
  void proof_xor_axioms(const std::vector<Var>& vars, bool rhs);

  // scratch buffers for analyze()
  std::vector<char> seen_;
  std::vector<Var> to_clear_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> reason_buf_;
  std::vector<Lit> redundant_buf_;  ///< literal_redundant()'s reason scratch
  std::vector<Lit> learnt_buf_;     ///< search()'s learnt-clause scratch
  std::vector<std::uint32_t> lbd_seen_;
  std::uint32_t lbd_stamp_ = 0;

  std::int64_t next_reduce_ = 0;
  int num_reduces_ = 0;
  std::size_t vivify_head_ = 0;  ///< round-robin cursor over clauses_
  std::size_t probe_head_ = 0;   ///< round-robin cursor over variables

  /// The Gaussian XOR engine's state. Rows are added at decision level 0
  /// only and packed at the first fixpoint after an addition; every packed
  /// row, bitmap and combination is a flat array of 64-bit words.
  struct Gauss {
    std::vector<std::pair<std::vector<Var>, bool>> raw;  ///< rows as added
    bool dirty = false;             ///< raw holds rows the matrix lacks
    std::vector<Var> cols;          ///< column -> variable
    std::vector<std::int32_t> col_of;  ///< variable -> column, or -1
    std::size_t words = 0;          ///< ⌈columns/64⌉: words per row mask
    std::size_t comb_words = 0;     ///< ⌈rows/64⌉: words per combination
    std::vector<std::uint64_t> masks;  ///< rows × words: the row variables
    std::vector<std::uint8_t> rhs;     ///< per row: the required parity
    // The columns' assignment, kept current by unchecked_enqueue and
    // cancel_until, so the gate and the quiet test cost O(1).
    std::vector<std::uint64_t> assigned;  ///< assigned columns
    std::vector<std::uint64_t> values;    ///< assigned columns that are true
    std::size_t unassigned = 0;
    /// No column changed since a call that implied nothing: the next call
    /// would reach the same answer.
    bool quiet = false;
    /// columns × comb_words: the row combination that implied the column's
    /// current value; reason_literals materializes the clause from it.
    std::vector<std::uint64_t> reason;
    std::vector<Lit> conflict;  ///< materialized conflict clause
    // Elimination scratch, reused by every call: residual masks and row
    // combinations per row, residual parities, the logical row order and
    // the union of the residual masks.
    std::vector<std::uint64_t> res;
    std::vector<std::uint64_t> comb;
    std::vector<std::uint8_t> parity;
    std::vector<std::uint32_t> order;
    std::vector<std::uint64_t> live;
  };
  Gauss gauss_;
};

/// The Luby restart sequence value luby(y, i) scaled by y (1-based i).
double luby(double y, int i);

}  // namespace tp::sat
