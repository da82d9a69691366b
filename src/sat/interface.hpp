#pragma once
// interface.hpp — the abstract solver boundary of the SAT layer.
//
// Everything above src/sat/ (the timeprint engines, the CAN forensics
// encoders, the AllSAT driver) talks to a solver through SolverInterface,
// an IPASIR-flavoured incremental API extended with the two capabilities
// the reconstruction workload cannot live without: native XOR constraints
// and budgeted solves (SolveLimits). Backends implementing it today are
// the in-tree CDCL solver (sat::Solver) and the racing portfolio
// (sat::PortfolioSolver); an external solver would slot in behind the same
// small set of virtuals.
//
// Interface contract (the guarantees every backend must provide):
//
//  * *Incrementality.* add_clause()/add_xor() may be interleaved with
//    solve() calls; after Status::Sat the model is readable until the next
//    mutating call. assume() literals apply to the next solve() only.
//  * *Budget semantics.* solve(limits) returns Status::Unknown when a
//    conflict/time budget is exhausted or `limits.interrupt` is observed
//    set; the solver stays usable. A backend may overshoot a budget by a
//    bounded amount (limits are polled, not preempted).
//  * *Failed assumptions.* After an assumption-Unsat, failed() is a clause
//    over the responsible assumptions (each literal the negation of one).
//  * *Thread-safety.* A SolverInterface instance is single-threaded: no
//    concurrent calls on one instance. clone() produces an independent
//    instance that may be driven from another thread; backends guarantee
//    clones share no mutable state (an attached ProofSink is detached by
//    clone(); an obs::Tracer is shared, which is safe — it locks).
//  * *Proof ownership.* A ProofSink certifies exactly one backend
//    instance's derivation stream. Composite backends (the portfolio)
//    route the sink to exactly one member and only report proof-bearing
//    verdicts from it.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sat/types.hpp"

namespace tp::obs {
class Tracer;
}

namespace tp::sat {

class ProofSink;  // drat.hpp — DRAT proof logging

/// Resource limits for one solve() call. Negative values mean "unlimited".
struct SolveLimits {
  std::int64_t max_conflicts = -1;
  double max_seconds = -1.0;
  /// Cooperative cancellation token: when non-null and set, the solve
  /// returns Status::Unknown at the next conflict or decision. Shared by
  /// every worker of a parallel batch so one worker hitting a global limit
  /// stops the others. The pointee must outlive the solve() call.
  const std::atomic<bool>* interrupt = nullptr;
};

/// Counters accumulated over the lifetime of a solver.
struct SolverStats {
  std::int64_t conflicts = 0;
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t xor_propagations = 0;
  std::int64_t restarts = 0;
  std::int64_t learnt_clauses = 0;
  std::int64_t removed_clauses = 0;
  std::int64_t minimized_literals = 0;
  /// Invocations of the Gaussian elimination engine (propagation fixpoints
  /// at which the gate let the row reduction run).
  std::int64_t gauss_runs = 0;
  /// Literals removed from stored clauses by root-level vivification.
  std::int64_t vivified_literals = 0;
  /// Clauses deleted by on-the-fly backward subsumption (the just-learnt
  /// clause was a strict subset of the conflicting clause).
  std::int64_t subsumed_clauses = 0;
  /// Mark-and-compact collections of the clause arena.
  std::int64_t arena_gc_runs = 0;
  /// Bytes the arena GC gave back across those collections.
  std::int64_t arena_bytes_reclaimed = 0;
  /// Budgeted inprocessing rounds run between solves (inprocess()).
  std::int64_t inprocess_rounds = 0;
  /// Wall-clock seconds spent inside solve() calls (accumulated). For a
  /// portfolio this sums the members' concurrent solve time, so it can
  /// exceed wall-clock time by up to the member count.
  double solve_seconds = 0.0;

  /// Propagation throughput over the accumulated solve time — the headline
  /// rate bench_solver tracks against BENCH_solver.json. 0 before any solve.
  double propagations_per_sec() const {
    return solve_seconds > 0.0
               ? static_cast<double>(propagations) / solve_seconds
               : 0.0;
  }

  /// Element-wise accumulation (aggregating per-worker solvers of a batch).
  SolverStats& operator+=(const SolverStats& o);
  /// Element-wise difference (one solve's effort against a snapshot of
  /// the cumulative counters taken before it).
  SolverStats& operator-=(const SolverStats& o);
};

/// The solver knobs shared by every layer that configures a solver —
/// SolverOptions (sat/solver.hpp) and ReconstructionOptions
/// (timeprint/reconstruct.hpp) inherit it, AllSatOptions adopts it via
/// with_config(); previously each struct carried hand-copied duplicates of
/// these fields.
struct SolverConfig {
  /// Route XOR constraints through the Gaussian-elimination engine instead
  /// of watched-variable propagation. At every propagation fixpoint the
  /// whole XOR system is row-reduced under the current assignment, so
  /// implications of *linear combinations* of rows are found — the
  /// CryptoMiniSat capability the paper's reconstruction times rely on.
  bool use_gauss = false;
  /// Gate for the Gaussian engine: skip the (relatively costly) elimination
  /// while more than this many of its variables are unassigned — a row
  /// combination can only become unit near the endgame anyway. 0 = auto
  /// (4·rows + 32); SIZE_MAX = always run.
  std::size_t gauss_max_unassigned = 0;
  /// Event tracer (obs/trace.hpp), or null for no tracing. Thread-safe and
  /// shared by clone()s; must outlive the solver.
  obs::Tracer* tracer = nullptr;
  /// DRAT proof sink (drat.hpp), or null for no proof logging. Serves
  /// exactly one solver instance (clone() detaches it from the copy) and
  /// must outlive the solver. Incompatible with use_gauss.
  ProofSink* proof = nullptr;
  /// Work budget of one inprocess() round — root-level vivification,
  /// backward subsumption and failed-literal probing between solves —
  /// counted in clause-literal visits / propagations per phase. 0
  /// disables inprocessing entirely (inprocess() degrades to simplify()).
  /// Long-running incremental consumers (TemplateReconstructor) call
  /// inprocess() on the schedule below; one-shot solves never pay for it.
  std::int64_t inprocess_budget = 100'000;
  /// Template-engine schedule: run an inprocess() round every this many
  /// served entries (and at every template rebuild edge). 0 = rebuild
  /// edges only.
  std::uint32_t inprocess_interval = 32;
};

/// Abstract incremental SAT solver with native XOR support. See the file
/// comment for the interface contract.
class SolverInterface {
 public:
  virtual ~SolverInterface();

  // --- building the formula (level 0 only) ---

  /// Create a fresh variable and return it.
  virtual Var new_var() = 0;

  /// Number of variables created so far.
  virtual int num_vars() const = 0;

  /// Add a disjunctive clause. Returns false iff the solver became
  /// trivially unsatisfiable.
  virtual bool add_clause(std::vector<Lit> lits) = 0;

  /// Add an XOR constraint (parity of `vars` equals rhs). Returns false
  /// iff trivially unsatisfiable.
  virtual bool add_xor(std::vector<Var> vars, bool rhs) = 0;

  // --- solving ---

  /// Queue an assumption literal for the next solve() call only (IPASIR
  /// idiom). Cleared when that solve returns.
  virtual void assume(Lit l) = 0;

  /// Run the search under the queued assumptions. Sat/Unsat, or Unknown
  /// when a limit was hit or `limits.interrupt` observed set.
  virtual Status solve(const SolveLimits& limits = {}) = 0;

  /// After Status::Sat: the model value of a variable (never Undef).
  virtual LBool model(Var v) const = 0;

  /// After an assumption-Unsat: clause over the failed assumptions (each
  /// literal is the negation of a responsible assumption).
  virtual const std::vector<Lit>& failed() const = 0;

  /// False once the clause database is known unsatisfiable.
  virtual bool okay() const = 0;

  /// Value of a variable fixed at decision level 0, or Undef.
  virtual LBool fixed_value(Var v) const = 0;

  /// Root-level database simplification between solves. Returns okay().
  virtual bool simplify() = 0;

  /// Budgeted root-level inprocessing between solves: simplify() plus a
  /// bounded round of backward subsumption and failed-literal probing
  /// (SolverConfig::inprocess_budget work units; budget 0 degrades to
  /// plain simplify()). DRAT-correct: derived facts are emitted as adds
  /// before any enabled deletion. Returns okay(). Default forwards to
  /// simplify().
  virtual bool inprocess();

  // --- introspection ---

  /// Approximate bytes of retained clause storage (problem + learnt) —
  /// the quantity the batch template cache bounds with LRU eviction.
  /// Default: a coarse heuristic over num_clauses()/num_learnts().
  virtual std::size_t retained_bytes() const;

  /// Lifetime statistics (aggregated over members for composite backends).
  virtual SolverStats stats() const = 0;

  /// Problem clauses currently held (binaries included).
  virtual std::size_t num_clauses() const = 0;

  /// XOR constraints currently held.
  virtual std::size_t num_xors() const = 0;

  /// Learnt clauses currently held (binaries included).
  virtual std::size_t num_learnts() const = 0;

  // --- wiring ---

  /// Attach (or detach, with null) an event tracer. The tracer is
  /// thread-safe; it may be shared across backends and clones.
  virtual void set_tracer(obs::Tracer* tracer) = 0;

  /// Independent deep copy at decision level 0 — no mutable state is
  /// shared with the original (a ProofSink does NOT travel; a Tracer
  /// does, by design). The branching point for cube-and-conquer workers
  /// and template caches.
  virtual std::unique_ptr<SolverInterface> clone() const = 0;

  // --- non-virtual conveniences over the primitives ---

  /// Solve under assumptions: the given literals are fixed for this call
  /// only. Unsat means "unsatisfiable together with the assumptions";
  /// failed() then holds the responsible subset, negated, as a clause.
  Status solve_assuming(const std::vector<Lit>& assumptions,
                        const SolveLimits& limits = {});

  /// After Status::Sat: the model value of a variable / literal.
  LBool model_value(Var v) const { return model(v); }
  LBool model_value(Lit l) const {
    const LBool v = model(l.var());
    return l.negated() ? ~v : v;
  }
};

/// Which backend a SolverFactory builds.
enum class SolverBackend {
  Single,     ///< one sat::Solver
  Portfolio,  ///< sat::PortfolioSolver racing N diverse members
};

/// Human-readable backend name ("single" / "portfolio").
const char* to_string(SolverBackend backend);

/// How PortfolioSolver diversifies its members (member 0 always runs the
/// caller's base configuration unchanged, so a 1-member portfolio degrades
/// to the single backend plus scheduling overhead).
enum class PortfolioDiversity {
  /// Rotate through everything below — the default.
  Mixed,
  /// Alternate the Gaussian engine on/off and vary its gate; the
  /// watched-XOR members chunk their rows, the Gauss members do not, so
  /// the two halves explore structurally different encodings.
  GaussSplit,
  /// Keep the XOR path fixed and vary branching/restart behaviour
  /// (restart_base, var_decay, default_polarity, phase_saving).
  Heuristics,
};

/// Knobs of a portfolio backend.
struct PortfolioOptions {
  /// Racing members (clamped to at least 1).
  std::size_t members = 4;
  PortfolioDiversity diversity = PortfolioDiversity::Mixed;
  /// Learnt-clause sharing after each race: up to share_max_clauses of the
  /// winner's freshest learnts with LBD <= share_max_lbd are imported by
  /// every loser. 0 clauses disables sharing. Sharing is disabled in proof
  /// mode regardless (foreign clauses are not RUP in a member's stream).
  std::uint32_t share_max_lbd = 2;
  std::size_t share_max_clauses = 64;
  /// Worker threads of the portfolio's own pool (0 = one per member).
  std::size_t num_threads = 0;
};

/// Builds solver backends from a base configuration.
class SolverFactory {
 public:
  /// One sat::Solver with the given options.
  static std::unique_ptr<SolverInterface> make(const struct SolverOptions& base);

  /// The requested backend; `portfolio` is consulted only for
  /// SolverBackend::Portfolio.
  static std::unique_ptr<SolverInterface> make(
      SolverBackend backend, const struct SolverOptions& base,
      const PortfolioOptions& portfolio = {});
};

}  // namespace tp::sat
