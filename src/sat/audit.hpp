#pragma once
// audit.hpp — a debug invariant auditor for the CDCL solver.
//
// The auditor sweeps the solver's internal data structures for the
// invariants the search relies on but never re-checks in the hot path:
//
//  * watch-list integrity — every stored clause is watched exactly once on
//    each of its first two literals, every watcher entry points at a live
//    clause through one of its watch positions, blockers are clause
//    literals, and the global watcher count is exactly twice the clause
//    count (so no stale or duplicated entries survive detach/attach);
//    binary implication lists are checked for symmetric pairing (each
//    binary clause appears once from each side, with matching learnt
//    flags) and against the solver's binary-clause counters;
//  * arena integrity — every database ClauseRef is in range, not dead,
//    at least three literals long and carries the learnt flag of its
//    database, and the live clause words account exactly for the arena
//    occupancy (buffer minus recorded waste), so leaks and double-frees
//    surface at the next checkpoint rather than at the next GC;
//  * XOR watch consistency — each constraint's two watched variables are
//    distinct and in range, both appear in the constraint's watch lists,
//    and every watch-list entry points at a live constraint (stale entries
//    are tolerated — propagate_xor() prunes them lazily — but dangling
//    pointers are not);
//  * trail/level monotonicity — level boundaries are ascending, the
//    propagation head is in range, every trail literal's variable is
//    assigned to the matching value at the level of its trail segment,
//    every assigned variable appears on the trail exactly once, decisions
//    carry no reason, and implied literals carry one;
//  * Gauss engine state (with the trail sweep) — the column bitmaps and
//    unassigned count equal a fresh scan of the assignment, and every
//    Gauss-implied literal above level 0 materializes a reason that starts
//    with the literal, all other literals false and earlier on the trail,
//    whose columns and value parity reduce to zero against the rows as
//    reduced by the scalar f2::reference kernel;
//  * propagation completeness (post-propagate fixpoint only) — no stored
//    clause is fully falsified or unit-unpropagated, no XOR constraint is
//    violated or unit-unpropagated, and, when the gate admitted the
//    fixpoint, no row of the Gauss residual system reduced by the scalar
//    f2::reference kernel is violated or unit; and
//  * learnt-clause RUP redundancy (post-backtrack, opt-in) — the clause
//    just attached by conflict analysis is re-derived by an independent
//    unit-propagation check (sat::DratChecker) against the rest of the
//    database, catching analysis/minimization bugs at their source.
//
// The auditor observes the solver read-only (it is a friend of Solver) and
// throws AuditFailure on the first violation. Attach one explicitly with
// Solver::set_auditor(), or — in debug builds (#ifndef NDEBUG) — set the
// TP_SAT_AUDIT environment variable to auto-attach a process-wide auditor
// to every solver at construction (TP_SAT_AUDIT=<n> with n >= 1 sets the
// checkpoint period, so 1 audits every checkpoint; any other non-empty,
// non-"0" value uses period 64). The sanitizer CI job runs the whole test
// suite that way. Checkpoint hooks in the solver are plain pointer tests,
// compiled in every build type, so an explicitly attached auditor also
// works under NDEBUG.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tp::sat {

class Solver;

/// Thrown by the auditor on the first violated invariant; the message
/// names the checkpoint and the structure that failed.
class AuditFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Where in the search loop a checkpoint fires.
enum class AuditPoint {
  PostPropagate,  ///< propagation reached a fixpoint without conflict
  PostBacktrack,  ///< conflict analyzed, learnt clause attached/enqueued
  PostSimplify,   ///< Solver::simplify() swept the databases
  Manual,         ///< an audit() call from outside the solver
};

const char* to_string(AuditPoint p);

/// Which sweeps run and how often.
struct AuditOptions {
  bool check_watches = true;      ///< clause + binary watch-list integrity
  bool check_arena = true;        ///< clause-arena occupancy/ref integrity
  bool check_xor_watches = true;  ///< XOR watch consistency
  bool check_trail = true;        ///< trail/level monotonicity, Gauss state
  /// Propagation-completeness sweep at PostPropagate checkpoints. O(DB)
  /// per fixpoint, so expensive at period 1 — but it is the check that
  /// catches watch bugs *semantically* (a falsified clause the watches
  /// lost track of), not just structurally.
  bool check_fixpoint = true;
  /// Re-derive the just-learnt clause by independent unit propagation at
  /// PostBacktrack checkpoints. Skipped automatically when the Gaussian
  /// engine is active (its reasons are row combinations no clausal check
  /// can replay) or an XOR constraint is too wide to expand. Off by
  /// default: O(DB²)-ish per conflict.
  bool check_learnt_rup = false;
  /// Arity bound for expanding XOR constraints in the RUP sweep.
  std::size_t rup_max_xor_arity = 16;
  /// Run the sweeps on every period-th checkpoint (1 = every checkpoint).
  std::uint64_t period = 1;
};

/// Read-only invariant sweeper. Thread-safe: one instance may serve many
/// solvers (the counters are atomic and checkpoint() touches only the
/// solver it is handed), which is what the TP_SAT_AUDIT process-wide
/// instance does under the parallel batch tests.
class Auditor {
 public:
  Auditor() = default;
  explicit Auditor(const AuditOptions& options) : opts_(options) {}

  /// Called by the solver at its checkpoint sites. Honors the period;
  /// throws AuditFailure on a violation.
  void checkpoint(const Solver& solver, AuditPoint point);

  /// Run every configured sweep now, ignoring the period. Callable from
  /// tests on any solver at decision level 0 (or from a checkpoint site).
  /// The fixpoint and learnt-RUP sweeps only make sense at their own
  /// checkpoints and are skipped for other points.
  void audit(const Solver& solver, AuditPoint point = AuditPoint::Manual);

  const AuditOptions& options() const { return opts_; }
  std::uint64_t checkpoints_seen() const { return seen_.load(); }
  std::uint64_t audits_run() const { return runs_.load(); }

  /// The process-wide auditor requested via the TP_SAT_AUDIT environment
  /// variable, or null when the variable is unset/empty/"0". Debug-build
  /// solver constructors attach this automatically.
  static Auditor* debug_env();

 private:
  void check_trail(const Solver& s, AuditPoint point) const;
  void check_watches(const Solver& s, AuditPoint point) const;
  void check_arena(const Solver& s, AuditPoint point) const;
  void check_xor_watches(const Solver& s, AuditPoint point) const;
  void check_gauss(const Solver& s, AuditPoint point) const;
  void check_fixpoint(const Solver& s, AuditPoint point) const;
  void check_learnt_rup(const Solver& s, AuditPoint point) const;

  AuditOptions opts_;
  std::atomic<std::uint64_t> seen_{0};
  std::atomic<std::uint64_t> runs_{0};
};

}  // namespace tp::sat
