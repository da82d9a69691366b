#pragma once
// incremental.hpp — the incremental (encode-once) reconstruction engine.
//
// The paper's workload is streaming: one decoder serves thousands of
// back-to-back trace-cycle log entries that share the same timestamp
// matrix A, properties and m, and differ only in (TP, k). The fresh-solver
// path (Reconstructor::reconstruct) re-encodes all b XOR rows plus an
// O(m·k) cardinality circuit per entry and throws away every learnt
// clause, saved phase and activity score. TemplateReconstructor instead
// encodes the base once and turns each entry into *assumption literals*
// — the MiniSat/CryptoMiniSat incremental-SAT idiom — via three tricks:
//
//  1. *Selector-variable RHS.* Every XOR row j is extended by a fresh
//     selector variable s_j and encoded with constant RHS 0:
//     (Σ_{i : A_ji = 1} x_i) ⊕ s_j = 0, i.e. the row's parity *equals*
//     s_j. Assuming s_j = TP_j per entry sets the row's right-hand side
//     without touching the clause database, so a new timeprint is just b
//     assumption literals.
//  2. *Totalizer under assumptions.* One shared Bailleux–Boufkhad
//     totalizer is built to k_max; its unary outputs o[j] ("at least j+1
//     inputs true", both implication directions encoded) turn |x| = k
//     into the two assumptions o[k-1] and ~o[k], so k varies per entry
//     with no re-encoding. (The Sinz counter hard-codes its bound, which
//     is why the template path always uses the totalizer.)
//  3. *Guard-literal retirement.* AllSAT blocking clauses carry a
//     per-entry guard literal (AllSatOptions::guard); after the entry's
//     enumeration the guard is permanently falsified, which satisfies all
//     of its blocking clauses at level 0. The next entry starts from a
//     clean model space but keeps the solver's learnt clauses, phases and
//     activities — blocking clauses only ever contain the guard
//     *negatively*, so no learnt clause can be poisoned by a retired
//     entry. Solver::simplify() then sweeps the root-satisfied ballast
//     out of the databases, keeping per-entry cost flat over arbitrarily
//     long streams.
//
// The engine is exact: for every entry it returns the same signal set as
// the fresh path (differentially tested in tests/test_incremental.cpp).
// Discovery *order* within an entry may differ — warm-started heuristic
// state steers the search — so with a max_solutions cap the two paths may
// truncate to different subsets of the preimage.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sat/interface.hpp"
#include "timeprint/reconstruct.hpp"

namespace tp::core {

/// Encode-once, solve-per-entry reconstruction against one timestamp
/// encoding. Not thread-safe: clone() one instance per worker (the batch
/// engine's per-worker template cache does exactly that).
class TemplateReconstructor {
 public:
  /// Build the template for `encoding` with the given known properties
  /// (all must outlive the reconstructor) under `options`. `k_max` bounds
  /// the change counts the shared totalizer can express (0 = m, the safe
  /// default); an entry with k > k_max forces a template rebuild, so pass
  /// the stream's true maximum when it is known and small.
  TemplateReconstructor(const TimestampEncoding& encoding,
                        std::vector<const Property*> properties,
                        const ReconstructionOptions& options,
                        std::size_t k_max = 0);

  /// Template over a Reconstructor's encoding and registered properties,
  /// sharing its F2 factorization.
  TemplateReconstructor(const Reconstructor& reconstructor,
                        const ReconstructionOptions& options,
                        std::size_t k_max = 0);

  /// Decode one entry: assume the selector/totalizer literals for
  /// (TP, k), enumerate under a fresh guard, retire the guard. Returns
  /// the same fields as Reconstructor::reconstruct; `stats` is this
  /// entry's solver-effort delta. Throws std::invalid_argument on a
  /// timeprint of the wrong width.
  ReconstructionResult reconstruct(const LogEntry& entry);

  /// Independent copy with the same encoded base *and* the accumulated
  /// warm state (learnt clauses, phases, activities). Statistics start at
  /// zero in the clone.
  std::unique_ptr<TemplateReconstructor> clone() const;

  /// Largest change count the current template expresses via assumptions.
  std::size_t k_max() const { return k_max_; }

  /// Lifetime counters of this template instance.
  struct Stats {
    std::int64_t entries = 0;   ///< reconstruct() calls served
    std::int64_t builds = 0;    ///< base encodes, incl. the initial one
    /// Learnt clauses alive at entry start, summed over entries after the
    /// first — the clause capital the fresh path would have discarded.
    std::int64_t learnt_retained = 0;
    /// Budgeted inprocess() rounds run by the schedule (every
    /// SolverConfig::inprocess_interval entries and at rebuild edges).
    std::int64_t inprocess_rounds = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Approximate retained clause-storage bytes of the underlying solver —
  /// the quantity the batch engine's template cache bounds with LRU
  /// eviction.
  std::size_t retained_bytes() const { return solver_->retained_bytes(); }

  /// The encoding this template decodes against.
  const TimestampEncoding& encoding() const { return rec_.encoding(); }

 private:
  TemplateReconstructor(const TemplateReconstructor& other);

  /// (Re)encode the base into a fresh solver.
  void build();

  /// Encoding, properties and the shared F2 factorization (clones share
  /// it too), plus the decode pipeline this engine's SAT stage plugs
  /// into. With options_.presolve (and no proof sink) the base is encoded
  /// over the RREF rows — rank(A) selector XOR rows instead of b, pivot
  /// variables defined over the free columns — and per-entry assumptions
  /// are the *transformed* timeprint bits.
  Reconstructor rec_;
  ReconstructionOptions options_;
  std::size_t k_max_;
  std::unique_ptr<sat::SolverInterface> solver_;
  std::vector<sat::Var> cycle_vars_;
  std::vector<sat::Var> selectors_;   ///< one per XOR row (b, or rank(A))
  std::vector<sat::Lit> card_outs_;   ///< shared totalizer outputs
  bool encode_ok_ = true;
  Stats stats_;
};

}  // namespace tp::core
