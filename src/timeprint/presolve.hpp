#pragma once
// presolve.hpp — F2 analysis of SR instances ahead of CNF emission.
//
// Every SR query against one encoding shares the matrix A (paper §4.2):
// A·x = TP, |x| = k. This layer owns one f2::Echelonizer over A and uses
// it three ways before any SAT solver exists:
//
//  * consistency — T·TP having a set bit at a row >= rank(A) proves the
//    linear system (and hence the whole instance) unsatisfiable, so the
//    engines return a complete empty preimage without a solver;
//  * direct decode — when nullity(A) <= presolve_enum_limit the affine
//    solution space particular ⊕ span(nullspace) is small enough to
//    enumerate outright, filtering on |x| = k and the registered
//    properties: the solver is skipped entirely;
//  * substituted encoding — otherwise the reduced rows let SrEncoder
//    (sr_encoder.hpp) emit rank(A) XOR definitions (pivot variable = XOR
//    of free-column variables ⊕ constant) instead of the b raw rows, drop
//    constant-valued pivots from the solver, project enumeration onto the
//    free columns and substitute the pivot values back via expand().
//
// analyze_batch() rides the Echelonizer's bit-sliced transform: 64
// timeprints are consistency-checked/transformed per sweep, which is how
// BatchReconstructor's prepass disposes of Gauss-decidable entries before
// any worker spins up.

#include <cstdint>
#include <vector>

#include "f2/bitvec.hpp"
#include "f2/echelon.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/signal.hpp"

namespace tp::core {

class F2Presolve {
 public:
  /// Factor the encoding's matrix once (the encoding is not retained).
  explicit F2Presolve(const TimestampEncoding& encoding)
      : ech_(encoding.to_matrix()) {}

  const f2::Echelonizer& echelon() const { return ech_; }
  std::size_t nullity() const { return ech_.nullity(); }

  /// Per-timeprint F2 verdict: the transformed RHS T·TP and whether the
  /// linear system is consistent at all.
  struct Analysis {
    bool consistent = false;
    f2::BitVec transformed;  ///< T·TP, width b; bits [0, rank) are the
                             ///< reduced rows' RHS constants.
  };

  Analysis analyze(const f2::BitVec& tp) const;

  /// Bit-sliced analysis of many timeprints (64 per transform sweep).
  std::vector<Analysis> analyze_batch(const std::vector<f2::BitVec>& tps) const;

  /// Substitute a free-column assignment (indexed in free_cols() order)
  /// back into a full m-bit solution:
  /// x = particular(transformed) ⊕ Σ nullspace[j] over set positions j.
  f2::BitVec expand(const Analysis& analysis,
                    const std::vector<bool>& free_assignment) const;

  struct Decoded {
    std::vector<Signal> signals;
    bool truncated = false;  ///< stopped at max_solutions, preimage may be larger
  };

  /// Enumerate the full affine solution space (2^nullity candidates, gray
  /// code — one word-XOR per step) and keep the signals with |x| = k that
  /// satisfy every property. Precondition: analysis.consistent and a
  /// caller-checked nullity small enough to enumerate (< 64).
  Decoded decode_by_enumeration(const Analysis& analysis, std::size_t k,
                                const std::vector<const Property*>& properties,
                                std::uint64_t max_solutions) const;

 private:
  f2::Echelonizer ech_;
};

}  // namespace tp::core
