#pragma once
// cardinality.hpp — CNF encodings of cardinality constraints.
//
// The reconstruction query needs "exactly k of the m signal variables are
// true" (paper §4.2). A naive encoding needs C(m, k+1) + C(m, m-k+1)
// clauses; the paper instead uses Sinz's sequential-counter encoding [20].
// Ours builds one counter of m·k registers for every bound and adds about
// 2·m·k clauses for at-most-k or at-least-k and 4·m·k for exactly-k.
// Bailleux–Boufkhad's totalizer, capped at k+1 outputs, is the ablation
// alternative and the incremental engine's counter: about m·log2(k)
// variables and 2–5·m·k clauses.

#include <cstddef>
#include <vector>

#include "sat/interface.hpp"
#include "sat/types.hpp"

namespace tp::sat {

/// Which CNF cardinality encoding to emit.
enum class CardEncoding {
  SequentialCounter,  ///< Sinz 2005 (the paper's choice, m·k registers)
  Totalizer,          ///< Bailleux–Boufkhad 2003 (O(m·log k) variables, O(m·k) clauses)
};

/// Constrain at most k of `lits` to be true. Returns false iff the solver
/// became unsatisfiable while adding the clauses. A bound of at least
/// lits.size() adds nothing; at-least or exactly a bound above it is UNSAT.
bool encode_at_most(SolverInterface& solver, const std::vector<Lit>& lits, std::size_t k,
                    CardEncoding enc = CardEncoding::SequentialCounter);

/// Constrain at least k of `lits` to be true.
bool encode_at_least(SolverInterface& solver, const std::vector<Lit>& lits, std::size_t k,
                     CardEncoding enc = CardEncoding::SequentialCounter);

/// Constrain exactly k of `lits` to be true.
bool encode_exactly(SolverInterface& solver, const std::vector<Lit>& lits, std::size_t k,
                    CardEncoding enc = CardEncoding::SequentialCounter);

/// Build a totalizer over `lits` and return its unary output literals
/// o[0..cap-1], where o[j] is true iff at least j+1 of the inputs are true
/// (both implication directions are encoded). `cap` bounds the number of
/// outputs built; counts above cap saturate into o[cap-1].
std::vector<Lit> totalizer_outputs(SolverInterface& solver, const std::vector<Lit>& lits,
                                   int cap);

}  // namespace tp::sat
