#pragma once
// sr_encoder.hpp — the linear half of the SR query, written once for every
// reconstruction engine.
//
// The SR query (paper §4.2) is A·x = TP as one XOR row per timeprint bit,
// plus |x| = k. SrEncoder emits A·x = rhs; each engine adds its own
// cardinality constraint and properties on top (Reconstructor: Sinz or
// totalizer bound; TemplateReconstructor: totalizer outputs under
// assumptions; JointReconstructor: one bound per window).

#include <cstddef>
#include <vector>

#include "f2/bitvec.hpp"
#include "sat/interface.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/presolve.hpp"

namespace tp::core {

/// Marks a cycle without a solver variable (see SrRows::cycle_vars).
inline constexpr sat::Var kNoVar = -1;

/// Throws std::invalid_argument unless `tp` is exactly as wide as the
/// encoding's timestamps.
void check_width(const TimestampEncoding& encoding, const f2::BitVec& tp);

/// The variables SrEncoder::encode emitted for A·x = rhs.
struct SrRows {
  /// One variable per cycle. The constant-RHS RREF form leaves kNoVar
  /// where it folded a pivot the rows fix outright into fixed_ones.
  std::vector<sat::Var> cycle_vars;
  /// Selector form only: one variable per emitted row, in row order.
  std::vector<sat::Var> selectors;
  /// Folded pivots fixed to 1: changes already spent against k.
  std::size_t fixed_ones = 0;
  /// False iff a row made the solver trivially unsatisfiable.
  bool ok = true;
};

/// Emits A·x = rhs as native XOR constraints or, without native_xor, as
/// Tseitin-chained CNF.
///
/// Basis. Without a presolve: A's b raw rows over m cycle variables. With
/// one: its rank(A) RREF rows, pivot ⊕ free support = rhs_r, over one
/// variable per free column plus one per pivot; the b - rank(A) dependent
/// rows are the presolve's consistency check and never reach the solver.
///
/// Right-hand side. Constant: the entry's bits, TP on raw rows and T·TP
/// on RREF rows. Selector: each row gets a fresh selector variable s and
/// is encoded as row ⊕ s = 0, so assuming s = bit sets the row's
/// right-hand side per entry without touching the clause database (the
/// template engine). A selector RREF row with empty free support makes
/// the selector itself the pivot's cycle variable.
class SrEncoder {
 public:
  /// `presolve` null selects the raw rows. Both must outlive the encoder.
  SrEncoder(const TimestampEncoding& encoding, const F2Presolve* presolve,
            bool native_xor)
      : enc_(&encoding), presolve_(presolve), native_xor_(native_xor) {}

  /// Emit the rows into `solver`. `rhs` null selects the selector form; a
  /// constant `rhs` on raw rows must be b bits wide (checked). Raw rows
  /// take `rows.cycle_vars` as given when it holds m variables
  /// (JointReconstructor lays its windows out back to back) and create
  /// them otherwise. `keep_all_vars` applies to constant RREF rows only: a
  /// pivot the rows fix outright still gets a unit-fixed variable, because
  /// properties need the full cycle array, instead of being folded into
  /// fixed_ones.
  void encode(sat::SolverInterface& solver, SrRows& rows, const f2::BitVec* rhs,
              bool keep_all_vars = true) const;

 private:
  void add_row(sat::SolverInterface& solver, SrRows& rows, std::vector<sat::Var> vars,
               bool rhs) const;

  const TimestampEncoding* enc_;
  const F2Presolve* presolve_;
  bool native_xor_;
};

}  // namespace tp::core
