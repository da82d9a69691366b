#pragma once
// reconstruct.hpp — the Signal Reconstruction (SR) problem and its
// SAT-based solution.
//
// SR (paper §4.2): given an encoding TS, a timeprint TP and a change count
// k, find all signals S with α̃(S) = (TP, k). In linear-algebra form: all
// x ∈ F2^m with A·x = TP and |x| = k, where A's columns are the
// timestamps. SR is NP-hard (maximum-likelihood decoding, Berlekamp–
// McEliece–van Tilborg 1978).
//
// The SAT encoding introduces one variable per clock cycle; each bit j of
// the linear system becomes one XOR clause over the variables whose
// timestamp has bit j set (negated when TP's bit j is 0); the cardinality
// constraint |x| = k uses Sinz's sequential counter; known temporal
// properties add their clauses to prune the search (paper §5.1.3). Models
// are enumerated with blocking clauses, projected onto the cycle
// variables.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sat/allsat.hpp"
#include "sat/cardinality.hpp"
#include "sat/interface.hpp"
// solver_options() returns the sat::SolverOptions config struct by value,
// and that struct is defined in solver.hpp; no concrete sat::Solver is
// named here.
// tp-lint: allow(solver-interface-only) SolverOptions definition
#include "sat/solver.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/presolve.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/signal.hpp"

namespace tp::core {

/// Knobs of one reconstruction run. Inherits the shared solver knobs from
/// sat::SolverConfig (interface.hpp): use_gauss, gauss_max_unassigned,
/// tracer, proof — the same fields SolverOptions inherits, so
/// solver_options() no longer hand-copies them. use_gauss defaults to
/// *true* here (the paper's path; the raw solver defaults to false).
struct ReconstructionOptions : sat::SolverConfig {
  ReconstructionOptions() { use_gauss = true; }

  /// Cardinality encoding for the |x| = k constraint.
  sat::CardEncoding card_encoding = sat::CardEncoding::SequentialCounter;
  /// true: native XOR constraints (CryptoMiniSat-style, the paper's path);
  /// false: Tseitin-chained CNF (ablation).
  bool native_xor = true;
  /// Which solver backend every engine of this run builds through
  /// make_solver() (fresh decodes, hypothesis checks, templates and joint
  /// spans): one sat::Solver, or a sat::PortfolioSolver racing
  /// `portfolio_members` configurations per solve (PortfolioOptions'
  /// default diversity) with first-wins cancellation and learnt-clause
  /// sharing. The SAT stage of reconstruct_split always stays
  /// single-backend — cube-and-conquer is already the parallel axis there,
  /// and nesting races inside cubes oversubscribes.
  sat::SolverBackend solver_backend = sat::SolverBackend::Single;
  /// Portfolio width (ignored for the single backend).
  std::size_t portfolio_members = 4;
  /// Stop after this many reconstructed signals (paper's .1/.10 columns).
  std::uint64_t max_solutions = UINT64_MAX;
  /// Decode streams through the incremental template engine
  /// (timeprint/incremental.hpp): the SR base is encoded once per worker
  /// and every further entry is just assumption literals, with learnt
  /// clauses, phases and activities warm-started across entries. Consumed
  /// by BatchReconstructor::reconstruct_all (per-worker template cache);
  /// Reconstructor::reconstruct and reconstruct_split keep the
  /// fresh-solver path regardless (the reference oracle). The template
  /// engine always uses the totalizer cardinality internally (the only
  /// encoding whose bound can vary under assumptions); card_encoding
  /// still selects the fresh path's encoding.
  bool incremental = false;
  /// Consult the shared F2 echelon factorization (timeprint/presolve.hpp)
  /// before emitting any CNF: an inconsistent linear system returns a
  /// complete empty preimage without a solver; a system whose nullity is
  /// at most presolve_enum_limit is decoded by direct enumeration of the
  /// affine solution space (no solver either); everything else gets the
  /// substituted encoding — rank(A) XOR definitions (pivot variable =
  /// XOR of free-column variables ⊕ constant) replace the b raw rows,
  /// constant pivots drop out of the solver entirely, enumeration
  /// projects onto the free columns and pivot values are substituted back
  /// into each model. Silently ignored when a DRAT proof sink is
  /// attached: the certified path must derive every verdict inside the
  /// solver, so it keeps the classic encoding. Every query kind of
  /// decode_entry gets it: reconstruct, check_hypothesis (whose negated
  /// hypothesis is one more property) and reconstruct_split, whose SAT
  /// stage keeps the raw rows so that its cubes fix cycle variables.
  /// JointReconstructor does not use it.
  bool presolve = true;
  /// Largest nullity the presolve decodes by direct enumeration
  /// (2^nullity candidates are walked; keep this small).
  std::size_t presolve_enum_limit = 4;
  /// Resource limits for the whole run (including `limits.interrupt`, the
  /// cooperative cancellation token honoured by every solve of the run).
  sat::SolveLimits limits;
  // Inherited from sat::SolverConfig:
  //
  //  * tracer — propagated to the SAT solver and enumeration layers, so a
  //    traced run yields "sr.reconstruct"/"sr.encode" spans wrapping
  //    "allsat.enumerate", "allsat.model" and "solver.*" lines. The
  //    tracer is thread-safe and shared by every worker of a batch run;
  //    it must outlive the run.
  //  * proof — DRAT proof sink (sat/drat.hpp). When attached, the solver
  //    logs every axiom/learnt/deleted clause of the run so an UNSAT or
  //    enumeration-complete answer can be certified by the independent
  //    checker (blocking clauses enter the axiom stream: the final UNSAT
  //    certifies "no models beyond the enumerated ones"). Requires
  //    use_gauss = false (validate() throws otherwise) and serves exactly
  //    one engine instance: the batch engines refuse it (their clones
  //    would interleave one stream); a portfolio routes it to member 0.
  /// Re-validate every enumerated signal (and every hypothesis-check
  /// witness) against A·x = TP, |x| = k and the registered properties
  /// using only f2::Matrix arithmetic (timeprint/verify.hpp), independent
  /// of the SAT encoding. decode_entry runs it for every engine; a check
  /// also re-checks that its witness violates the hypothesis, and
  /// JointReconstructor checks each window's slice against its entry and
  /// each span signal against the span properties. A violation throws
  /// std::logic_error — it means the encoding or solver is wrong, never
  /// the input.
  bool verify_models = false;

  /// Reject inconsistent knob combinations (throws std::invalid_argument):
  /// the Gaussian engine only exists on the native-XOR path, a Gauss gate
  /// without the Gauss engine is dead, and max_solutions == 0 would make
  /// every run vacuously "complete". Called by reconstruct(),
  /// check_hypothesis() and the batch engine before encoding anything.
  void validate() const;

  /// The SolverOptions these knobs induce — since both structs inherit
  /// sat::SolverConfig this is one config-slice assignment, the single
  /// source of truth for every engine that builds a solver for an SR
  /// query (fresh, split and template paths).
  sat::SolverOptions solver_options() const;

  /// Build the selected backend (solver_backend / portfolio_members) over
  /// solver_options() via sat::SolverFactory.
  std::unique_ptr<sat::SolverInterface> make_solver() const;
};

/// Outcome of a reconstruction run.
struct ReconstructionResult {
  /// Reconstructed signals, in discovery order.
  std::vector<Signal> signals;
  /// Unsat => enumeration complete (`signals` is the full preimage).
  sat::Status final_status = sat::Status::Unknown;
  /// Wall-clock seconds until each signal was found.
  std::vector<double> seconds_to_each;
  /// Total wall-clock seconds.
  double seconds_total = 0.0;
  /// Solver effort (aggregated over all workers for a parallel run).
  sat::SolverStats stats;
  /// Encoded problem size.
  int num_vars = 0;
  std::size_t num_clauses = 0;
  std::size_t num_xors = 0;

  /// True iff every signal of the preimage was found.
  bool complete() const { return final_status == sat::Status::Unsat; }
};

/// Verdict of a hypothesis check over all reconstructions.
enum class CheckVerdict {
  HoldsForAll,     ///< every signal explaining (TP, k) satisfies the hypothesis
  ViolatedBySome,  ///< a counterexample reconstruction exists (see witness)
  Unknown,         ///< resource limit hit
};

/// Human-readable verdict name.
const char* to_string(CheckVerdict v);

/// Result of Reconstructor::check_hypothesis.
struct CheckResult {
  CheckVerdict verdict = CheckVerdict::Unknown;
  /// A reconstruction violating the hypothesis, when ViolatedBySome.
  std::optional<Signal> witness;
  double seconds = 0.0;
  /// Solver effort.
  sat::SolverStats stats;
  /// Encoded problem size (same meaning as in ReconstructionResult).
  int num_vars = 0;
  std::size_t num_clauses = 0;
  std::size_t num_xors = 0;
};

/// Solves SR instances against one timestamp encoding, with optional known
/// properties pruning the search space.
class Reconstructor {
 public:
  /// The encoding must outlive the reconstructor. Factors the encoding's
  /// matrix once (f2::Echelonizer via F2Presolve); every query of this
  /// reconstructor shares the factorization.
  explicit Reconstructor(const TimestampEncoding& encoding)
      : enc_(&encoding),
        presolve_(std::make_shared<const F2Presolve>(encoding)) {}

  /// Register a known (verified) property; its clauses are added to every
  /// query. The property must outlive the reconstructor.
  void add_property(const Property& property) { properties_.push_back(&property); }

  /// Currently registered properties.
  const std::vector<const Property*>& properties() const { return properties_; }

  /// Enumerate signals with α̃(S) = entry, subject to the registered
  /// properties. Throws std::invalid_argument on a timeprint of the wrong
  /// width.
  ReconstructionResult reconstruct(const LogEntry& entry,
                                   const ReconstructionOptions& options = {}) const;

  /// Decide whether *every* signal explaining `entry` (under the registered
  /// properties) satisfies `hypothesis`: decodes at most one
  /// counterexample through the same pipeline as reconstruct(), with the
  /// hypothesis' negation as one more property. A complete empty result
  /// proves the hypothesis (the paper's §5.2.1 deadline proof). Throws
  /// std::invalid_argument if the hypothesis cannot provide a negation or
  /// the timeprint has the wrong width.
  CheckResult check_hypothesis(const LogEntry& entry, const Property& hypothesis,
                               const ReconstructionOptions& options = {}) const;

  /// Exhaustive reference reconstruction: enumerate all C(m, k) subsets
  /// (tests and the didactic Figure-4 example only; m must be small).
  static std::vector<Signal> brute_force(const TimestampEncoding& encoding,
                                         const LogEntry& entry,
                                         const std::vector<const Property*>& props = {});

  /// Build solver + cycle variables with the SR encoding over A's raw rows
  /// (constant right-hand side) and the registered properties. Returns
  /// false iff trivially UNSAT; throws std::invalid_argument on a
  /// timeprint of the wrong width. Public so engines that own the
  /// enumeration loop (the batch/cube engine, custom AllSAT drivers) can
  /// encode once and branch the solver per worker. Works against any
  /// SolverInterface backend.
  bool encode_base(sat::SolverInterface& solver, std::vector<sat::Var>& cycle_vars,
                   const LogEntry& entry, const ReconstructionOptions& options) const;

  /// The encoding this reconstructor solves against.
  const TimestampEncoding& encoding() const { return *enc_; }

  /// The shared F2 factorization of the encoding's matrix.
  const F2Presolve& presolve() const { return *presolve_; }

 private:
  // The engines built on a Reconstructor: a template embeds one and runs
  // its own SAT stage through decode_entry; the batch prepass hands
  // decode_fresh the analyses of its bit-sliced sweep, and the split runs
  // its cube fan-out as a SAT stage.
  friend class TemplateReconstructor;
  friend class BatchReconstructor;

  /// What an engine's SAT stage reports back to decode_entry.
  struct SatModels {
    sat::AllSatResult run;
    /// The projection was the presolve's free columns, so each model's
    /// pivot values are substituted back through F2Presolve::expand.
    bool free_cols = false;
  };
  /// An engine's SAT stage: encode or assume the entry, enumerate, and
  /// record the encoded problem size and the solver effort in the result.
  /// It gets the entry's F2 analysis when the presolve ran, else null.
  using SatStage =
      std::function<SatModels(const F2Presolve::Analysis*, ReconstructionResult&)>;

  /// The per-entry pipeline of every engine. It rejects a wrong-width
  /// timeprint, then runs the F2 presolve (with options.presolve and no
  /// proof sink): an inconsistent system is a complete empty preimage,
  /// and a nullity within presolve_enum_limit is decoded by walking the
  /// affine solution space. Everything else goes to `sat_stage`. Models
  /// become Signals and pass verify_models, all inside one
  /// "sr.reconstruct" span (`engine` names the engine when non-null)
  /// counted by the sr.* metrics. `analysis` is the entry's precomputed
  /// F2 analysis, or null to compute it here.
  ReconstructionResult decode_entry(const LogEntry& entry,
                                    const ReconstructionOptions& options,
                                    const SatStage& sat_stage,
                                    const F2Presolve::Analysis* analysis,
                                    const char* engine = nullptr) const;

  /// reconstruct(), optionally given the entry's F2 analysis.
  ReconstructionResult decode_fresh(const LogEntry& entry,
                                    const ReconstructionOptions& options,
                                    const F2Presolve::Analysis* analysis) const;

  const TimestampEncoding* enc_;
  std::shared_ptr<const F2Presolve> presolve_;
  std::vector<const Property*> properties_;
};

}  // namespace tp::core
