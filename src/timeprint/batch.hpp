#pragma once
// batch.hpp — the parallel batch reconstruction engine.
//
// Every realistic deployment of the paper's postmortem phase decodes
// *many* (TP, k) log entries — a CAN forensics pass walks a whole trace
// log, a deadline audit checks every window — and each decode is an
// NP-hard SAT query (§4.2). This engine parallelizes on two axes:
//
//  1. reconstruct_all(): independent log entries fan out across a
//     work-stealing thread pool, one SR instance per entry.
//  2. reconstruct_split(): a single hard instance is split
//     cube-and-conquer style — the SR encoding is built once, the solver
//     is clone()d per cube, and each clone enumerates the subspace its
//     cube fixes under assumptions. A cube fixes a prefix of the cycle
//     variables; the plan keeps splitting whichever cube can hold the
//     most k-change signals, C(m − prefix, changes left), on its next
//     cycle, so no cube dominates the preimage. Disjoint cubes partition
//     the model space, so the per-cube enumerations merge without
//     deduplication. The fan-out is the SAT stage of
//     Reconstructor::decode_entry, like every other decode: the F2
//     presolve answers an inconsistent or small-nullity entry before any
//     cube exists, and the pipeline turns the merged models into signals,
//     runs verify_models and counts the entry in the sr.* metrics.
//
// Determinism: results merge by entry index (then per-entry discovery
// order) or by cube index (then per-cube discovery order), never by
// completion order, and the cube plan depends only on (m, k, cube_vars)
// — so the reconstructed signals and final status are identical
// regardless of thread count or scheduling. Only the timing fields
// (seconds_*) vary run to run. Resource limits (max_seconds,
// max_conflicts, an external interrupt) trade this determinism for
// bounded latency, exactly as they do on the single-threaded path.
//
// Incremental mode (ReconstructionOptions::incremental): reconstruct_all
// routes entries through per-worker TemplateReconstructors
// (timeprint/incremental.hpp) — the SR base is encoded once into an
// immutable master template, each worker clones it on first use (cache
// miss) and reuses its warm clone for every further entry it serves
// (cache hit), so learnt clauses, saved phases and activity scores carry
// across the stream. Complete enumerations still yield exactly the fresh
// path's signal *sets*; a warm solver may discover them in a different
// *order*, so with a max_solutions cap the truncated subset can differ
// from the fresh path's and vary with scheduling. reconstruct_split
// ignores the flag (it already encodes once and branches per cube).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "timeprint/reconstruct.hpp"

namespace tp::core {

/// Snapshot passed to the progress callback after each unit of work (one
/// log entry of reconstruct_all, one cube of reconstruct_split) finishes.
struct BatchProgress {
  std::size_t total = 0;           ///< units in this run
  std::size_t completed = 0;       ///< units finished so far (incl. this one)
  std::size_t index = 0;           ///< unit that just finished
  std::uint64_t signals_found = 0; ///< cumulative reconstructed signals
};

/// Observability hook. Invoked from worker threads but serialized by the
/// engine (never concurrently), so the callback itself needs no locking.
/// Keep it cheap: the engine's merge lock is held while it runs.
using ProgressCallback = std::function<void(const BatchProgress&)>;

/// Knobs of one batch run.
struct BatchOptions {
  /// Per-instance reconstruction options (encoding knobs, limits,
  /// max_solutions, cancellation token — see ReconstructionOptions).
  ReconstructionOptions recon;
  /// Worker threads (0 = std::thread::hardware_concurrency).
  std::size_t num_threads = 0;
  /// Plan size of reconstruct_split(): the search splits into up to 2^g
  /// cubes, balanced by how many k-change signals each can hold (fewer
  /// only when every cube is down to a single completion). 0 = auto (6).
  /// Kept independent of num_threads so the cube plan — and therefore
  /// the merged result — does not change with the degree of parallelism.
  std::size_t cube_vars = 0;
  /// Incremental mode only: bound on the summed retained clause-storage
  /// bytes (SolverInterface::retained_bytes) of the idle per-worker
  /// template cache. When returning a template would push the cache over
  /// the bound, the least-recently-used idle templates are evicted (their
  /// learnt clauses and heuristic state are dropped; the next worker
  /// re-clones the master). 0 = unbounded. Surfaced through the
  /// "incremental.template_evictions" counter and the
  /// "incremental.template_cache_bytes" gauge.
  std::size_t template_cache_bytes = std::size_t{64} << 20;
  /// Progress hook; see ProgressCallback.
  ProgressCallback on_progress;

  /// Throws std::invalid_argument on inconsistent knobs (delegates to
  /// ReconstructionOptions::validate, bounds cube_vars).
  void validate() const;
};

/// Outcome of a reconstruct_all() run.
struct BatchResult {
  /// One result per input entry, in input order.
  std::vector<ReconstructionResult> results;
  /// Solver effort aggregated over every worker.
  sat::SolverStats stats;
  /// Wall-clock seconds for the whole batch.
  double seconds_total = 0.0;
  /// Worker threads used.
  std::size_t threads_used = 0;

  /// Total signals reconstructed across the batch.
  std::uint64_t signals_total() const;
  /// True iff every entry's enumeration ran to completion.
  bool complete() const;
};

/// Decodes batches of log entries in parallel against one timestamp
/// encoding. The unified front end to the paper's reconstruction: same
/// encoding path as Reconstructor (which it embeds), plus the fan-out,
/// splitting, cancellation and aggregation machinery.
class BatchReconstructor {
 public:
  /// The encoding must outlive the reconstructor.
  explicit BatchReconstructor(const TimestampEncoding& encoding) : rec_(encoding) {}

  /// Register a known (verified) property for every query; must outlive
  /// the reconstructor.
  void add_property(const Property& property) { rec_.add_property(property); }

  /// The embedded single-instance reconstructor (shared encoding and
  /// properties).
  const Reconstructor& reconstructor() const { return rec_; }

  /// Decode every entry of an aggregated log, one SR instance per entry,
  /// fanned out across the pool. Results keep input order. With
  /// options.recon.incremental, entries are served by warm per-worker
  /// template solvers instead of fresh per-entry solvers (see the file
  /// comment's determinism caveat).
  BatchResult reconstruct_all(const std::vector<LogEntry>& entries,
                              const BatchOptions& options = {}) const;

  /// Decode one hard instance through Reconstructor's pipeline, with
  /// cube-and-conquer as its SAT stage: encode once, clone the solver per
  /// cube, enumerate each cube's subspace under assumptions in parallel,
  /// largest cube first. A cooperative cancellation token stops
  /// in-flight cubes as soon as the cubes *preceding* them (in plan order)
  /// already supply max_solutions models — later cubes can then no longer
  /// contribute to the truncated, deterministic output. seconds_to_each
  /// counts from the start of the split (of its SAT stage, when cubes
  /// run), not of each cube.
  ReconstructionResult reconstruct_split(const LogEntry& entry,
                                         const BatchOptions& options = {}) const;

 private:
  Reconstructor rec_;
};

}  // namespace tp::core
