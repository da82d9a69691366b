#include "timeprint/reconstruct.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "timeprint/sr_encoder.hpp"
#include "timeprint/verify.hpp"

namespace tp::core {

using sat::Lit;
using sat::mk_lit;
using sat::SolverInterface;
using sat::Status;
using sat::Var;

void ReconstructionOptions::validate() const {
  if (use_gauss && !native_xor) {
    throw std::invalid_argument(
        "ReconstructionOptions: use_gauss requires native_xor (the Gaussian "
        "engine operates on native XOR rows, not their CNF translation)");
  }
  if (gauss_max_unassigned != 0 && !use_gauss) {
    throw std::invalid_argument(
        "ReconstructionOptions: gauss_max_unassigned is set but use_gauss is "
        "false");
  }
  if (max_solutions == 0) {
    throw std::invalid_argument(
        "ReconstructionOptions: max_solutions must be at least 1");
  }
  if (proof != nullptr && use_gauss) {
    throw std::invalid_argument(
        "ReconstructionOptions: proof logging is incompatible with use_gauss "
        "(DRAT cannot express Gaussian row-combination reasoning)");
  }
  if (solver_backend == sat::SolverBackend::Portfolio && portfolio_members == 0) {
    throw std::invalid_argument(
        "ReconstructionOptions: a portfolio needs at least one member");
  }
}

sat::SolverOptions ReconstructionOptions::solver_options() const {
  sat::SolverOptions so;
  static_cast<sat::SolverConfig&>(so) = *this;  // the shared knob slice
  return so;
}

std::unique_ptr<sat::SolverInterface> ReconstructionOptions::make_solver() const {
  sat::PortfolioOptions popts;
  popts.members = portfolio_members;
  return sat::SolverFactory::make(solver_backend, solver_options(), popts);
}

const char* to_string(CheckVerdict v) {
  switch (v) {
    case CheckVerdict::HoldsForAll: return "holds-for-all";
    case CheckVerdict::ViolatedBySome: return "violated-by-some";
    case CheckVerdict::Unknown: return "unknown";
  }
  return "?";
}

namespace {

// |x| = k over the cycle variables the rows created, plus the known
// (verified) properties. A pivot the rows folded away has no variable: its
// change is already in fixed_ones, which shrinks the bound.
bool encode_count_and_properties(SolverInterface& solver, const SrRows& rows,
                                 std::size_t k,
                                 const std::vector<const Property*>& properties,
                                 const ReconstructionOptions& options) {
  if (rows.fixed_ones > k) return false;  // forced changes already exceed k
  std::vector<Lit> lits;
  lits.reserve(rows.cycle_vars.size());
  for (Var v : rows.cycle_vars) {
    if (v != kNoVar) lits.push_back(mk_lit(v));
  }
  bool ok = sat::encode_exactly(solver, lits, k - rows.fixed_ones, options.card_encoding) &&
            rows.ok;
  for (const Property* p : properties) ok = p->encode(solver, rows.cycle_vars) && ok;
  return ok;
}

}  // namespace

bool Reconstructor::encode_base(SolverInterface& solver, std::vector<Var>& cycle_vars,
                                const LogEntry& entry,
                                const ReconstructionOptions& options) const {
  SrRows rows;
  SrEncoder(*enc_, nullptr, options.native_xor).encode(solver, rows, &entry.tp);
  const bool ok = encode_count_and_properties(solver, rows, entry.k, properties_, options);
  cycle_vars = std::move(rows.cycle_vars);
  return ok;
}

ReconstructionResult Reconstructor::decode_entry(const LogEntry& entry,
                                                 const ReconstructionOptions& options,
                                                 const SatStage& sat_stage,
                                                 const F2Presolve::Analysis* analysis,
                                                 const char* engine) const {
  static obs::Counter& runs =
      obs::MetricsRegistry::global().counter("sr.reconstructions");
  static obs::Counter& signals_total =
      obs::MetricsRegistry::global().counter("sr.signals");
  static obs::Timing& run_time =
      obs::MetricsRegistry::global().timing("sr.reconstruct_seconds");

  check_width(*enc_, entry.tp);
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  obs::Tracer::Span span;
  if (options.tracer != nullptr) {
    span = options.tracer->span(
        "sr.reconstruct",
        {{"m", static_cast<std::uint64_t>(enc_->m())},
         {"k", static_cast<std::uint64_t>(entry.k)},
         {"properties", static_cast<std::uint64_t>(properties_.size())}});
    if (engine != nullptr) span.add("engine", engine);
  }

  // The certified path skips the presolve: every verdict must be derivable
  // inside the solver for the DRAT stream to check out.
  F2Presolve::Analysis own;
  if (analysis == nullptr && options.presolve && options.proof == nullptr) {
    own = presolve_->analyze(entry.tp);
    analysis = &own;
  }

  ReconstructionResult result;
  if (analysis != nullptr && !analysis->consistent) {
    // A·x = TP has no solution even without the weight constraint.
    result.final_status = Status::Unsat;
    if (options.tracer != nullptr) options.tracer->event("sr.presolve_unsat");
  } else if (analysis != nullptr && presolve_->nullity() <= options.presolve_enum_limit) {
    // The whole affine solution space is small: enumerate it directly,
    // filtering on |x| = k and the properties. Zero solver variables.
    F2Presolve::Decoded dec = presolve_->decode_by_enumeration(
        *analysis, entry.k, properties_, options.max_solutions);
    result.signals = std::move(dec.signals);
    result.final_status = dec.truncated ? Status::Sat : Status::Unsat;
    result.seconds_to_each.assign(result.signals.size(), elapsed());
    if (options.tracer != nullptr) {
      options.tracer->event(
          "sr.presolve_decode",
          {{"signals", static_cast<std::uint64_t>(result.signals.size())}});
    }
  } else {
    SatModels models = sat_stage(analysis, result);
    result.final_status = models.run.final_status;
    result.seconds_to_each = std::move(models.run.seconds_to_model);
    for (const std::vector<bool>& model : models.run.models) {
      if (models.free_cols) {
        result.signals.push_back(Signal::from_bits(presolve_->expand(*analysis, model)));
        continue;
      }
      Signal s(enc_->m());
      for (std::size_t i = 0; i < model.size(); ++i) {
        if (model[i]) s.set_change(i);
      }
      result.signals.push_back(std::move(s));
    }
  }
  result.seconds_total = elapsed();
  if (options.verify_models) require_verified(*enc_, entry, result.signals, properties_);

  runs.add(1);
  signals_total.add(static_cast<std::int64_t>(result.signals.size()));
  run_time.observe(result.seconds_total);
  span.add("signals", static_cast<std::uint64_t>(result.signals.size()));
  span.add("status", sat::to_string(result.final_status));
  return result;
}

ReconstructionResult Reconstructor::reconstruct(
    const LogEntry& entry, const ReconstructionOptions& options) const {
  return decode_fresh(entry, options, nullptr);
}

ReconstructionResult Reconstructor::decode_fresh(const LogEntry& entry,
                                                 const ReconstructionOptions& options,
                                                 const F2Presolve::Analysis* analysis) const {
  options.validate();
  // A fresh solver per entry: the raw rows with TP as right-hand side, or
  // the presolve's RREF rows with T·TP, enumerating the free columns only.
  const auto sat_stage = [&](const F2Presolve::Analysis* presolved,
                             ReconstructionResult& result) {
    const std::unique_ptr<SolverInterface> solver = options.make_solver();
    obs::Tracer::Span encode_span;
    if (options.tracer != nullptr) encode_span = options.tracer->span("sr.encode");
    SrRows rows;
    SrEncoder(*enc_, presolved != nullptr ? presolve_.get() : nullptr, options.native_xor)
        .encode(*solver, rows, presolved != nullptr ? &presolved->transformed : &entry.tp,
                !properties_.empty());
    const bool encode_ok =
        encode_count_and_properties(*solver, rows, entry.k, properties_, options);
    result.num_vars = solver->num_vars();
    result.num_clauses = solver->num_clauses();
    result.num_xors = solver->num_xors();
    encode_span.add("ok", encode_ok);
    encode_span.add("presolved", presolved != nullptr);
    encode_span.add("vars", static_cast<std::int64_t>(result.num_vars));
    encode_span.add("clauses", static_cast<std::uint64_t>(result.num_clauses));
    encode_span.add("xors", static_cast<std::uint64_t>(result.num_xors));
    encode_span.finish();

    SatModels out;
    out.free_cols = presolved != nullptr;
    if (!encode_ok || !solver->okay()) {
      // The encoding itself is contradictory (e.g. k > m, or a property
      // that cannot coexist with the cardinality bound): the preimage is
      // empty and complete. Don't spin up the enumeration machinery.
      out.run.final_status = Status::Unsat;
      result.stats = solver->stats();
      if (options.tracer != nullptr) options.tracer->event("sr.trivial_unsat");
      return out;
    }
    std::vector<Var> projection;
    if (out.free_cols) {
      for (std::size_t f : presolve_->echelon().free_cols()) {
        projection.push_back(rows.cycle_vars[f]);
      }
    } else {
      projection = std::move(rows.cycle_vars);
    }
    sat::AllSatOptions as;
    as.max_models = options.max_solutions;
    as.limits = options.limits;
    as.with_config(options);
    out.run = sat::enumerate_models(*solver, projection, as);
    result.stats = solver->stats();
    return out;
  };
  return decode_entry(entry, options, sat_stage, analysis);
}

CheckResult Reconstructor::check_hypothesis(const LogEntry& entry,
                                            const Property& hypothesis,
                                            const ReconstructionOptions& options) const {
  options.validate();
  const std::unique_ptr<Property> negated = hypothesis.negation();
  if (negated == nullptr) {
    throw std::invalid_argument("check_hypothesis: property '" +
                                hypothesis.describe() +
                                "' does not provide a negation");
  }

  obs::Tracer::Span span;
  if (options.tracer != nullptr) {
    span = options.tracer->span(
        "sr.check",
        {{"m", static_cast<std::uint64_t>(enc_->m())},
         {"k", static_cast<std::uint64_t>(entry.k)},
         {"hypothesis", hypothesis.describe()}});
  }

  // A counterexample is a reconstruction that satisfies the negation: decode
  // one through the same pipeline, with the negation as one more property.
  // No such reconstruction at all proves the hypothesis.
  Reconstructor counter = *this;
  counter.add_property(*negated);
  ReconstructionOptions one = options;
  one.max_solutions = 1;
  ReconstructionResult decoded = counter.decode_fresh(entry, one, nullptr);

  CheckResult result;
  result.seconds = decoded.seconds_total;
  result.stats = decoded.stats;
  result.num_vars = decoded.num_vars;
  result.num_clauses = decoded.num_clauses;
  result.num_xors = decoded.num_xors;
  // The verdict comes from the signals, not the status: the presolve's
  // enumeration reports a lone witness found on its last candidate as
  // complete.
  if (!decoded.signals.empty()) {
    result.verdict = CheckVerdict::ViolatedBySome;
    // decode_entry has verified the witness against the negation; this
    // re-check does not depend on the negation being right.
    if (options.verify_models && hypothesis.holds(decoded.signals.front())) {
      throw std::logic_error(
          "model verification failed: check_hypothesis witness satisfies "
          "the hypothesis it should violate");
    }
    result.witness = std::move(decoded.signals.front());
  } else if (decoded.complete()) {
    result.verdict = CheckVerdict::HoldsForAll;
  }
  span.add("verdict", to_string(result.verdict));
  return result;
}

namespace {

// Recursively choose the remaining changes of a k-subset, maintaining the
// running timeprint, and collect matching signals.
void brute_force_rec(const TimestampEncoding& enc, const LogEntry& entry,
                     const std::vector<const Property*>& props, std::size_t next,
                     std::size_t chosen, f2::BitVec& acc,
                     std::vector<std::size_t>& picks, std::vector<Signal>& out) {
  const std::size_t m = enc.m();
  if (chosen == entry.k) {
    if (acc == entry.tp) {
      Signal s = Signal::from_change_cycles(m, picks);
      for (const Property* p : props) {
        if (!p->holds(s)) return;
      }
      out.push_back(std::move(s));
    }
    return;
  }
  if (m - next < entry.k - chosen) return;  // not enough cycles left
  for (std::size_t i = next; i < m; ++i) {
    acc ^= enc.timestamp(i);
    picks.push_back(i);
    brute_force_rec(enc, entry, props, i + 1, chosen + 1, acc, picks, out);
    picks.pop_back();
    acc ^= enc.timestamp(i);
  }
}

}  // namespace

std::vector<Signal> Reconstructor::brute_force(
    const TimestampEncoding& encoding, const LogEntry& entry,
    const std::vector<const Property*>& props) {
  std::vector<Signal> out;
  f2::BitVec acc(encoding.width());
  std::vector<std::size_t> picks;
  brute_force_rec(encoding, entry, props, 0, 0, acc, picks, out);
  return out;
}

}  // namespace tp::core
