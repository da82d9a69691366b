#include "timeprint/incremental.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/allsat.hpp"
#include "sat/cardinality.hpp"
#include "timeprint/sr_encoder.hpp"

namespace tp::core {

using sat::Lit;
using sat::mk_lit;
using sat::Status;
using sat::Var;

TemplateReconstructor::TemplateReconstructor(
    const TimestampEncoding& encoding, std::vector<const Property*> properties,
    const ReconstructionOptions& options, std::size_t k_max)
    : rec_(encoding), options_(options), k_max_(k_max == 0 ? encoding.m() : k_max) {
  rec_.properties_ = std::move(properties);
  options_.validate();
  build();
}

TemplateReconstructor::TemplateReconstructor(const Reconstructor& reconstructor,
                                             const ReconstructionOptions& options,
                                             std::size_t k_max)
    : rec_(reconstructor),
      options_(options),
      k_max_(k_max == 0 ? reconstructor.encoding().m() : k_max) {
  options_.validate();
  build();
}

TemplateReconstructor::TemplateReconstructor(const TemplateReconstructor& other)
    : rec_(other.rec_),
      options_(other.options_),
      k_max_(other.k_max_),
      solver_(other.solver_->clone()),
      cycle_vars_(other.cycle_vars_),
      selectors_(other.selectors_),
      card_outs_(other.card_outs_),
      encode_ok_(other.encode_ok_) {}

std::unique_ptr<TemplateReconstructor> TemplateReconstructor::clone() const {
  return std::unique_ptr<TemplateReconstructor>(new TemplateReconstructor(*this));
}

void TemplateReconstructor::build() {
  static obs::Counter& builds =
      obs::MetricsRegistry::global().counter("incremental.template_builds");

  const std::size_t m = rec_.encoding().m();

  solver_ = options_.make_solver();

  // Selector-RHS rows, so an entry's timeprint is just assumptions on the
  // selectors: A's b raw rows, or with the presolve its rank(A) RREF rows.
  // Their b - rank(A) dependent rows never reach the solver: that
  // constraint is exactly the per-entry consistency check on T·TP.
  const bool presolved = options_.presolve && options_.proof == nullptr;
  SrRows rows;
  SrEncoder(rec_.encoding(), presolved ? &rec_.presolve() : nullptr, options_.native_xor)
      .encode(*solver_, rows, nullptr);
  cycle_vars_ = std::move(rows.cycle_vars);
  selectors_ = std::move(rows.selectors);
  bool ok = rows.ok;

  // One shared totalizer to k_max; per-entry |x| = k becomes the two
  // assumptions o[k-1] ("at least k") and ~o[k] ("not at least k+1").
  // cap = k_max+1 so the upper-bound literal exists for k = k_max.
  std::vector<Lit> lits;
  lits.reserve(m);
  for (Var v : cycle_vars_) lits.push_back(mk_lit(v));
  const std::size_t cap = k_max_ + 1 < m ? k_max_ + 1 : m;
  card_outs_ = sat::totalizer_outputs(*solver_, lits, static_cast<int>(cap));

  for (const Property* p : rec_.properties()) {
    ok = p->encode(*solver_, cycle_vars_) && ok;
  }

  encode_ok_ = ok && solver_->okay();
  ++stats_.builds;
  builds.add(1);
}

ReconstructionResult TemplateReconstructor::reconstruct(const LogEntry& entry) {
  static obs::Counter& learnt_retained =
      obs::MetricsRegistry::global().counter("incremental.learnt_retained");

  ++stats_.entries;
  if (stats_.entries > 1) {
    const auto retained = static_cast<std::int64_t>(solver_->num_learnts());
    stats_.learnt_retained += retained;
    learnt_retained.add(retained);
  }

  const auto sat_stage = [&](const F2Presolve::Analysis* analysis,
                             ReconstructionResult& result) {
    const std::size_t m = rec_.encoding().m();
    // A change count above k_max needs totalizer outputs the template never
    // built: rebuild once at the safe maximum and keep serving from there.
    if (entry.k <= m && entry.k > k_max_) {
      k_max_ = m;
      build();
      // Rebuild edge of the inprocessing schedule: tighten the fresh base
      // once before the stream resumes.
      solver_->inprocess();
      ++stats_.inprocess_rounds;
    }
    result.num_vars = solver_->num_vars();
    result.num_clauses = solver_->num_clauses();
    result.num_xors = solver_->num_xors();

    Reconstructor::SatModels out;
    if (entry.k > m || !encode_ok_) {
      // k > m, or a base whose properties contradict its structure: the
      // preimage is empty and complete, no solve needed.
      out.run.final_status = Status::Unsat;
      if (options_.tracer != nullptr) options_.tracer->event("sr.trivial_unsat");
      return out;
    }

    sat::AllSatOptions as;
    as.max_models = options_.max_solutions;
    as.limits = options_.limits;
    as.tracer = options_.tracer;
    as.fixed_weight = entry.k;
    // Selector j carries row j's right-hand side: bit j of TP on raw rows,
    // of the transformed timeprint T·TP on RREF rows.
    const f2::BitVec& rhs = analysis != nullptr ? analysis->transformed : entry.tp;
    as.assumptions.reserve(selectors_.size() + 2);
    for (std::size_t j = 0; j < selectors_.size(); ++j) {
      as.assumptions.push_back(Lit(selectors_[j], /*negated=*/!rhs.get(j)));
    }
    if (entry.k >= 1) as.assumptions.push_back(card_outs_[entry.k - 1]);
    if (entry.k < card_outs_.size()) as.assumptions.push_back(~card_outs_[entry.k]);

    // Fresh guard per entry; retired below so this entry's blocking clauses
    // cannot constrain the next one.
    const Lit guard = mk_lit(solver_->new_var());
    as.guard = guard;

    const sat::SolverStats before = solver_->stats();
    out.run = sat::enumerate_models(*solver_, cycle_vars_, as);
    // Retire the entry: fixing ¬guard root-satisfies this run's blocking
    // clauses (and any learnt clause carrying ¬guard); simplify() then
    // sweeps that ballast out of the databases so the solver's propagation
    // cost stays flat over arbitrarily long entry streams. Every
    // inprocess_interval entries the sweep is upgraded to a budgeted
    // inprocess() round (backward subsumption + failed-literal probing on
    // top of the vivifying simplify()).
    solver_->add_clause({~guard});
    const std::uint32_t interval = options_.inprocess_interval;
    if (interval != 0 && stats_.entries % interval == 0) {
      solver_->inprocess();
      ++stats_.inprocess_rounds;
    } else {
      solver_->simplify();
    }
    // stats() is cumulative over the solver's lifetime.
    result.stats = solver_->stats();
    result.stats -= before;
    return out;
  };
  return rec_.decode_entry(entry, options_, sat_stage, nullptr, "template");
}

}  // namespace tp::core
