#include "timeprint/joint.hpp"

#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "timeprint/sr_encoder.hpp"
#include "timeprint/verify.hpp"

namespace tp::core {

using sat::Lit;
using sat::mk_lit;
using sat::SolverInterface;
using sat::Var;

namespace {

// verify_models for a span: each window's slice is a preimage member of its
// entry, each span signal satisfies the span properties, and no span signal
// repeats. Two span signals may share a window's slice, so the slices are
// verified one at a time.
void require_verified_span(const TimestampEncoding& enc,
                           const std::vector<LogEntry>& entries,
                           const std::vector<Signal>& signals,
                           const std::vector<const Property*>& properties) {
  const std::size_t m = enc.m();
  std::set<std::string> seen;
  for (const Signal& s : signals) {
    for (std::size_t w = 0; w < entries.size(); ++w) {
      Signal slice(m);
      for (std::size_t i = 0; i < m; ++i) slice.set_change(i, s.has_change(w * m + i));
      require_verified(enc, entries[w], {slice});
    }
    for (const Property* p : properties) {
      if (!p->holds(s)) {
        throw std::logic_error("model verification failed: a span signal violates '" +
                               p->describe() + "'");
      }
    }
    if (!seen.insert(s.to_string()).second) {
      throw std::logic_error("model verification failed: a span signal enumerated twice");
    }
  }
}

}  // namespace

ReconstructionResult JointReconstructor::reconstruct(
    const std::vector<LogEntry>& entries, const ReconstructionOptions& options) const {
  options.validate();
  if (entries.empty()) {
    throw std::invalid_argument("JointReconstructor: no log entries to reconstruct");
  }
  const std::size_t m = enc_->m();
  const std::size_t n = entries.size();

  const std::unique_ptr<SolverInterface> solver_ptr = options.make_solver();
  SolverInterface& solver = *solver_ptr;
  std::vector<Var> span_vars;
  span_vars.reserve(n * m);
  for (std::size_t i = 0; i < n * m; ++i) span_vars.push_back(solver.new_var());

  const SrEncoder encoder(*enc_, nullptr, options.native_xor);
  for (std::size_t w = 0; w < n; ++w) {
    // XOR system of window w over its own m variables.
    SrRows rows;
    rows.cycle_vars.assign(span_vars.begin() + static_cast<std::ptrdiff_t>(w * m),
                           span_vars.begin() + static_cast<std::ptrdiff_t>((w + 1) * m));
    encoder.encode(solver, rows, &entries[w].tp);
    // Cardinality of window w.
    std::vector<Lit> lits;
    lits.reserve(m);
    for (Var v : rows.cycle_vars) lits.push_back(mk_lit(v));
    sat::encode_exactly(solver, lits, entries[w].k, options.card_encoding);
  }

  // Span-wide properties.
  for (const Property* p : properties_) p->encode(solver, span_vars);

  sat::AllSatOptions as;
  as.max_models = options.max_solutions;
  as.limits = options.limits;
  as.with_config(options);
  const sat::AllSatResult models = sat::enumerate_models(solver, span_vars, as);

  ReconstructionResult result;
  result.final_status = models.final_status;
  result.seconds_to_each = models.seconds_to_model;
  result.seconds_total = models.seconds_total;
  result.stats = solver.stats();
  result.num_vars = solver.num_vars();
  result.num_clauses = solver.num_clauses();
  result.num_xors = solver.num_xors();
  for (const auto& model : models.models) {
    Signal s(n * m);
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i]) s.set_change(i);
    }
    result.signals.push_back(std::move(s));
  }
  if (options.verify_models) {
    require_verified_span(*enc_, entries, result.signals, properties_);
  }
  return result;
}

}  // namespace tp::core
