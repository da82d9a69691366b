#include "sat/allsat.hpp"

#include <cassert>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tp::sat {

AllSatResult enumerate_models(SolverInterface& solver,
                              const std::vector<Var>& projection,
                              const AllSatOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  static obs::Counter& runs = obs::MetricsRegistry::global().counter("allsat.runs");
  static obs::Counter& models_total =
      obs::MetricsRegistry::global().counter("allsat.models");
  runs.add(1);

  // Guard resolution (see header): an explicit guard is caller-owned; a run
  // with assumptions but no guard gets an internal guard so its blocking
  // clauses do not outlive the assumption cube — without one they would be
  // permanent, silently shrinking every later enumeration on this solver.
  Lit guard = options.guard;
  bool internal_guard = false;
  if (guard == lit_undef && !options.assumptions.empty()) {
    guard = mk_lit(solver.new_var());
    internal_guard = true;
  }
  std::vector<Lit> assumptions = options.assumptions;
  if (guard != lit_undef) assumptions.push_back(guard);

  obs::Tracer::Span span;
  if (options.tracer != nullptr) {
    span = options.tracer->span(
        "allsat.enumerate",
        {{"projection", static_cast<std::uint64_t>(projection.size())},
         {"max_models", options.max_models == UINT64_MAX
                            ? obs::Json()
                            : obs::Json(options.max_models)},
         {"assumptions", static_cast<std::uint64_t>(options.assumptions.size())},
         {"guarded", guard != lit_undef}});
  }

  AllSatResult result;
  while (result.models.size() < options.max_models) {
    SolveLimits limits = options.limits;
    if (limits.max_seconds > 0) {
      limits.max_seconds -= elapsed();
      if (limits.max_seconds <= 0) {
        result.final_status = Status::Unknown;
        break;
      }
    }
    const Status st = assumptions.empty()
                          ? solver.solve(limits)
                          : solver.solve_assuming(assumptions, limits);
    result.final_status = st;
    if (st != Status::Sat) break;

    std::vector<bool> model;
    model.reserve(projection.size());
    std::vector<Lit> blocking;
    blocking.reserve(projection.size() + 1);
    if (guard != lit_undef) blocking.push_back(~guard);
    std::size_t weight = 0;
    for (Var v : projection) {
      const bool val = solver.model_value(v) == LBool::True;
      model.push_back(val);
      weight += val ? 1 : 0;
      // Weight-aware blocking: under a declared fixed weight the k true
      // literals suffice (another weight-k model cannot contain them all).
      if (!options.fixed_weight.has_value() || val) {
        blocking.push_back(Lit(v, /*negated=*/val));  // literal false under model
      }
    }
    assert(!options.fixed_weight.has_value() || weight == *options.fixed_weight);
    (void)weight;
    result.models.push_back(std::move(model));
    result.seconds_to_model.push_back(elapsed());
    if (options.tracer != nullptr) {
      options.tracer->event(
          "allsat.model",
          {{"index", static_cast<std::uint64_t>(result.models.size() - 1)},
           {"seconds", result.seconds_to_model.back()}});
    }

    if (!solver.add_clause(std::move(blocking))) {
      // Blocking clause made the instance unsatisfiable: enumeration done.
      result.final_status = Status::Unsat;
      break;
    }
  }
  if (internal_guard) solver.add_clause({~guard});  // retire this run's blocks
  result.seconds_total = elapsed();
  models_total.add(static_cast<std::int64_t>(result.models.size()));
  if (span.active()) {
    span.add("models", static_cast<std::uint64_t>(result.models.size()));
    span.add("status", to_string(result.final_status));
    span.finish();
  }
  return result;
}

}  // namespace tp::sat
