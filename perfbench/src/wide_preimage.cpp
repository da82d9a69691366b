// wide_preimage — entries with k above the unique-decoding radius (k = 5 at
// m = 48, LI-4, b = 12: about 400 signals each), each enumerated to
// completion by BatchReconstructor::reconstruct_split (cube-and-conquer).

#include <algorithm>
#include <map>
#include <thread>

#include "common.hpp"
#include "sat/allsat.hpp"
#include "timeprint/batch.hpp"

namespace perfbench {

namespace {

using tp::core::LogEntry;
using tp::core::Signal;

constexpr std::size_t kM = 48;
constexpr std::size_t kB = 12;
constexpr std::size_t kDepth = 4;
constexpr std::uint64_t kEncodingSeed = 7;
constexpr std::size_t kK = 5;
constexpr int kSetupReps = 21;

struct UnitRun {
  double wall = 0.0;
  tp::core::ReconstructionResult result;
  std::vector<double> cube_s;  // per-cube service time
};

}  // namespace

Outcome run_wide_preimage(const Args& args, Trace& trace) {
  Outcome out;
  const std::size_t workers = worker_count();

  std::vector<double> setup_s;
  std::unique_ptr<tp::core::TimestampEncoding> enc;
  std::unique_ptr<tp::core::BatchReconstructor> batch;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    {
      auto s = trace.span("encoding", "encoding.build", 0);
      enc = std::make_unique<tp::core::TimestampEncoding>(
          tp::core::TimestampEncoding::random_constrained(kM, kB, kDepth, kEncodingSeed));
    }
    {
      auto s = trace.span("presolve", "presolve.factor", 0);
      batch = std::make_unique<tp::core::BatchReconstructor>(*enc);
    }
    setup_s.push_back(seconds_since(t0));
  }

  tp::core::BatchOptions bopts;
  bopts.num_threads = workers;
  bopts.recon.limits.max_seconds = 60.0;

  std::vector<LogEntry> entries;
  std::vector<Signal> truth;
  auto entry_at = [&](std::size_t u) {
    while (entries.size() <= u) {
      tp::f2::Rng rng(derive_seed(args.seed, 3, entries.size()));
      truth.push_back(Signal::random_with_changes(kM, kK, rng));
      entries.push_back(make_entry(*enc, truth.back()));
    }
  };

  auto process = [&](std::size_t u, Trace& tr) {
    entry_at(u);
    auto root = tr.span("bench", "bench.unit", u);
    UnitRun run;
    // Each worker runs its cubes back to back, so a cube's service time is
    // the gap since the same thread's previous progress callback (the engine
    // serializes the callbacks).
    std::map<std::thread::id, Clock::time_point> last;
    const auto t0 = Clock::now();
    tp::core::BatchOptions o = bopts;
    o.on_progress = [&](const tp::core::BatchProgress&) {
      const auto now = Clock::now();
      const auto it = last.emplace(std::this_thread::get_id(), t0).first;
      run.cube_s.push_back(std::chrono::duration<double>(now - it->second).count());
      it->second = now;
    };
    {
      auto s = tr.span("batch", "batch.reconstruct_split", u);
      run.result = batch->reconstruct_split(entries[u], o);
    }
    run.wall = seconds_since(t0);
    auto s = tr.span("check", "check.preimage", u);
    out.record("wide entry " + std::to_string(u),
               check_preimage(*enc, entries[u], truth[u], run.result.signals,
                              run.result.complete()));
    return run;
  };

  std::vector<double> entry_ms, imbalance;
  double wall = 0.0;  // reconstruct_split calls only
  double untraced_wall = 0.0, traced_wall = 0.0;
  std::uint64_t signals = 0;
  tp::sat::SolverStats prefix_stats, stats;
  std::size_t prefix_signals = 0, cubes = 0, solverless = 0;
  std::vector<tp::f2::BitVec> tps;
  const std::size_t n = run_units(
      args.seconds, trace, process,
      [&](std::size_t u, const UnitRun& run) {
        if (u == 0) {
          out.fingerprint = fingerprint(signal_set_key(run.result.signals) +
                                        (run.result.complete() ? "#complete" : "#partial"));
          prefix_stats = run.result.stats;
          prefix_signals = run.result.signals.size();
        }
        wall += run.wall;
        signals += run.result.signals.size();
        entry_ms.push_back(run.wall * 1e3);
      },
      [&](std::size_t u, const UnitRun& run) {
        stats += run.result.stats;
        cubes = run.cube_s.size();
        imbalance.push_back(*std::max_element(run.cube_s.begin(), run.cube_s.end()) /
                            median(run.cube_s));
        if (run.result.num_vars == 0) ++solverless;
        tps.push_back(entries[u].tp);
      },
      untraced_wall, traced_wall);

  const Tail t = tail(entry_ms);
  out.info.set("workers", static_cast<std::uint64_t>(workers))
      .set("m", static_cast<std::uint64_t>(kM))
      .set("b", static_cast<std::uint64_t>(kB))
      .set("k", static_cast<std::uint64_t>(kK))
      .set("entries", static_cast<std::uint64_t>(n))
      .set("signals", signals)
      .set("signals_per_s", static_cast<double>(signals) / wall)
      .set("entry_tail_percentile", t.percentile);

  if (!args.trace) {
    out.end_to_end["setup_s"] = median(setup_s);
    out.end_to_end["entries_per_s"] = 1e3 / median(entry_ms);
    out.end_to_end["entry_p50_ms"] = median(entry_ms);
    out.end_to_end["entry_tail_ms"] = t.value;
    return out;
  }

  auto& pl = out.per_layer;
  pl["wide.signals_per_s"] = static_cast<double>(signals) / wall;
  add_sat_counts(prefix_stats, out);

  pl["sat.conflicts_per_s"] = static_cast<double>(stats.conflicts) / stats.solve_seconds;
  pl["sat.props_per_s"] = stats.propagations_per_sec();
  pl["batch.cubes"] = static_cast<double>(cubes);
  pl["batch.cube_imbalance"] = median(imbalance);
  pl["presolve.solverless_ratio"] = static_cast<double>(solverless) / static_cast<double>(tps.size());
  {
    auto s = trace.span("presolve", "presolve.analyze_batch", 0);
    const auto t0 = Clock::now();
    const auto analyses = batch->reconstructor().presolve().analyze_batch(tps);
    pl["presolve.analyze_us_per_entry"] = seconds_since(t0) * 1e6 / static_cast<double>(tps.size());
  }
  probe_encode(batch->reconstructor(), entries[0], bopts.recon, trace, out);
  {
    // The AllSAT layer alone: one single-threaded enumeration of entry 0.
    const auto solver = bopts.recon.make_solver();
    std::vector<tp::sat::Var> cycle_vars;
    batch->reconstructor().encode_base(*solver, cycle_vars, entries[0], bopts.recon);
    tp::sat::AllSatOptions as;
    as.limits = bopts.recon.limits;
    auto s = trace.span("sat", "allsat.enumerate_models", 0);
    const auto t0 = Clock::now();
    const auto models = tp::sat::enumerate_models(*solver, cycle_vars, as);
    const double secs = seconds_since(t0);
    pl["allsat.models"] = static_cast<double>(models.models.size());
    pl["allsat.models_per_s"] = static_cast<double>(models.models.size()) / secs;
    out.record("allsat enumeration of entry 0",
               models.final_status == tp::sat::Status::Unsat &&
                       models.models.size() == prefix_signals
                   ? ""
                   : "direct enumeration disagrees with the split preimage");
  }
  pl["encoding.build_s"] = median(trace.durations("encoding.build"));
  pl["presolve.factor_s"] = median(trace.durations("presolve.factor"));
  add_trace_metrics(trace, untraced_wall, traced_wall, out);
  return out;
}

}  // namespace perfbench
