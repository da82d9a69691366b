// stream_decode — the post-mortem pass over a retrieved log window: batches
// of sparse-activity entries at m = 64 (LI-4, b = 16), decoded to complete
// preimages by BatchReconstructor::reconstruct_all with warm per-worker
// templates.

#include <iterator>
#include <utility>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "timeprint/batch.hpp"
#include "timeprint/incremental.hpp"

namespace perfbench {

namespace {

using tp::core::LogEntry;
using tp::core::Signal;

constexpr std::size_t kM = 64;
constexpr std::size_t kB = 16;
constexpr std::size_t kDepth = 4;
/// The deployed encoding is fixed; only the traffic depends on the seed.
constexpr std::uint64_t kEncodingSeed = 11;
constexpr std::size_t kEntriesPerUnit = 40;
/// Change counts of every block of 20 entries (shuffled per block): mostly
/// k <= 2, a tail to k = 4.
constexpr std::size_t kKMix[] = {0, 0, 1, 1, 1, 1, 1, 1, 2, 2,
                                 2, 2, 2, 2, 3, 3, 3, 3, 4, 4};
constexpr std::size_t kKMax = 4;
constexpr int kSetupReps = 21;

struct Unit {
  std::vector<LogEntry> entries;
  std::vector<Signal> truth;
};

Unit make_unit(const tp::core::TimestampEncoding& enc, std::uint64_t seed,
               std::size_t u) {
  tp::f2::Rng rng(derive_seed(seed, 1, u));
  Unit unit;
  constexpr std::size_t kBlock = std::size(kKMix);
  for (std::size_t block = 0; block < kEntriesPerUnit / kBlock; ++block) {
    std::vector<std::size_t> ks(std::begin(kKMix), std::end(kKMix));
    for (std::size_t i = ks.size() - 1; i > 0; --i) {
      std::swap(ks[i], ks[rng.below(i + 1)]);
    }
    for (std::size_t k : ks) {
      Signal s = Signal::random_with_changes(kM, k, rng);
      unit.entries.push_back(make_entry(enc, s));
      unit.truth.push_back(std::move(s));
    }
  }
  return unit;
}

tp::core::ReconstructionOptions recon_options() {
  tp::core::ReconstructionOptions o;
  o.incremental = true;
  o.limits.max_seconds = 30.0;  // per entry
  return o;
}

struct UnitRun {
  double wall = 0.0;
  tp::core::BatchResult result;
};

}  // namespace

Outcome run_stream_decode(const Args& args, Trace& trace) {
  Outcome out;
  const std::size_t workers = worker_count();
  const tp::core::ReconstructionOptions ropts = recon_options();

  // Setup: encoding + F2 factorisation + template master, several times.
  std::vector<double> setup_s;
  std::unique_ptr<tp::core::TimestampEncoding> enc;
  std::unique_ptr<tp::core::BatchReconstructor> batch;
  std::unique_ptr<tp::core::TemplateReconstructor> master;
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
    {
      auto s = trace.span("incremental", "template.build", 0);
      master = std::make_unique<tp::core::TemplateReconstructor>(
          batch->reconstructor(), ropts, kKMax);
    }
    setup_s.push_back(seconds_since(t0));
  }

  tp::core::BatchOptions bopts;
  bopts.recon = ropts;
  bopts.num_threads = workers;

  std::vector<Unit> units;
  auto unit_at = [&](std::size_t u) -> const Unit& {
    while (units.size() <= u) units.push_back(make_unit(*enc, args.seed, units.size()));
    return units[u];
  };

  auto process = [&](std::size_t u, Trace& tr) {
    const Unit& unit = unit_at(u);
    auto root = tr.span("bench", "bench.unit", u);
    UnitRun run;
    const auto t0 = Clock::now();
    {
      auto s = tr.span("batch", "batch.reconstruct_all", u);
      run.result = batch->reconstruct_all(unit.entries, bopts);
    }
    run.wall = seconds_since(t0);
    auto s = tr.span("check", "check.preimage", u);
    for (std::size_t i = 0; i < unit.entries.size(); ++i) {
      const auto& r = run.result.results[i];
      out.record("stream entry " + std::to_string(u) + "/" + std::to_string(i),
                 check_preimage(*enc, unit.entries[i], unit.truth[i], r.signals,
                                r.complete()));
    }
    return run;
  };

  auto fingerprint_text = [&](const UnitRun& run) {
    std::string text;
    for (const auto& r : run.result.results) {
      text += signal_set_key(r.signals);
      text += r.complete() ? "#complete\n" : "#partial\n";
    }
    return text;
  };

  std::vector<double> entry_ms, unit_wall;
  std::size_t entries = 0, solverless = 0, decoded = 0;
  double untraced_wall = 0.0, traced_wall = 0.0, batch_wall = 0.0, busy = 0.0;
  tp::sat::SolverStats prefix_stats, stats;
  std::vector<tp::f2::BitVec> tps;
  const std::size_t n = run_units(
      args.seconds, trace, process,
      [&](std::size_t u, const UnitRun& run) {
        if (u == 0) {
          out.fingerprint = fingerprint(fingerprint_text(run));
          prefix_stats = run.result.stats;
        }
        unit_wall.push_back(run.wall);
        entries += run.result.results.size();
        for (const auto& r : run.result.results) entry_ms.push_back(r.seconds_total * 1e3);
      },
      [&](std::size_t u, const UnitRun& run) {
        batch_wall += run.wall;
        stats += run.result.stats;
        for (const auto& r : run.result.results) {
          busy += r.seconds_total;
          ++decoded;
          if (r.num_vars == 0) ++solverless;
        }
        for (const LogEntry& e : units[u].entries) tps.push_back(e.tp);
      },
      untraced_wall, traced_wall);

  const Tail t = tail(entry_ms);
  out.info.set("workers", static_cast<std::uint64_t>(workers))
      .set("m", static_cast<std::uint64_t>(kM))
      .set("b", static_cast<std::uint64_t>(kB))
      .set("entries_per_unit", static_cast<std::uint64_t>(kEntriesPerUnit))
      .set("k_mix_per_20", "k0:2 k1:6 k2:6 k3:4 k4:2")
      .set("units", static_cast<std::uint64_t>(n))
      .set("entries", static_cast<std::uint64_t>(entries))
      .set("entry_tail_percentile", t.percentile);

  if (!args.trace) {
    out.end_to_end["setup_s"] = median(setup_s);
    out.end_to_end["entries_per_s"] = static_cast<double>(kEntriesPerUnit) / median(unit_wall);
    out.end_to_end["entry_p50_ms"] = median(entry_ms);
    out.end_to_end["entry_tail_ms"] = t.value;
    return out;
  }

  auto& pl = out.per_layer;
  const auto& reg = tp::obs::MetricsRegistry::global();
  pl["template.hits"] = static_cast<double>(reg.counter_value("incremental.template_hits"));
  pl["template.misses"] = static_cast<double>(reg.counter_value("incremental.template_misses"));
  pl["template.evictions"] =
      static_cast<double>(reg.counter_value("incremental.template_evictions"));
  pl["template.cache_bytes"] =
      static_cast<double>(reg.gauge_value("incremental.template_cache_bytes"));
  pl["batch.busy_s"] = busy;
  pl["batch.parallel_efficiency"] = busy / (batch_wall * static_cast<double>(workers));
  pl["presolve.solverless_ratio"] = static_cast<double>(solverless) / static_cast<double>(decoded);
  // Template entries report no solve_seconds; their service time is the
  // solver's busy time.
  const double solver_s = stats.solve_seconds > 0 ? stats.solve_seconds : busy;
  pl["sat.conflicts_per_s"] = static_cast<double>(stats.conflicts) / solver_s;
  pl["sat.props_per_s"] = static_cast<double>(stats.propagations) / solver_s;
  add_sat_counts(prefix_stats, out);

  {
    auto s = trace.span("presolve", "presolve.analyze_batch", 0);
    const auto t0 = Clock::now();
    const auto analyses = batch->reconstructor().presolve().analyze_batch(tps);
    pl["presolve.analyze_us_per_entry"] = seconds_since(t0) * 1e6 / static_cast<double>(tps.size());
  }
  probe_encode(batch->reconstructor(), units[0].entries.back(), ropts, trace, out);
  {
    // The template layer alone: unit 0 decoded single-threaded.
    std::vector<double> ms;
    auto tmpl = master->clone();
    for (std::size_t i = 0; i < units[0].entries.size(); ++i) {
      auto s = trace.span("incremental", "template.reconstruct", i);
      const auto r = tmpl->reconstruct(units[0].entries[i]);
      ms.push_back(r.seconds_total * 1e3);
      out.record("template probe entry " + std::to_string(i),
                 check_preimage(*enc, units[0].entries[i], units[0].truth[i], r.signals,
                                r.complete()));
    }
    pl["template.entry_ms_p50"] = median(ms);
    pl["template.entry_ms_tail"] = tail(ms).value;
  }
  pl["encoding.build_s"] = median(trace.durations("encoding.build"));
  pl["presolve.factor_s"] = median(trace.durations("presolve.factor"));
  pl["template.build_s"] = median(trace.durations("template.build"));
  add_trace_metrics(trace, untraced_wall, traced_wall, out);
  return out;
}

}  // namespace perfbench
