// forensics — the paper's application queries, single-threaded, one round
// per unit:
//  * §5.2.1 CAN failure window: an EngineData frame sits alone in a
//    trace-cycle at a hidden start cycle p; FrameAtUnknownStart over the
//    window [p - 32, p + 32) must recover p, proven unique;
//  * §5.2.1 deadline proof: "the frame started early enough to end 16
//    cycles before it did" (starts in [p - 32, p - 15)) must be UNSAT;
//  * §5.2.2 one-cycle-delay localisation: the SoC with temperature-
//    compensated refresh against the refresh-free simulation; the first
//    trace-cycle whose difference is one change delayed by one cycle goes
//    to soc::localize_delay.
// Both run at m = 256, b = 24 (the paper used m = 1000 / 1024, whose
// encoding alone takes 18-34 s to build; see perfbench/README.md).

#include <algorithm>

#include "can/forensics.hpp"
#include "can/traffic.hpp"
#include "common.hpp"
#include "soc/system.hpp"

namespace perfbench {

namespace {

using tp::core::LogEntry;
using tp::core::Signal;

constexpr std::size_t kM = 256;
constexpr std::size_t kB = 24;
constexpr std::size_t kDepth = 4;
constexpr std::uint64_t kEncodingSeed = 2019;
/// Failure window around the hidden start, and how late the frame ended
/// against the hypothetical deadline.
constexpr std::size_t kBefore = 32;
constexpr std::size_t kAfter = 32;
constexpr std::size_t kLate = 16;
constexpr int kSetupReps = 21;
constexpr double kQueryBudget = 30.0;
constexpr std::uint64_t kSocCycles = 120000;

tp::soc::SocSystem::Config soc_config(bool hardware, double ambient_c,
                                      std::uint64_t phase) {
  tp::soc::SocSystem::Config cfg;
  cfg.program = tp::soc::demo_image(16, 256);
  cfg.mem.wait_states = 1;
  if (hardware) {
    cfg.mem.refresh_enabled = true;
    cfg.mem.ambient_c = ambient_c;
    cfg.mem.refresh_base_interval = 2800;
    cfg.mem.refresh_slope = 30.0;
    cfg.mem.refresh_phase = phase;
  }
  return cfg;
}

struct Round {
  // CAN
  std::size_t start = 0;
  LogEntry can_entry;
  // refresh
  double ambient_c = 0.0;
  std::uint64_t phase = 0;
};

Round make_round(const tp::core::TimestampEncoding& enc,
                 const std::vector<bool>& pattern, std::uint64_t seed,
                 std::size_t u) {
  tp::f2::Rng rng(derive_seed(seed, 2, u));
  Round r;
  const std::size_t last = kM - pattern.size() - kAfter;  // window stays inside
  r.start = kBefore + rng.below(last - kBefore + 1);
  // The trace-cycle holds only this frame: the bus idles around it, so the
  // change signal is the frame's change pattern shifted to the start.
  Signal s(kM);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i]) s.set_change(r.start + i);
  }
  r.can_entry = make_entry(enc, s);
  r.ambient_c = 45.0 + static_cast<double>(rng.below(21));
  r.phase = rng.below(2800);
  return r;
}

/// Where the ground-truth signals of the two runs first differ, and the
/// first trace-cycle whose difference is one change delayed by one cycle
/// (the §5.2.2 hypothesis; a delay across a trace-cycle boundary changes k
/// and is not one), with the simulation change that was delayed.
struct Divergences {
  std::size_t first = SIZE_MAX;
  std::size_t one_delay = SIZE_MAX;
  std::size_t delayed_cycle = SIZE_MAX;
};

Divergences find_divergences(const std::vector<Signal>& hw, const std::vector<Signal>& sim) {
  Divergences d;
  const std::size_t n = std::min(hw.size(), sim.size());
  for (std::size_t t = 0; t < n && d.one_delay == SIZE_MAX; ++t) {
    if (hw[t] == sim[t]) continue;
    if (d.first == SIZE_MAX) d.first = t;
    std::vector<std::size_t> missing;
    for (std::size_t c : sim[t].change_cycles()) {
      if (!hw[t].has_change(c)) missing.push_back(c);
    }
    if (missing.size() == 1 && missing[0] + 1 < kM && hw[t].has_change(missing[0] + 1) &&
        hw[t].num_changes() == sim[t].num_changes()) {
      d.one_delay = t;
      d.delayed_cycle = missing[0];
    }
  }
  return d;
}

struct RoundRun {
  double window_s = 0.0, deadline_s = 0.0, refresh_s = 0.0;
  std::string answer;  // fingerprint text
  tp::sat::SolverStats stats;
  bool window_solverless = false, deadline_solverless = false;
  std::uint64_t soc_cycles = 0;
};

}  // namespace

Outcome run_forensics(const Args& args, Trace& trace) {
  Outcome out;
  const auto pattern = tp::can::frame_change_pattern(tp::can::engine_data_frame(), false);

  std::vector<double> setup_s;
  std::unique_ptr<tp::core::TimestampEncoding> enc;
  std::unique_ptr<tp::core::Reconstructor> rec;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    {
      auto s = trace.span("encoding", "encoding.build", 0);
      enc = std::make_unique<tp::core::TimestampEncoding>(
          tp::core::TimestampEncoding::random_constrained(kM, kB, kDepth, kEncodingSeed));
    }
    {
      auto s = trace.span("presolve", "presolve.factor", 0);
      rec = std::make_unique<tp::core::Reconstructor>(*enc);
    }
    setup_s.push_back(seconds_since(t0));
  }

  // The trusted simulation run is shared by every round.
  const tp::soc::SocRunResult sim = tp::soc::run_soc(soc_config(false, 25.0, 0), *enc, kSocCycles);

  tp::core::ReconstructionOptions can_opts;
  can_opts.gauss_max_unassigned = SIZE_MAX;  // frame placements assign many vars at once
  can_opts.limits.max_seconds = kQueryBudget;
  tp::core::ReconstructionOptions refresh_opts;
  refresh_opts.limits.max_seconds = kQueryBudget;

  std::vector<Round> rounds;
  std::vector<tp::f2::BitVec> tps;
  auto process = [&](std::size_t u, Trace& tr) {
    while (rounds.size() <= u) rounds.push_back(make_round(*enc, pattern, args.seed, rounds.size()));
    const Round& round = rounds[u];
    auto root = tr.span("bench", "bench.unit", u);
    RoundRun run;
    const std::string tag = "forensics round " + std::to_string(u);

    // CAN failure window.
    {
      const std::size_t lo = round.start - kBefore, hi = round.start + kAfter;
      tp::can::FrameAtUnknownStart prop(kM, pattern, lo, hi);
      tp::core::Reconstructor q = *rec;
      q.add_property(prop);
      tp::core::ReconstructionOptions o = can_opts;
      o.max_solutions = 2;  // a second reconstruction would make the start ambiguous
      tp::core::ReconstructionResult r;
      const auto t0 = Clock::now();
      {
        auto s = tr.span("reconstruct", "reconstruct.can_window", u);
        r = q.reconstruct(round.can_entry, o);
      }
      run.window_s = seconds_since(t0);
      auto s = tr.span("check", "check.can_window", u);
      out.record(tag + " CAN window",
                 check_can_window(*enc, round.can_entry, r, pattern, lo, hi, round.start));
      const auto starts = r.signals.empty()
                              ? std::vector<std::size_t>{}
                              : tp::can::find_pattern(r.signals[0], pattern, lo, hi);
      run.answer += "start=" + (starts.empty() ? std::string("none") : std::to_string(starts[0]));
      run.stats += r.stats;
      run.window_solverless = r.num_vars == 0;
    }
    // Deadline-met hypothesis.
    {
      const std::size_t lo = round.start - kBefore, hi = round.start - kLate + 1;
      tp::can::FrameAtUnknownStart early(kM, pattern, lo, hi);
      tp::core::Reconstructor q = *rec;
      q.add_property(early);
      tp::core::ReconstructionOptions o = can_opts;
      o.max_solutions = 1;
      tp::core::ReconstructionResult r;
      const auto t0 = Clock::now();
      {
        auto s = tr.span("reconstruct", "reconstruct.can_deadline", u);
        r = q.reconstruct(round.can_entry, o);
      }
      run.deadline_s = seconds_since(t0);
      auto s = tr.span("check", "check.deadline", u);
      out.record(tag + " deadline", check_deadline(r));
      run.answer += std::string(" deadline=") + tp::sat::to_string(r.final_status);
      run.stats += r.stats;
      run.deadline_solverless = r.num_vars == 0;
    }
    // Refresh-stall localisation.
    {
      const tp::soc::SocRunResult hw = [&] {
        auto s = tr.span("soc", "soc.run_soc", u);
        return tp::soc::run_soc(soc_config(true, round.ambient_c, round.phase), *enc, kSocCycles);
      }();
      run.soc_cycles = hw.cycles;
      const Divergences div = find_divergences(hw.signals, sim.signals);
      tp::soc::Divergence d{};
      {
        auto s = tr.span("soc", "soc.compare_logs", u);
        d = tp::soc::compare_logs(hw.log, sim.log);
      }
      if (div.one_delay == SIZE_MAX) {
        out.record(tag + " refresh", "no one-cycle delay in the simulated window");
      } else {
        const std::size_t t = div.one_delay;
        const LogEntry entry = make_entry(*enc, hw.signals[t]);
        std::optional<tp::soc::DelayLocalization> loc;
        const auto t0 = Clock::now();
        {
          auto s = tr.span("soc", "soc.localize_delay", u);
          loc = tp::soc::localize_delay(*enc, entry, sim.signals[t], 1, refresh_opts);
        }
        run.refresh_s = seconds_since(t0);
        auto s = tr.span("check", "check.localization", u);
        std::string failure = check_localization(loc, hw.signals[t], div.delayed_cycle);
        if (failure.empty() && d.first_entry_mismatch != div.first) {
          failure = "compare_logs missed the first divergence";
        }
        if (failure.empty() && !(hw.log[t] == entry)) failure = "logged entry differs from the signal's";
        out.record(tag + " refresh", failure);
        run.answer += " diverge=" + std::to_string(d.first_entry_mismatch) + " localised=" +
                      std::to_string(t) + ":" +
                      (loc ? std::to_string(loc->delayed_cycle) : std::string("none"));
        tps.push_back(entry.tp);
      }
    }
    tps.push_back(round.can_entry.tp);
    return run;
  };

  std::vector<double> window_s, deadline_s, refresh_s, all_ms, round_query_s;
  double untraced_wall = 0.0, traced_wall = 0.0;
  tp::sat::SolverStats prefix_stats, stats;
  std::size_t solverless = 0, traced_rounds = 0;
  std::uint64_t soc_cycles = 0;
  const std::size_t n = run_units(
      args.seconds, trace, process,
      [&](std::size_t u, const RoundRun& run) {
        if (u == 0) {
          out.fingerprint = fingerprint(run.answer);
          prefix_stats = run.stats;
        }
        window_s.push_back(run.window_s);
        deadline_s.push_back(run.deadline_s);
        refresh_s.push_back(run.refresh_s);
        for (double q : {run.window_s, run.deadline_s, run.refresh_s}) all_ms.push_back(q * 1e3);
        round_query_s.push_back(run.window_s + run.deadline_s + run.refresh_s);
      },
      [&](std::size_t, const RoundRun& run) {
        ++traced_rounds;
        stats += run.stats;
        solverless += (run.window_solverless ? 1 : 0) + (run.deadline_solverless ? 1 : 0);
        soc_cycles += run.soc_cycles;
      },
      untraced_wall, traced_wall);

  const Tail t = tail(all_ms);
  out.info.set("workers", 1)
      .set("m", static_cast<std::uint64_t>(kM))
      .set("b", static_cast<std::uint64_t>(kB))
      .set("rounds", static_cast<std::uint64_t>(n))
      .set("queries", static_cast<std::uint64_t>(all_ms.size()))
      .set("entry_tail_percentile", t.percentile)
      .set("can_window_s_median", median(window_s))
      .set("can_deadline_s_median", median(deadline_s))
      .set("refresh_localize_s_median", median(refresh_s))
      .set("reference_only",
           tp::obs::Json::object()
               .set("note", "paper and ROADMAP figures at m=1000/1024; not gated")
               .set("paper_can_full_trace_cycle_s", 38.3)
               .set("paper_can_window_s", 3.1)
               .set("paper_can_deadline_s", 1.6)
               .set("roadmap_can_window_s", 39.0)
               .set("roadmap_can_deadline_s", 17.6)
               .set("roadmap_refresh_localize_s", 22.1));

  if (!args.trace) {
    out.end_to_end["setup_s"] = median(setup_s);
    out.end_to_end["entries_per_s"] = 3.0 / median(round_query_s);
    out.end_to_end["entry_p50_ms"] = median(all_ms);
    out.end_to_end["entry_tail_ms"] = t.value;
    return out;
  }

  auto& pl = out.per_layer;
  pl["forensics.can_window_s"] = median(window_s);
  pl["forensics.can_deadline_s"] = median(deadline_s);
  pl["forensics.refresh_localize_s"] = median(refresh_s);
  add_sat_counts(prefix_stats, out);

  pl["sat.conflicts_per_s"] = static_cast<double>(stats.conflicts) / stats.solve_seconds;
  pl["sat.props_per_s"] = stats.propagations_per_sec();
  pl["presolve.solverless_ratio"] = static_cast<double>(solverless) / static_cast<double>(2 * traced_rounds);
  {
    auto s = trace.span("presolve", "presolve.analyze_batch", 0);
    const auto t0 = Clock::now();
    const auto analyses = rec->presolve().analyze_batch(tps);
    pl["presolve.analyze_us_per_entry"] = seconds_since(t0) * 1e6 / static_cast<double>(tps.size());
  }
  {
    const Round& r0 = rounds[0];
    tp::can::FrameAtUnknownStart prop(kM, pattern, r0.start - kBefore, r0.start + kAfter);
    tp::core::Reconstructor q = *rec;
    q.add_property(prop);
    probe_encode(q, r0.can_entry, can_opts, trace, out);
  }
  const double soc_s = trace.total_seconds("soc.run_soc");
  pl["soc.cycles_per_s"] = static_cast<double>(soc_cycles) / soc_s;
  pl["soc.compare_logs_us"] = median(trace.durations("soc.compare_logs")) * 1e6;
  pl["encoding.build_s"] = median(trace.durations("encoding.build"));
  pl["presolve.factor_s"] = median(trace.durations("presolve.factor"));
  add_trace_metrics(trace, untraced_wall, traced_wall, out);
  return out;
}

}  // namespace perfbench
