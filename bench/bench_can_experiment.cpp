// bench_can_experiment — reproduces §5.2.1 (CAN bus communication):
//   * logging budget: m = 1000, b = 24 at 5 Mbps -> 34 bits per
//     trace-cycle, 5 trace-cycles per millisecond ("170 bps" per ms in the
//     paper's units);
//   * full trace-cycle reconstruction recovering the exact start cycle of
//     the disputed EngineData transmission (paper: 38.279 s);
//   * reconstruction restricted to the known failure window (paper:
//     3.082 s);
//   * UNSAT proof that the transmission did NOT complete before the
//     deadline (paper: 1.597 s).
//
// Budget per query: TP_BENCH_SECONDS (default 90 s for this binary, the
// queries are bigger than Table 1's).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "can/forensics.hpp"
#include "can/traffic.hpp"
#include "timeprint/reconstruct.hpp"

using namespace tp;

namespace {

double budget() {
  if (const char* env = std::getenv("TP_BENCH_SECONDS")) {
    const double v = std::atof(env);
    return v <= 0 ? -1.0 : v;
  }
  return 90.0;
}

struct Attempt {
  double seconds = -1.0;
  std::size_t found_start = 0;
  bool ok = false;
  sat::Status status = sat::Status::Unknown;
  sat::SolverStats stats;
};

Attempt reconstruct_start(const core::TimestampEncoding& enc,
                          const core::LogEntry& entry,
                          const std::vector<bool>& pattern, std::size_t lo,
                          std::size_t hi) {
  can::FrameAtUnknownStart prop(enc.m(), pattern, lo, hi);
  core::Reconstructor rec(enc);
  rec.add_property(prop);
  core::ReconstructionOptions opt;
  opt.max_solutions = 1;
  opt.gauss_max_unassigned = SIZE_MAX;  // frame placements assign many vars at once
  opt.limits.max_seconds = budget();
  const auto result = rec.reconstruct(entry, opt);
  Attempt a;
  a.status = result.final_status;
  a.seconds = result.seconds_total;
  a.stats = result.stats;
  if (!result.signals.empty()) {
    const auto starts = can::find_pattern(result.signals[0], pattern, lo, hi);
    if (!starts.empty()) {
      a.found_start = starts[0];
      a.ok = true;
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t m = 1000;
  const std::size_t b = 24;
  bench::JsonReport report("can_experiment", argc, argv);
  report.config()
      .set("m", static_cast<std::uint64_t>(m))
      .set("b", static_cast<std::uint64_t>(b))
      .set("budget_seconds", budget());
  const auto enc = core::TimestampEncoding::random_constrained(m, b, 4, 2019);

  std::printf("=== 5.2.1 CAN bus communication (budget %.0fs/query) ===\n\n", budget());
  std::printf("%-52s %10s %10s\n", "quantity", "paper", "ours");
  std::printf("%-52s %10s %10zu\n", "bits logged per trace-cycle (b + log m)",
              "34", enc.bits_per_trace_cycle());
  std::printf("%-52s %10s %9.0f\n", "log bits per millisecond at 5 Mbps", "170",
              enc.log_rate_bps(5e6) / 1000.0);

  // --- deployment: CANoe-like traffic with a manually injected delay ---
  can::CanoeDemoConfig cfg;
  cfg.engine_extra_delay = 180;
  can::CanBus bus = can::make_canoe_demo(cfg);
  bus.run(1200000);  // 240 ms of bus time

  core::StreamingLogger logger(enc);
  bool prev = true;
  for (bool level : bus.waveform()) {
    logger.tick(level != prev);
    prev = level;
  }

  // Pick an EngineData instance fully contained in one trace-cycle with no
  // other frame overlapping that trace-cycle (the paper's instance sat at
  // cycles 823..948 of its trace-cycle).
  const can::BusRecord* engine = nullptr;
  std::size_t tc = 0;
  for (const auto& r : bus.records()) {
    if (r.name != "EngineData") continue;
    const std::size_t t = static_cast<std::size_t>(r.start_bit) / m;
    if ((r.start_bit % m) + (r.end_bit - r.start_bit) > m) continue;
    bool overlap = false;
    for (const auto& o : bus.records()) {
      if (&o == &r) continue;
      if (o.start_bit < (t + 1) * m && o.end_bit > t * m) overlap = true;
    }
    if (!overlap) {
      engine = &r;
      tc = t;
      break;
    }
  }
  if (engine == nullptr) {
    std::printf("no suitable EngineData instance found\n");
    return 1;
  }

  const std::size_t start_rel = static_cast<std::size_t>(engine->start_bit) - tc * m;
  const auto pattern = can::frame_change_pattern(can::engine_data_frame(), false);
  const core::LogEntry entry = logger.log()[tc];
  std::printf("\ndisputed EngineData: trace-cycle %zu, true start cycle %zu "
              "(hidden from the analysis), frame length %zu bits, k=%zu\n\n",
              tc, start_rel, pattern.size(), entry.k);

  // --- (a) full trace-cycle reconstruction ---
  const Attempt full = reconstruct_start(enc, entry, pattern, 0, m);
  std::printf("%-52s %10s %10s  %s\n", "full trace-cycle reconstruction",
              "0m38.279s", bench::fmt_time(full.ok ? full.seconds : -1).c_str(),
              full.ok ? (full.found_start == start_rel ? "start recovered correctly"
                                                       : "WRONG start")
                      : "");
  report.add_solver_stats(full.stats);
  report.add_row(obs::Json::object()
                     .set("query", "full_trace_cycle")
                     .set("seconds", full.ok ? full.seconds : -1.0)
                     .set("start_recovered", full.ok && full.found_start == start_rel));

  // --- (b) restricted to the known failure window (335 cycles, like the
  // paper's 67 us window) ---
  const std::size_t win_lo = start_rel > 150 ? start_rel - 150 : 0;
  const std::size_t win_hi = start_rel + 185;
  const Attempt windowed = reconstruct_start(enc, entry, pattern, win_lo, win_hi);
  std::printf("%-52s %10s %10s  %s\n", "reconstruction within failure window",
              "0m3.082s", bench::fmt_time(windowed.ok ? windowed.seconds : -1).c_str(),
              windowed.ok ? (windowed.found_start == start_rel
                                 ? "start recovered correctly"
                                 : "WRONG start")
                          : "");
  report.add_solver_stats(windowed.stats);
  report.add_row(
      obs::Json::object()
          .set("query", "failure_window")
          .set("seconds", windowed.ok ? windowed.seconds : -1.0)
          .set("start_recovered", windowed.ok && windowed.found_start == start_rel));

  // --- (c) deadline proof: "the transmission completed before the
  // deadline" is refuted by UNSAT ---
  const std::size_t deadline_rel = start_rel + pattern.size() - 48;  // 48 cycles late
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  // Hypothesis encoded directly: the frame started early enough to finish
  // by the deadline, within the failure window.
  const std::size_t early_hi = deadline_rel - pattern.size() + 1;
  can::FrameAtUnknownStart early(m, pattern, win_lo, early_hi);
  core::Reconstructor rec(enc);
  rec.add_property(early);
  core::ReconstructionOptions opt;
  opt.max_solutions = 1;
  opt.gauss_max_unassigned = SIZE_MAX;  // frame placements assign many vars at once
  opt.limits.max_seconds = budget();
  const auto refute = rec.reconstruct(entry, opt);
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  const double deadline_s = refute.final_status == sat::Status::Unknown ? -1.0 : dt;
  const char* verdict =
      refute.final_status == sat::Status::Unsat
          ? "UNSAT: provably missed the deadline"
          : (refute.signals.empty() ? "budget exhausted" : "SAT?!");
  std::printf("%-52s %10s %10s  %s\n", "deadline-met hypothesis (expected UNSAT)",
              "0m1.597s", bench::fmt_time(deadline_s).c_str(), verdict);
  report.add_solver_stats(refute.stats);
  report.add_row(obs::Json::object()
                     .set("query", "deadline_refutation")
                     .set("seconds", deadline_s)
                     .set("proved_unsat",
                          refute.final_status == sat::Status::Unsat));
  report.finish();

  const bool correct = full.ok && full.found_start == start_rel && windowed.ok &&
                       windowed.found_start == start_rel &&
                       refute.final_status == sat::Status::Unsat;
  const bool paper_order = correct && windowed.seconds <= full.seconds &&
                           deadline_s <= full.seconds;
  const auto share = [](double ours, double paper) {
    if (ours < 0) return std::string("TO");
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.2fx", ours / paper);
    return std::string(buf);
  };
  std::printf("\nShape checks vs the paper: %s.\n"
              "Time as a share of the paper's (which ran CryptoMiniSat 2.x on an\n"
              "i7-7500U): full trace-cycle %s, failure window %s, deadline proof %s.\n"
              "%s\n",
              correct ? "the hidden transmission start is\n"
                        "recovered exactly and the deadline miss is proved by UNSAT"
                      : "NOT every query was answered\n"
                        "correctly within the budget",
              share(full.ok ? full.seconds : -1.0, 38.279).c_str(),
              share(windowed.ok ? windowed.seconds : -1.0, 3.082).c_str(),
              share(deadline_s, 1.597).c_str(),
              paper_order ? "As in the paper, the windowed and deadline queries, with fewer\n"
                            "candidate placements, are cheaper than the full one."
                          : "Unlike the paper, the windowed and deadline queries are not\n"
                            "both cheaper than the full one.");
  return 0;
}
