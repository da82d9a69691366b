// can_forensics.cpp — who is responsible for the late car response?
//
// The paper's §5.2.1 scenario: two ECUs dispute the transmission time of
// the EngineData message. The bus traffic is simulated (CANoe-demo-like
// schedule, 5 Mbps), timeprints of the bus line are logged with m = 1000
// and b = 24, and the postmortem analysis (a) pins down the exact
// transmission start cycle within the known failure window and (b) proves
// whether the deadline was met — from the 34-bit log entry alone. A final
// section shows joint reconstruction across two adjacent trace-cycles for
// a frame that straddles the boundary.
//
// Run: ./can_forensics [extra_delay_bits]

#include <cstdio>
#include <cstdlib>

#include "can/forensics.hpp"
#include "can/traffic.hpp"
#include "timeprint/joint.hpp"
#include "timeprint/reconstruct.hpp"

using namespace tp;

namespace {

// Find an EngineData record; `contained` selects whether it must fit
// inside one trace-cycle or straddle a boundary.
const can::BusRecord* find_engine(const can::CanBus& bus, std::size_t m,
                                  bool contained) {
  for (const auto& r : bus.records()) {
    if (r.name != "EngineData") continue;
    const bool fits = (r.start_bit % m) + (r.end_bit - r.start_bit) <= m;
    if (fits != contained) continue;
    // Require no other frame overlapping the touched trace-cycles.
    const std::uint64_t lo = (r.start_bit / m) * m;
    const std::uint64_t hi = ((r.end_bit - 1) / m + 1) * m;
    bool overlap = false;
    for (const auto& o : bus.records()) {
      if (&o == &r) continue;
      if (o.start_bit < hi && o.end_bit > lo) overlap = true;
    }
    if (!overlap) return &r;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t extra_delay =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 180;

  can::CanoeDemoConfig cfg;
  cfg.engine_extra_delay = extra_delay;  // the disputed delay
  can::CanBus bus = can::make_canoe_demo(cfg);

  const std::size_t m = 1000;
  const auto enc = core::TimestampEncoding::random_constrained(m, 24, 4, 2019);
  std::printf("== CAN forensics (paper 5.2.1) ==\n\n");
  std::printf("bus: 5 Mbps, m = %zu, b = %zu -> %zu log bits per trace-cycle "
              "(%.0f bits/ms)\n\n",
              m, enc.width(), enc.bits_per_trace_cycle(),
              enc.log_rate_bps(5e6) / 1000.0);

  bus.run(1200000);  // 240 ms of bus time
  core::StreamingLogger logger(enc);
  bool prev = true;
  for (bool level : bus.waveform()) {
    logger.tick(level != prev);
    prev = level;
  }

  const auto pattern = can::frame_change_pattern(can::engine_data_frame(), false);

  // ---- part 1: frame inside one trace-cycle (the paper's case) ----
  const can::BusRecord* engine = find_engine(bus, m, /*contained=*/true);
  if (engine == nullptr) {
    std::printf("no contained EngineData instance in this run\n");
    return 1;
  }
  const std::size_t tc = static_cast<std::size_t>(engine->start_bit) / m;
  const std::size_t start_rel = static_cast<std::size_t>(engine->start_bit) - tc * m;
  const core::LogEntry entry = logger.log()[tc];
  std::printf("[1] disputed transmission in trace-cycle %zu (k = %zu); ground "
              "truth start: cycle %zu (hidden)\n",
              tc, entry.k, start_rel);

  // The failure window is known from the system-level failure analysis
  // (paper: a 67 us window); reconstruct within it.
  const std::size_t win_lo = start_rel > 150 ? start_rel - 150 : 0;
  can::FrameAtUnknownStart in_window(m, pattern, win_lo, start_rel + 185);
  core::Reconstructor rec(enc);
  rec.add_property(in_window);
  core::ReconstructionOptions opt;
  opt.max_solutions = 1;
  opt.gauss_max_unassigned = SIZE_MAX;  // frame placements assign many vars at once
  opt.limits.max_seconds = 60;
  auto result = rec.reconstruct(entry, opt);
  if (result.signals.empty()) {
    std::printf("    reconstruction inconclusive within budget\n");
  } else {
    const auto starts = can::find_pattern(result.signals[0], pattern, 0, m);
    std::printf("    reconstructed start: cycle %zu [%.3fs] -> %s\n", starts[0],
                result.seconds_total,
                starts[0] == start_rel ? "matches ground truth" : "MISMATCH");
  }

  // Deadline proof: "the frame completed before the deadline" must be
  // refuted (UNSAT) when the injected delay made it late.
  const std::size_t deadline_rel = start_rel + pattern.size() - 48;
  can::FrameAtUnknownStart early(m, pattern, win_lo,
                                 deadline_rel - pattern.size() + 1);
  core::Reconstructor refuter(enc);
  refuter.add_property(early);
  auto refute = refuter.reconstruct(entry, opt);
  std::printf("    deadline-met hypothesis: %s [%.3fs]\n\n",
              refute.final_status == sat::Status::Unsat
                  ? "UNSAT -> provably missed (sender responsible)"
                  : "not refuted",
              refute.seconds_total);

  // ---- part 2: frame straddling a trace-cycle boundary ----
  const can::BusRecord* straddler = find_engine(bus, m, /*contained=*/false);
  if (straddler != nullptr) {
    const std::size_t tc0 = static_cast<std::size_t>(straddler->start_bit) / m;
    const std::size_t rel = static_cast<std::size_t>(straddler->start_bit) - tc0 * m;
    std::printf("[2] another instance straddles trace-cycles %zu/%zu (starts "
                "at cycle %zu)\n",
                tc0, tc0 + 1, rel);
    core::JointReconstructor joint(enc);
    can::FrameAtUnknownStart somewhere(2 * m, pattern, rel > 100 ? rel - 100 : 0,
                                       rel + 101);
    joint.add_property(somewhere);
    auto jr = joint.reconstruct({logger.log()[tc0], logger.log()[tc0 + 1]}, opt);
    if (jr.signals.empty()) {
      std::printf("    joint reconstruction inconclusive within budget\n");
    } else {
      const auto starts = can::find_pattern(jr.signals[0], pattern, 0, 2 * m);
      std::printf("    joint reconstruction over both windows: start cycle %zu "
                  "[%.3fs] -> %s\n",
                  starts[0], jr.seconds_total,
                  starts[0] == rel ? "matches ground truth" : "MISMATCH");
    }
  }
  return 0;
}
