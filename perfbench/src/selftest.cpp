// selftest — the answer checks must accept right answers and reject
// deliberately corrupted ones (a flipped signal bit, a wrong start cycle, a
// satisfied deadline hypothesis, a wrong delayed cycle, a damaged archive).

#include <cstdio>

#include "can/forensics.hpp"
#include "can/traffic.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using tp::core::LogEntry;
using tp::core::Signal;

struct Tally {
  int misjudged = 0;

  void expect(const char* what, const std::string& failure, bool should_fail) {
    const bool failed = !failure.empty();
    if (failed == should_fail) return;
    ++misjudged;
    std::fprintf(stderr, "self-test: %s was %s\n", what,
                 failed ? ("rejected: " + failure).c_str() : "accepted");
  }
};

Signal flipped(Signal s, std::size_t cycle) {
  s.set_change(cycle, !s.has_change(cycle));
  return s;
}

}  // namespace

int self_test() {
  Tally t;

  // Preimages.
  {
    const auto enc = tp::core::TimestampEncoding::random_constrained(32, 12, 4, 17);
    tp::f2::Rng rng(3);
    const Signal truth = Signal::random_with_changes(32, 5, rng);
    const LogEntry entry = make_entry(enc, truth);
    const auto r = tp::core::Reconstructor(enc).reconstruct(entry);
    t.expect("the reconstructed preimage",
             check_preimage(enc, entry, truth, r.signals, r.complete()), false);

    auto bad = r.signals;
    bad.front() = flipped(bad.front(), 0);
    t.expect("a preimage with one flipped signal bit",
             check_preimage(enc, entry, truth, bad, true), true);
    std::vector<Signal> without_truth;
    for (const Signal& s : r.signals) {
      if (!(s == truth)) without_truth.push_back(s);
    }
    t.expect("a preimage missing the ground truth",
             check_preimage(enc, entry, truth, without_truth, true), true);
    auto dup = r.signals;
    dup.push_back(dup.front());
    t.expect("a preimage with a duplicate", check_preimage(enc, entry, truth, dup, true), true);
    t.expect("an incomplete enumeration",
             check_preimage(enc, entry, truth, r.signals, false), true);
  }

  // CAN window and deadline.
  {
    const std::size_t m = 200, start = 60, lo = 20, hi = 80;
    const auto enc = tp::core::TimestampEncoding::random_constrained(m, 20, 4, 5);
    const auto pattern = tp::can::frame_change_pattern(tp::can::engine_data_frame(), false);
    Signal s(m);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i]) s.set_change(start + i);
    }
    const LogEntry entry = make_entry(enc, s);
    tp::core::ReconstructionResult r;
    r.signals = {s};
    r.final_status = tp::sat::Status::Unsat;
    t.expect("the right CAN answer", check_can_window(enc, entry, r, pattern, lo, hi, start),
             false);
    t.expect("a wrong start cycle",
             check_can_window(enc, entry, r, pattern, lo, hi, start + 1), true);
    auto bad = r;
    bad.signals = {flipped(s, start)};
    t.expect("a CAN signal with one flipped bit",
             check_can_window(enc, entry, bad, pattern, lo, hi, start), true);
    bad = r;
    bad.final_status = tp::sat::Status::Sat;
    t.expect("an unproven-unique CAN answer",
             check_can_window(enc, entry, bad, pattern, lo, hi, start), true);

    tp::core::ReconstructionResult refuted;
    refuted.final_status = tp::sat::Status::Unsat;
    t.expect("a refuted deadline", check_deadline(refuted), false);
    t.expect("a satisfied deadline hypothesis", check_deadline(r), true);
    tp::core::ReconstructionResult timed_out;
    t.expect("a timed-out deadline proof", check_deadline(timed_out), true);
  }

  // Delay localisation.
  {
    const Signal hw = Signal::from_change_cycles(16, {2, 6, 9});
    tp::soc::DelayLocalization loc;
    loc.hw_signal = hw;
    loc.delayed_cycle = 5;
    t.expect("the right localisation", check_localization(loc, hw, 5), false);
    t.expect("a wrong delayed cycle", check_localization(loc, hw, 6), true);
    t.expect("a wrong hardware signal", check_localization(loc, flipped(hw, 0), 5), true);
    t.expect("no localisation", check_localization(std::nullopt, hw, 5), true);
  }

  // Ingest.
  {
    const auto enc = tp::core::TimestampEncoding::random_constrained(32, 12, 4, 17);
    tp::core::StreamingLogger logger(enc);
    tp::f2::Rng rng(9);
    for (int c = 0; c < 32 * 4; ++c) logger.tick(rng.below(5) == 0);
    const tp::core::TraceLog& log = logger.log();
    const std::vector<LogEntry> archived = log.entries();
    t.expect("the right archive", check_ingest(archived, log, 0, 2, 2), false);
    auto bad = archived;
    bad[1].tp.set(0, !bad[1].tp.get(0));
    t.expect("an archive entry with one flipped bit", check_ingest(bad, log, 0, 2, 2), true);
    bad = archived;
    bad.pop_back();
    t.expect("a truncated archive", check_ingest(bad, log, 0, 2, 2), true);
    t.expect("a framing error", check_ingest(archived, log, 1, 2, 2), true);
    t.expect("a wrong divergence index", check_ingest(archived, log, 0, 3, 2), true);
  }
  return t.misjudged;
}

}  // namespace perfbench
