// Tests for joint reconstruction across adjacent trace-cycles.

#include <gtest/gtest.h>

#include "can/forensics.hpp"
#include "timeprint/joint.hpp"

namespace tp::core {
namespace {

TEST(Joint, SingleWindowEqualsPlainReconstruction) {
  auto enc = TimestampEncoding::random_constrained(16, 9, 4, 3);
  Logger logger(enc);
  const Signal s = Signal::from_change_cycles(16, {2, 3, 9});
  const LogEntry entry = logger.log(s);

  Reconstructor plain(enc);
  auto a = plain.reconstruct(entry);
  JointReconstructor joint(enc);
  auto b = joint.reconstruct({entry});
  ASSERT_TRUE(a.complete());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(a.signals.size(), b.signals.size());
}

TEST(Joint, TwoWindowsFactorize) {
  // Without span properties, solutions of two windows are the cartesian
  // product of each window's solutions.
  auto enc = TimestampEncoding::random_constrained(12, 8, 4, 5);
  Logger logger(enc);
  f2::Rng rng(9);
  const Signal s0 = Signal::random_with_changes(12, 3, rng);
  const Signal s1 = Signal::random_with_changes(12, 2, rng);
  const LogEntry e0 = logger.log(s0);
  const LogEntry e1 = logger.log(s1);

  Reconstructor plain(enc);
  const std::size_t n0 = plain.reconstruct(e0).signals.size();
  const std::size_t n1 = plain.reconstruct(e1).signals.size();

  JointReconstructor joint(enc);
  auto jr = joint.reconstruct({e0, e1});
  ASSERT_TRUE(jr.complete());
  EXPECT_EQ(jr.signals.size(), n0 * n1);
  for (const Signal& s : jr.signals) {
    EXPECT_EQ(s.length(), 24u);
    // Each half must abstract to its window's entry.
    Signal lo(12), hi(12);
    for (std::size_t i = 0; i < 12; ++i) {
      lo.set_change(i, s.has_change(i));
      hi.set_change(i, s.has_change(12 + i));
    }
    EXPECT_EQ(logger.log(lo), e0);
    EXPECT_EQ(logger.log(hi), e1);
  }
}

TEST(Joint, SpanPropertyCrossesBoundary) {
  // A pattern straddling the boundary: changes at cycles 10, 11 (window 0)
  // and 12, 13 (window 1) of the concatenated span.
  auto enc = TimestampEncoding::random_constrained(12, 8, 4, 7);
  Logger logger(enc);
  Signal lo(12), hi(12);
  lo.set_change(10);
  lo.set_change(11);
  hi.set_change(0);
  hi.set_change(1);
  const LogEntry e0 = logger.log(lo);
  const LogEntry e1 = logger.log(hi);

  // Span property: four consecutive changes starting somewhere in [8, 16).
  std::vector<bool> pattern(4, true);
  can::FrameAtUnknownStart prop(24, pattern, 8, 16);

  JointReconstructor joint(enc);
  joint.add_property(prop);
  auto jr = joint.reconstruct({e0, e1});
  ASSERT_TRUE(jr.complete());
  ASSERT_FALSE(jr.signals.empty());
  for (const Signal& s : jr.signals) {
    EXPECT_TRUE(prop.holds(s));
  }
  // The actual concatenated signal is among the solutions.
  Signal actual(24);
  for (std::size_t c : {10u, 11u, 12u, 13u}) actual.set_change(c);
  EXPECT_NE(std::find(jr.signals.begin(), jr.signals.end(), actual),
            jr.signals.end());
}

TEST(Joint, InconsistentEntriesAreUnsat) {
  auto enc = TimestampEncoding::one_hot(8);
  // k = 1 with a zero timeprint is impossible under one-hot.
  JointReconstructor joint(enc);
  auto jr = joint.reconstruct({{f2::BitVec(8), 1}, {f2::BitVec(8), 0}});
  EXPECT_TRUE(jr.complete());
  EXPECT_TRUE(jr.signals.empty());
}

TEST(Joint, ChangeCountAboveIntRangeIsNotTruncated) {
  // A window's k = 2^32 + 3 must not be read as k = 3.
  auto enc = TimestampEncoding::random_constrained(16, 9, 4, 3);
  Logger logger(enc);
  const LogEntry plain = logger.log(Signal::from_change_cycles(16, {2, 3, 9}));
  JointReconstructor joint(enc);
  ASSERT_FALSE(joint.reconstruct({plain}).signals.empty());
  LogEntry wide = plain;
  wide.k += std::size_t{1} << 32;
  auto jr = joint.reconstruct({wide});
  EXPECT_TRUE(jr.complete());
  EXPECT_TRUE(jr.signals.empty());
}

TEST(Joint, ThreeWindows) {
  auto enc = TimestampEncoding::one_hot(6);  // unambiguous per window
  Logger logger(enc);
  f2::Rng rng(4);
  std::vector<Signal> parts;
  std::vector<LogEntry> entries;
  for (int w = 0; w < 3; ++w) {
    parts.push_back(Signal::random_with_changes(6, 2, rng));
    entries.push_back(logger.log(parts.back()));
  }
  JointReconstructor joint(enc);
  auto jr = joint.reconstruct(entries);
  ASSERT_TRUE(jr.complete());
  ASSERT_EQ(jr.signals.size(), 1u);
  for (int w = 0; w < 3; ++w) {
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(jr.signals[0].has_change(static_cast<std::size_t>(w) * 6 + i),
                parts[static_cast<std::size_t>(w)].has_change(i));
    }
  }
}

// Adds nothing to the encoding but rejects every signal: only a verifier
// that evaluates holds() on the decoded span signals can notice.
class LyingProperty final : public Property {
 public:
  bool holds(const Signal&) const override { return false; }
  bool encode(sat::SolverInterface&, const std::vector<sat::Var>&) const override {
    return true;
  }
  std::string describe() const override { return "lying"; }
};

TEST(Joint, VerifyModelsRejectsSignalsTheEncodingLetThrough) {
  auto enc = TimestampEncoding::random_constrained(12, 8, 4, 5);
  Logger logger(enc);
  const LogEntry e0 = logger.log(Signal::from_change_cycles(12, {1, 7}));
  const LogEntry e1 = logger.log(Signal::from_change_cycles(12, {4}));
  LyingProperty lie;
  JointReconstructor joint(enc);
  joint.add_property(lie);
  ReconstructionOptions opt;
  ASSERT_FALSE(joint.reconstruct({e0, e1}, opt).signals.empty());
  opt.verify_models = true;
  EXPECT_THROW(joint.reconstruct({e0, e1}, opt), std::logic_error);
}

TEST(Joint, VerifyModelsAcceptsSpansThatShareAWindowSlice) {
  // Two three-change windows: the span preimage is the product of the
  // windows' preimages, so span signals share window slices without being
  // duplicates.
  auto enc = TimestampEncoding::random_constrained(12, 8, 4, 5);
  Logger logger(enc);
  f2::Rng rng(9);
  const LogEntry e0 = logger.log(Signal::random_with_changes(12, 3, rng));
  const LogEntry e1 = logger.log(Signal::random_with_changes(12, 3, rng));
  JointReconstructor joint(enc);
  ReconstructionOptions opt;
  opt.verify_models = true;
  const auto r = joint.reconstruct({e0, e1}, opt);
  EXPECT_TRUE(r.complete());
  Reconstructor plain(enc);
  const std::size_t n0 = plain.reconstruct(e0).signals.size();
  ASSERT_GE(n0, 2u);
  EXPECT_EQ(r.signals.size(), n0 * plain.reconstruct(e1).signals.size());
}

}  // namespace
}  // namespace tp::core
