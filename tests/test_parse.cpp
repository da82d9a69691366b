// Tests for the textual property language.

#include <gtest/gtest.h>

#include "timeprint/parse.hpp"

#include "sat/solver.hpp"

namespace tp::core {
namespace {

TEST(Parse, P2Family) {
  EXPECT_TRUE(parse_property("p2")->holds(Signal::from_change_cycles(8, {2, 3})));
  EXPECT_FALSE(parse_property("p2")->holds(Signal::from_change_cycles(8, {2, 4})));
  EXPECT_TRUE(parse_property("no-p2")->holds(Signal::from_change_cycles(8, {2, 4})));
  EXPECT_TRUE(parse_property("pairs")->holds(Signal::from_change_cycles(8, {2, 3})));
  EXPECT_FALSE(parse_property("pairs")->holds(Signal::from_change_cycles(8, {2})));
}

TEST(Parse, Before) {
  auto dk = parse_property("before 32 min 3");
  EXPECT_TRUE(dk->holds(Signal::from_change_cycles(64, {1, 2, 3})));
  EXPECT_FALSE(dk->holds(Signal::from_change_cycles(64, {1, 2, 40})));
  auto maxp = parse_property("before 10 max 1");
  EXPECT_TRUE(maxp->holds(Signal::from_change_cycles(64, {5, 20})));
  EXPECT_FALSE(maxp->holds(Signal::from_change_cycles(64, {5, 6})));
}

TEST(Parse, Windows) {
  EXPECT_TRUE(parse_property("window 2 5 any")->holds(Signal::from_change_cycles(8, {3})));
  EXPECT_FALSE(parse_property("window 2 5 any")->holds(Signal::from_change_cycles(8, {6})));
  EXPECT_TRUE(parse_property("window 2 5 none")->holds(Signal::from_change_cycles(8, {6})));
  EXPECT_TRUE(parse_property("window 0 8 exactly 2")
                  ->holds(Signal::from_change_cycles(8, {1, 6})));
  EXPECT_FALSE(parse_property("window 0 8 exactly 2")
                   ->holds(Signal::from_change_cycles(8, {1})));
}

TEST(Parse, GapAndKnown) {
  EXPECT_TRUE(parse_property("gap 3")->holds(Signal::from_change_cycles(12, {0, 4})));
  EXPECT_FALSE(parse_property("gap 3")->holds(Signal::from_change_cycles(12, {0, 2})));
  EXPECT_TRUE(parse_property("known 3 1")->holds(Signal::from_change_cycles(8, {3})));
  EXPECT_TRUE(parse_property("known 3 0")->holds(Signal(8)));
}

TEST(Parse, ConjunctionViaSemicolons) {
  auto p = parse_properties("p2; before 8 min 1 ; gap 1");
  EXPECT_TRUE(p->holds(Signal::from_change_cycles(16, {2, 3})));
  EXPECT_FALSE(p->holds(Signal::from_change_cycles(16, {10, 11})));  // deadline
  // A single expression parses to the property itself.
  auto single = parse_properties("p2");
  EXPECT_NE(single->describe().find("P2"), std::string::npos);
}

TEST(Parse, WhitespaceTolerance) {
  EXPECT_NO_THROW(parse_property("  before   32   min  3 "));
  EXPECT_NO_THROW(parse_properties(" p2 ;; pairs ; "));
}

TEST(Parse, RejectsNegativeAndSignedNumbers) {
  // std::stoull accepts a leading '-' and wraps modulo 2^64, so "before -3
  // min 1" used to parse with deadline 18446744073709551613. Any signed or
  // non-digit-leading token must be an error.
  EXPECT_THROW(parse_property("before -3 min 1"), std::invalid_argument);
  EXPECT_THROW(parse_property("before 32 min -1"), std::invalid_argument);
  EXPECT_THROW(parse_property("gap -2"), std::invalid_argument);
  EXPECT_THROW(parse_property("window -1 5 any"), std::invalid_argument);
  EXPECT_THROW(parse_property("window 0 8 exactly -2"), std::invalid_argument);
  EXPECT_THROW(parse_property("known -1 0"), std::invalid_argument);
  EXPECT_THROW(parse_property("gap +2"), std::invalid_argument);
}

TEST(Parse, RejectsOverflowingNumbers) {
  EXPECT_THROW(parse_property("gap 99999999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(parse_property("before 18446744073709551616 min 1"),
               std::invalid_argument);
}

TEST(Parse, NumbersAreUnsignedDigitStrings) {
  EXPECT_EQ(parse_number("0"), 0u);
  EXPECT_EQ(parse_number("18446744073709551615"), 18446744073709551615u);
  for (const char* bad : {"", "4x", "-1", "+1", " 1", "abc", "1.5",
                          "18446744073709551616"}) {
    EXPECT_THROW(parse_number(bad), std::invalid_argument) << "'" << bad << "'";
  }
}

TEST(Parse, Errors) {
  EXPECT_THROW(parse_property(""), std::invalid_argument);
  EXPECT_THROW(parse_property("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_property("p2 extra"), std::invalid_argument);
  EXPECT_THROW(parse_property("before 32 min"), std::invalid_argument);
  EXPECT_THROW(parse_property("before 32 avg 3"), std::invalid_argument);
  EXPECT_THROW(parse_property("before x min 3"), std::invalid_argument);
  EXPECT_THROW(parse_property("window 5 2 any"), std::invalid_argument);
  EXPECT_THROW(parse_property("window 2 5 maybe"), std::invalid_argument);
  EXPECT_THROW(parse_property("known 3 2"), std::invalid_argument);
  EXPECT_THROW(parse_properties(" ; ; "), std::invalid_argument);
}

TEST(Parse, ParsedPropertiesEncode) {
  // A parsed property must be usable in a reconstruction directly.
  auto p = parse_properties("before 8 min 1; gap 2");
  sat::Solver solver;
  std::vector<sat::Var> x;
  for (int i = 0; i < 12; ++i) x.push_back(solver.new_var());
  EXPECT_TRUE(p->encode(solver, x));
  EXPECT_EQ(solver.solve(), sat::Status::Sat);
}

}  // namespace
}  // namespace tp::core
