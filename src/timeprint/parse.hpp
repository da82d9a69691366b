#pragma once
// parse.hpp — a small textual property language.
//
// The paper's experiments were driven by "a tool, that directly takes CAN
// messages, and other temporal properties as input, and encodes the
// corresponding clauses to the SAT solver input" (§5.2.1). This is the
// property-input half of that tool: a compact, line-oriented grammar that
// maps onto the Property AST, used by the tpr command-line front end and
// available to embedders.
//
// Grammar (one property per expression; expressions joined with ';'):
//   p2                       at least one pair of consecutive changes
//   no-p2                    no two consecutive changes
//   pairs                    changes come as exactly two consecutive ones
//   before <D> min <k>       at least k changes before cycle D   (Dk)
//   before <D> max <k>       at most  k changes before cycle D
//   window <lo> <hi> any     at least one change in [lo, hi)
//   window <lo> <hi> none    no change in [lo, hi)
//   window <lo> <hi> exactly <k>   exactly k changes in [lo, hi)
//   gap <g>                  changes at least g cycles apart
//   max-gap <g>              consecutive changes at most g cycles apart
//   known <cycle> <0|1>      the change bit of one cycle is known

#include <memory>
#include <string_view>
#include <vector>

#include "timeprint/properties.hpp"

namespace tp::core {

/// Parse one property expression. Throws std::invalid_argument with a
/// human-readable message on malformed input.
std::unique_ptr<Property> parse_property(std::string_view text);

/// Parse a ';'-separated list of property expressions into a Conjunction
/// (a single property parses to itself). Empty input is invalid.
std::unique_ptr<Property> parse_properties(std::string_view text);

/// Parse an unsigned decimal number: digits only (no sign, whitespace or
/// trailing characters) that fit in std::size_t. Throws
/// std::invalid_argument naming the token otherwise. The numbers of the
/// property language and of tpr's command line are read through it.
std::size_t parse_number(std::string_view token);

}  // namespace tp::core
