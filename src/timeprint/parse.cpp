#include "timeprint/parse.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace tp::core {

namespace {

[[noreturn]] void fail(const std::string& text, const std::string& why) {
  throw std::invalid_argument("parse_property: " + why + " in '" + text + "'");
}

std::vector<std::string> tokenize(std::string_view text) {
  std::istringstream ss{std::string(text)};
  std::vector<std::string> tokens;
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  return tokens;
}

std::size_t parse_number(const std::string& text, const std::string& token) {
  try {
    return core::parse_number(token);
  } catch (const std::invalid_argument& e) {
    fail(text, e.what());
  }
}

}  // namespace

std::unique_ptr<Property> parse_property(std::string_view text) {
  const std::string original(text);
  const auto tokens = tokenize(text);
  if (tokens.empty()) fail(original, "empty expression");
  const std::string& head = tokens[0];

  auto expect_args = [&](std::size_t n) {
    if (tokens.size() != n + 1) {
      fail(original, "'" + head + "' expects " + std::to_string(n) + " argument(s)");
    }
  };

  if (head == "p2") {
    expect_args(0);
    return std::make_unique<ExistsConsecutivePair>();
  }
  if (head == "no-p2") {
    expect_args(0);
    return std::make_unique<NoConsecutivePair>();
  }
  if (head == "pairs") {
    expect_args(0);
    return std::make_unique<ChangesInConsecutivePairs>();
  }
  if (head == "before") {
    expect_args(3);
    const std::size_t deadline = parse_number(original, tokens[1]);
    const std::size_t k = parse_number(original, tokens[3]);
    if (tokens[2] == "min") return std::make_unique<MinChangesBefore>(deadline, k);
    if (tokens[2] == "max") return std::make_unique<MaxChangesBefore>(deadline, k);
    fail(original, "expected 'min' or 'max', got '" + tokens[2] + "'");
  }
  if (head == "window") {
    if (tokens.size() < 4) fail(original, "'window' expects <lo> <hi> <mode>");
    const std::size_t lo = parse_number(original, tokens[1]);
    const std::size_t hi = parse_number(original, tokens[2]);
    if (hi <= lo) fail(original, "window bounds must satisfy lo < hi");
    const std::string& mode = tokens[3];
    if (mode == "any") {
      expect_args(3);
      return std::make_unique<ChangeInWindow>(lo, hi);
    }
    if (mode == "none") {
      expect_args(3);
      return std::make_unique<NoChangeInWindow>(lo, hi);
    }
    if (mode == "exactly") {
      expect_args(4);
      return std::make_unique<ExactlyKInWindow>(lo, hi,
                                                parse_number(original, tokens[4]));
    }
    fail(original, "unknown window mode '" + mode + "'");
  }
  if (head == "gap") {
    expect_args(1);
    return std::make_unique<MinGap>(parse_number(original, tokens[1]));
  }
  if (head == "max-gap") {
    expect_args(1);
    return std::make_unique<MaxGap>(parse_number(original, tokens[1]));
  }
  if (head == "known") {
    expect_args(2);
    const std::size_t cycle = parse_number(original, tokens[1]);
    if (tokens[2] != "0" && tokens[2] != "1") {
      fail(original, "expected 0 or 1, got '" + tokens[2] + "'");
    }
    return std::make_unique<KnownValue>(cycle, tokens[2] == "1");
  }
  fail(original, "unknown property '" + head + "'");
}

std::unique_ptr<Property> parse_properties(std::string_view text) {
  std::vector<std::unique_ptr<Property>> parts;
  std::size_t start = 0;
  const std::string original(text);
  while (start <= text.size()) {
    const std::size_t sep = text.find(';', start);
    const std::string_view piece =
        text.substr(start, sep == std::string_view::npos ? std::string_view::npos
                                                         : sep - start);
    if (!tokenize(piece).empty()) parts.push_back(parse_property(piece));
    if (sep == std::string_view::npos) break;
    start = sep + 1;
  }
  if (parts.empty()) {
    throw std::invalid_argument("parse_properties: no properties in '" + original +
                                "'");
  }
  if (parts.size() == 1) return std::move(parts[0]);
  return std::make_unique<Conjunction>(std::move(parts));
}

std::size_t parse_number(std::string_view token) {
  // std::stoull is more liberal than the grammar: it skips whitespace and
  // accepts a sign, silently wrapping "-3" to 2^64-3. Only an unsigned
  // digit string is a number here.
  const std::string tok(token);
  if (tok.empty() || tok[0] < '0' || tok[0] > '9') {
    throw std::invalid_argument("expected a number, got '" + tok + "'");
  }
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(tok, &pos);
    if (pos != tok.size()) {
      throw std::invalid_argument("trailing characters in number '" + tok + "'");
    }
    return static_cast<std::size_t>(v);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("number out of range: '" + tok + "'");
  }
}

}  // namespace tp::core
