#include "timeprint/encoding.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace tp::core {

const char* to_string(EncodingScheme scheme) {
  switch (scheme) {
    case EncodingScheme::OneHot: return "one-hot";
    case EncodingScheme::Binary: return "binary";
    case EncodingScheme::RandomConstrained: return "random-constrained";
    case EncodingScheme::Incremental: return "incremental";
  }
  return "?";
}

std::size_t counter_bits(std::size_t m) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < m + 1) ++bits;
  return bits;
}

TimestampEncoding TimestampEncoding::one_hot(std::size_t m) {
  if (m == 0) throw std::invalid_argument("one_hot: m must be >= 1");
  std::vector<f2::BitVec> ts;
  ts.reserve(m);
  for (std::size_t i = 0; i < m; ++i) ts.push_back(f2::BitVec::unit(m, i));
  return TimestampEncoding(std::move(ts), m, m, EncodingScheme::OneHot);
}

TimestampEncoding TimestampEncoding::binary(std::size_t m) {
  if (m == 0) throw std::invalid_argument("binary: m must be >= 1");
  const std::size_t b = counter_bits(m);
  std::vector<f2::BitVec> ts;
  ts.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    ts.push_back(f2::BitVec::from_uint(b, i + 1));
  }
  return TimestampEncoding(std::move(ts), b, 1, EncodingScheme::Binary);
}

namespace {

// The LI-d constructions need m >= 1 timestamps of width b >= 1 at a depth
// the checker supports. Thrown in every build type, as are the checks of
// the other constructors: tpr passes command-line values straight in.
void check_li_args(const char* fn, std::size_t m, std::size_t b, std::size_t depth) {
  const std::string where = std::string(fn) + ": ";
  if (m == 0) throw std::invalid_argument(where + "m must be >= 1");
  if (b == 0) throw std::invalid_argument(where + "width b must be >= 1");
  if (depth < 1 || depth > 4) {
    throw std::invalid_argument(where + "depth " + std::to_string(depth) +
                                " not in [1, 4]");
  }
}

// The narrowest width at which an LI-d encoding of m timestamps can exist.
// At depth 4 the m members and their C(m, 2) pairwise XORs must all be
// distinct and nonzero, so 2^b - 1 >= m + C(m, 2); below depth 4 only the
// members must be, so 2^b - 1 >= m.
std::size_t min_li_width(std::size_t m, std::size_t depth) {
  return counter_bits(depth >= 4 ? m + m * (m - 1) / 2 : m);
}

}  // namespace

TimestampEncoding TimestampEncoding::random_constrained(std::size_t m, std::size_t b,
                                                        std::size_t depth,
                                                        std::uint64_t seed,
                                                        std::uint64_t max_attempts) {
  check_li_args("random_constrained", m, b, depth);
  f2::Rng rng(seed);
  f2::LiChecker li(b, depth, m);
  f2::BitVec v(b);
  std::uint64_t attempts = 0;
  while (li.size() < m) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "random_constrained: width b=" + std::to_string(b) +
          " too small for m=" + std::to_string(m) + " at depth " +
          std::to_string(depth));
    }
    v.randomize(rng);  // the draws of f2::BitVec::random(b, rng), in place
    if (li.can_add(v)) li.add(v);
  }
  return TimestampEncoding(li.members(), b, depth, EncodingScheme::RandomConstrained);
}

TimestampEncoding TimestampEncoding::incremental(std::size_t m, std::size_t b,
                                                 std::size_t depth) {
  check_li_args("incremental", m, b, depth);
  f2::LiChecker li(b, depth, m);
  f2::BitVec v(b);
  v.increment();  // start from 1 (the smallest nonzero value)
  while (li.size() < m) {
    if (li.can_add(v)) li.add(v);
    if (li.size() == m) break;
    v.increment();
    if (v.is_zero()) {  // wrapped: the whole b-bit space is exhausted
      throw std::runtime_error("incremental: width b=" + std::to_string(b) +
                               " too small for m=" + std::to_string(m) +
                               " at depth " + std::to_string(depth));
    }
  }
  return TimestampEncoding(li.members(), b, depth, EncodingScheme::Incremental);
}

TimestampEncoding TimestampEncoding::incremental_auto(std::size_t m,
                                                      std::size_t depth) {
  check_li_args("incremental_auto", m, counter_bits(m), depth);
  for (std::size_t b = min_li_width(m, depth);; ++b) {
    try {
      return incremental(m, b, depth);
    } catch (const std::runtime_error&) {
      // width too small; grow
    }
  }
}

TimestampEncoding TimestampEncoding::random_constrained_auto(std::size_t m,
                                                             std::size_t depth,
                                                             std::uint64_t seed) {
  check_li_args("random_constrained_auto", m, counter_bits(m), depth);
  for (std::size_t b = min_li_width(m, depth);; ++b) {
    try {
      return random_constrained(m, b, depth, seed);
    } catch (const std::runtime_error&) {
      // width too small; grow
    }
  }
}

TimestampEncoding TimestampEncoding::from_vectors(std::vector<f2::BitVec> timestamps,
                                                  std::size_t depth) {
  if (timestamps.empty()) {
    throw std::invalid_argument("from_vectors: needs at least one timestamp");
  }
  const std::size_t b = timestamps.front().size();
  for (const f2::BitVec& v : timestamps) {
    if (v.size() != b) {
      throw std::invalid_argument("from_vectors: timestamps differ in width");
    }
  }
  return TimestampEncoding(std::move(timestamps), b, depth,
                           EncodingScheme::RandomConstrained);
}

bool TimestampEncoding::verify_li(std::size_t depth) const {
  f2::LiChecker li(width_, depth, m());
  for (const f2::BitVec& v : timestamps_) {
    if (!li.can_add(v)) return false;
    li.add(v);
  }
  return true;
}

std::size_t TimestampEncoding::bits_per_trace_cycle() const {
  return width_ + counter_bits(m());
}

double TimestampEncoding::log_rate_bps(double clock_hz) const {
  return static_cast<double>(bits_per_trace_cycle()) * clock_hz /
         static_cast<double>(m());
}

}  // namespace tp::core
