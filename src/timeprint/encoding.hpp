#pragma once
// encoding.hpp — timestamp encodings TS : [1..m] -> F2^b.
//
// An encoding assigns each clock cycle of a trace-cycle a b-bit timestamp.
// The choice governs the ambiguity of the logging abstraction (paper §4.3):
// linearly independent timestamps (one-hot) give a unique reconstruction
// but need b = m bits; compressed timestamps shrink the log but admit more
// solutions of A·x = TP. The paper's sweet spot is "linear independence up
// to depth 4" (LI-4): every subset of <= 4 timestamps is independent, i.e.
// any two signals differing in <= 4 change instances stay distinguishable.
//
// Two LI-d constructions from the paper (§5.1.2) are provided:
//  * random-constrained — draw random b-bit vectors, keep those that
//    preserve LI-d;
//  * incremental — lexicographic greedy ("start from the smallest value,
//    increment, keep if LI-d still holds"), a greedy lexicode.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "f2/bitvec.hpp"
#include "f2/matrix.hpp"

namespace tp::core {

/// How an encoding's timestamps were constructed.
enum class EncodingScheme {
  OneHot,             ///< TS(i) = e_i; b = m, zero ambiguity
  Binary,             ///< TS(i) = binary(i+1); b = ceil(log2(m+1)), maximal compression
  RandomConstrained,  ///< random vectors filtered through the LI-d check
  Incremental,        ///< lexicographic greedy lexicode under LI-d
};

/// Human-readable scheme name.
const char* to_string(EncodingScheme scheme);

/// A concrete timestamp encoding for trace-cycles of length m with b-bit
/// timestamps. Immutable after construction.
class TimestampEncoding {
 public:
  /// One-hot encoding: b = m, fully unambiguous (paper §4.3's "ideal" end
  /// of the trade-off). Throws std::invalid_argument for m = 0.
  static TimestampEncoding one_hot(std::size_t m);

  /// Binary encoding of the cycle index (i+1 so that no timestamp is the
  /// zero vector): b = ceil(log2(m+1)). LI-1 only — maximal ambiguity.
  /// Throws std::invalid_argument for m = 0.
  static TimestampEncoding binary(std::size_t m);

  /// Random-constrained LI-depth encoding with the given width. Draws
  /// random b-bit vectors and keeps those preserving LI-depth; throws
  /// std::runtime_error if m timestamps cannot be found within
  /// `max_attempts` draws (width too small), and std::invalid_argument
  /// for m = 0, b = 0 or depth outside [1, 4].
  static TimestampEncoding random_constrained(std::size_t m, std::size_t b,
                                              std::size_t depth, std::uint64_t seed,
                                              std::uint64_t max_attempts = 1u << 22);

  /// Incremental (lexicographic greedy) LI-depth encoding with the given
  /// width: starts from value 1 and increments, keeping each value that
  /// preserves LI-depth. Throws std::runtime_error if the b-bit space is
  /// exhausted before m timestamps are found, and std::invalid_argument
  /// for m = 0, b = 0 or depth outside [1, 4].
  static TimestampEncoding incremental(std::size_t m, std::size_t b,
                                       std::size_t depth);

  /// Smallest width for which the incremental construction reaches m
  /// timestamps (tries growing b until success, from the narrowest width
  /// the LI-depth counting bound allows). Throws std::invalid_argument for
  /// m = 0 or depth outside [1, 4].
  static TimestampEncoding incremental_auto(std::size_t m, std::size_t depth);

  /// Grows b, from the same counting bound, until the random-constrained
  /// construction succeeds. Throws std::invalid_argument for m = 0 or
  /// depth outside [1, 4].
  static TimestampEncoding random_constrained_auto(std::size_t m, std::size_t depth,
                                                   std::uint64_t seed);

  /// Wrap explicit timestamp vectors (all of equal dimension). Used for
  /// fixed encodings such as the paper's Figure 4 example; `depth` records
  /// the LI depth the caller claims (verify with verify_li()). Throws
  /// std::invalid_argument for no vectors or unequal widths.
  static TimestampEncoding from_vectors(std::vector<f2::BitVec> timestamps,
                                        std::size_t depth);

  /// Trace-cycle length m.
  std::size_t m() const { return timestamps_.size(); }

  /// Timestamp width b.
  std::size_t width() const { return width_; }

  /// LI depth the construction guaranteed: m for OneHot, 1 for Binary
  /// (nonzero only), the requested depth for the LI-d constructions and
  /// the caller's claim for from_vectors().
  std::size_t depth() const { return depth_; }

  /// The construction scheme.
  EncodingScheme scheme() const { return scheme_; }

  /// TS(i) for 0-based cycle i.
  const f2::BitVec& timestamp(std::size_t i) const { return timestamps_[i]; }

  /// All timestamps, cycle order.
  const std::vector<f2::BitVec>& timestamps() const { return timestamps_; }

  /// The matrix A = [TS(1) | ... | TS(m)] of the reconstruction problem.
  f2::Matrix to_matrix() const { return f2::Matrix::from_columns(timestamps_); }

  /// Re-verify that every subset of size <= depth is linearly independent
  /// by replaying the timestamps through f2::LiChecker: O(m) lookups per
  /// timestamp, and at depth >= 3 it inserts all C(m, 2) pairwise XORs.
  /// encoding_stats() and the examples call it, not only tests. Throws
  /// std::invalid_argument for depth outside [1, 4] or a zero width.
  bool verify_li(std::size_t depth) const;

  /// Bits logged per trace-cycle: b for the timeprint plus ceil(log2(m+1))
  /// for the change counter k (paper §3.1).
  std::size_t bits_per_trace_cycle() const;

  /// Logging bit-rate in bits/second for a traced signal clocked at
  /// `clock_hz` (paper §5.1.1: (b + log m) / m × clock rate).
  double log_rate_bps(double clock_hz) const;

 private:
  TimestampEncoding(std::vector<f2::BitVec> timestamps, std::size_t width,
                    std::size_t depth, EncodingScheme scheme)
      : timestamps_(std::move(timestamps)),
        width_(width),
        depth_(depth),
        scheme_(scheme) {}

  std::vector<f2::BitVec> timestamps_;
  std::size_t width_;
  std::size_t depth_;
  EncodingScheme scheme_;
};

/// Number of bits needed for the change counter k in [0..m]:
/// ceil(log2(m+1)).
std::size_t counter_bits(std::size_t m);

}  // namespace tp::core
