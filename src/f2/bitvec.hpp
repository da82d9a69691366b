#pragma once
// bitvec.hpp — fixed-size bit vectors over F2 (the two-element field).
//
// A BitVec models an element of F2^n: addition is bitwise XOR, scalar
// multiplication is trivial. BitVec is the basic datatype of the whole
// library: timestamps TS(i), timeprints TP, signals, and matrix rows are
// all BitVecs. Bit 0 is the least-significant bit; to_string() prints
// MSB-first so that the printed form matches the paper's figures.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tp::f2 {

/// Deterministic 64-bit PRNG (splitmix64). Used everywhere randomness is
/// needed so that experiments are reproducible from a seed.
class Rng {
 public:
  /// Construct with an explicit seed; the same seed always yields the same
  /// stream on every platform.
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform value in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Fair coin flip.
  bool flip() { return (next() >> 63) != 0; }

 private:
  std::uint64_t state_;
};

/// A fixed-dimension vector over F2, packed 64 bits per word.
///
/// The dimension is set at construction and never changes; all binary
/// operations require equal dimensions (checked with assertions).
class BitVec {
 public:
  /// Zero vector of dimension n (n may be 0).
  explicit BitVec(std::size_t n = 0);

  /// Vector of dimension n whose low 64 bits are `value` (bit i of `value`
  /// becomes coordinate i). Bits at positions >= n must be zero in `value`
  /// when n < 64.
  static BitVec from_uint(std::size_t n, std::uint64_t value);

  /// Vector of dimension n from its packed words (LSB-first, as words()
  /// returns them): ceil(n / 64) words, bits at positions >= n zero.
  static BitVec from_words(std::size_t n, std::span<const std::uint64_t> words);

  /// Parse an MSB-first string of '0'/'1' characters, e.g. "00010100".
  /// The string length gives the dimension. Throws std::invalid_argument
  /// naming the first other character and its position.
  static BitVec from_string(std::string_view bits);

  /// Uniformly random vector of dimension n.
  static BitVec random(std::size_t n, Rng& rng);

  /// Overwrite every coordinate with a uniformly random bit, drawing the
  /// same Rng stream random() does: one next() per word, the tail masked.
  /// Reuses the storage, so a draw loop allocates nothing.
  void randomize(Rng& rng);

  /// One-hot vector of dimension n with coordinate `pos` set.
  static BitVec unit(std::size_t n, std::size_t pos);

  /// Dimension of the vector.
  std::size_t size() const { return size_; }

  /// Read coordinate i (0-based, i < size()).
  bool get(std::size_t i) const;

  /// Write coordinate i.
  void set(std::size_t i, bool value);

  /// Toggle coordinate i.
  void flip(std::size_t i);

  /// True iff every coordinate is 0.
  bool is_zero() const;

  /// Number of coordinates set to 1 (Hamming weight).
  std::size_t popcount() const;

  /// Index of the highest set coordinate; size() if the vector is zero.
  std::size_t highest_set() const;

  /// Index of the lowest set coordinate; size() if the vector is zero.
  std::size_t lowest_set() const;

  /// In-place vector addition over F2 (bitwise XOR).
  BitVec& operator^=(const BitVec& other);

  /// Vector addition over F2.
  friend BitVec operator^(BitVec a, const BitVec& b) {
    a ^= b;
    return a;
  }

  /// Coordinate-wise AND (useful for masking).
  BitVec& operator&=(const BitVec& other);

  /// Clear every coordinate that is set in `other` (this &= ~other).
  BitVec& and_not(const BitVec& other);

  /// Interpret the vector as an unsigned integer and add 1 (mod 2^n).
  /// Used by the incremental (lexicographic greedy) timestamp encoding.
  void increment();

  /// Equality of dimension and all coordinates.
  bool operator==(const BitVec& other) const = default;

  /// Lexicographic order treating the vector as an integer (coordinate 0 is
  /// the least significant bit). Vectors of different dimensions compare by
  /// dimension first.
  std::strong_ordering operator<=>(const BitVec& other) const;

  /// MSB-first textual form, e.g. "00010100" (matches the paper's Figure 4).
  std::string to_string() const;

  /// The low min(size, 64) coordinates as an integer.
  std::uint64_t to_uint() const;

  /// FNV-style hash of the content (for hash sets of vectors).
  std::size_t hash() const;

  /// Dot product over F2: parity of the AND of the two vectors.
  bool dot(const BitVec& other) const;

  /// Raw word storage (read-only), 64 coordinates per word, LSB-first.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Number of 64-bit storage words (== ceil(size() / 64)).
  std::size_t num_words() const { return words_.size(); }

  /// Word i of the packed storage (i < num_words()).
  std::uint64_t word(std::size_t i) const { return words_[i]; }

  /// Copy of this vector with dimension n: coordinates < min(size, n) are
  /// preserved, new coordinates are zero, excess coordinates are dropped.
  /// Word-level copy — used by the elimination kernels to widen rows into
  /// augmented form without a per-bit loop.
  BitVec resized(std::size_t n) const;

 private:
  void clear_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tp::f2

template <>
struct std::hash<tp::f2::BitVec> {
  std::size_t operator()(const tp::f2::BitVec& v) const { return v.hash(); }
};
