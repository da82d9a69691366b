#pragma once
// matrix.hpp — dense matrices and linear-system solving over F2.
//
// The reconstruction problem of the paper is, in linear-algebra form,
// "find all x in F2^m with A·x = TP and |x| = k" where the columns of A are
// the timestamps (paper §4.2). This module provides the plain linear
// algebra: rank, consistency, one particular solution and a null-space
// basis, which together describe the full (unweighted) solution set with
// 2^(m - rank) elements. The SAT layer adds the cardinality constraint.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "f2/bitvec.hpp"

namespace tp::f2 {

namespace detail {

/// Row-reduce `rows` in place to reduced row-echelon form over columns
/// [0, col_limit); columns >= col_limit never become pivots but are
/// updated by every row operation, so an augmented RHS (or a transform
/// block [A | I]) can ride along inside the row words. Returns the pivot
/// columns in increasing order; pivot row i ends up at rows[i], and rows
/// without a pivot end up zero (over [0, col_limit)) at the back.
///
/// Blocked "method of four Russians" elimination: pivots are collected in
/// stripes of up to ~log2(rows) columns, a 2^s table of stripe-row
/// combinations is built with one whole-row XOR per entry, and each
/// remaining row is cleared across the whole stripe with s bit reads plus
/// a single table XOR instead of s row XORs.
std::vector<std::size_t> row_reduce(std::vector<BitVec>& rows,
                                    std::size_t col_limit);

}  // namespace detail

/// Result of solving a linear system A·x = b over F2.
struct LinearSolution {
  /// One particular solution (any x with A·x = b).
  BitVec particular;
  /// Basis of the null space of A; the full solution set is
  /// { particular + sum of any subset of basis vectors }.
  std::vector<BitVec> nullspace;

  /// Number of solutions = 2^nullspace.size() (as long as it fits 64 bits).
  std::uint64_t count() const {
    return nullspace.size() >= 64 ? UINT64_MAX
                                  : (std::uint64_t{1} << nullspace.size());
  }
};

/// A rows × cols matrix over F2, stored row-major as BitVecs.
class Matrix {
 public:
  /// Zero matrix of the given shape.
  Matrix(std::size_t rows, std::size_t cols);

  /// Build a matrix whose columns are the given vectors (all of equal
  /// dimension, which becomes the row count). This matches the paper's
  /// A = [TS(1) | ... | TS(m)].
  static Matrix from_columns(const std::vector<BitVec>& columns);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Element access.
  bool get(std::size_t r, std::size_t c) const { return data_[r].get(c); }
  void set(std::size_t r, std::size_t c, bool v) { data_[r].set(c, v); }

  /// Row access (rows are BitVecs of dimension cols()).
  const BitVec& row(std::size_t r) const { return data_[r]; }
  BitVec& row(std::size_t r) { return data_[r]; }

  /// Column c as a BitVec of dimension rows().
  BitVec column(std::size_t c) const;

  /// Matrix-vector product A·x (x has dimension cols(), result rows()).
  BitVec multiply(const BitVec& x) const;

  /// Rank via Gaussian elimination (does not modify *this).
  std::size_t rank() const;

  /// Solve A·x = b. Returns std::nullopt when inconsistent; otherwise a
  /// particular solution plus a null-space basis describing all solutions.
  std::optional<LinearSolution> solve(const BitVec& b) const;

  /// True iff the given set of vectors is linearly independent.
  static bool linearly_independent(const std::vector<BitVec>& vectors);

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<BitVec> data_;
};

/// Incrementally maintained check that every subset of size <= depth of a
/// growing set of vectors stays linearly independent ("LI-d" in the paper,
/// §4.3). Supports depth 1..4. Equivalent characterisations used:
///   depth 1: no zero vector;
///   depth 2: all vectors distinct (and nonzero);
///   depth 3: v ∉ {a ^ b} for existing pairs;
///   depth 4: v ^ a ∉ {b ^ c}  (all pairwise XORs distinct).
///
/// Vectors are kept as their ceil(dim / 64) packed words. One flat set
/// of packed keys holds the members (depth >= 2) and, at depth >= 3, their
/// pairwise XORs, so every test above is a lookup in it: at depth 4 a hit
/// of v ^ a on a member b would mean v == a ^ b, which the lookup of v
/// itself already rejected. A depth-4 candidate costs O(|S|) lookups
/// instead of O(|S|^3) rank tests. Zero is never a key.
///
/// Storage rule: a 2^dim-bit bitmap when that bitmap is no larger than the
/// alternative (nor than 64 MiB); otherwise an open-addressing table with
/// linear probing, sized for expected + C(expected, 2) keys (expected at
/// depth 2) at <= 50 % load, up to the same 64 MiB, that doubles whenever
/// more keys arrive than that.
class LiChecker {
 public:
  /// dim is the vector dimension b (>= 1) and depth must be in [1, 4];
  /// anything else throws std::invalid_argument. `expected` is the number
  /// of vectors the caller means to add (0 if unknown); it only sizes the
  /// set.
  LiChecker(std::size_t dim, std::size_t depth, std::size_t expected = 0);

  /// True iff the current set plus `candidate` would still be LI-depth.
  bool can_add(const BitVec& candidate) const;

  /// Add a vector (precondition: can_add(v)).
  void add(const BitVec& v);

  /// Number of vectors added so far.
  std::size_t size() const { return members_.size() / words_; }

  /// The vectors added so far, in insertion order.
  std::vector<BitVec> members() const;

  /// Number of distinct pairwise XORs held. Only depths >= 3 consult them,
  /// so lower depths keep none rather than paying their O(|S|^2) memory.
  std::size_t pair_xor_count() const { return depth_ >= 3 ? keys_ - size() : 0; }

  /// True iff the storage rule chose the bitmap.
  bool uses_bitmap() const { return !bitmap_.empty(); }

 private:
  // Keys of any width live in the table; find_slot returns the slot that
  // holds `key`, or the empty slot where it belongs. One-word keys take
  // the bitmap or the table through the *_word functions.
  void allocate_table(std::size_t slots);
  void grow();  // double the table and rehash
  std::size_t find_slot(const std::uint64_t* key) const;
  bool has_words(const std::uint64_t* key) const;
  void insert_words(const std::uint64_t* key);
  std::size_t find_word_slot(std::uint64_t key) const;
  bool has_word(std::uint64_t key) const;
  void insert_word(std::uint64_t key);

  std::size_t dim_;
  std::size_t depth_;
  std::size_t words_;
  std::vector<std::uint64_t> members_;  // size() packed vectors
  std::size_t keys_ = 0;                // distinct keys in the set
  std::vector<std::uint64_t> bitmap_;   // 2^dim bits, or empty
  std::vector<std::uint64_t> table_;    // slots_ packed keys; zero = empty
  std::size_t slots_ = 0;               // a power of two
  int slot_shift_ = 0;                  // 64 - log2(slots_)
  // v ^ a for keys wider than one word, reused across calls: even const
  // calls write it, so a checker must not be shared between threads.
  mutable std::vector<std::uint64_t> probe_;
};

}  // namespace tp::f2
