#include "f2/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tp::f2 {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows, BitVec(cols)) {}

Matrix Matrix::from_columns(const std::vector<BitVec>& columns) {
  // An empty column list is a legal degenerate input (an m=0 trace log):
  // the 0x0 matrix, not UB. Previously this dereferenced columns.front().
  if (columns.empty()) return Matrix(0, 0);
  const std::size_t rows = columns.front().size();
  Matrix m(rows, columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    assert(columns[c].size() == rows);
    for (std::size_t r = 0; r < rows; ++r) {
      if (columns[c].get(r)) m.data_[r].set(c, true);
    }
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.data_[i].set(i, true);
  return m;
}

BitVec Matrix::column(std::size_t c) const {
  assert(c < cols_);
  BitVec v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (data_[r].get(c)) v.set(r, true);
  }
  return v;
}

BitVec Matrix::multiply(const BitVec& x) const {
  assert(x.size() == cols_);
  BitVec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (data_[r].dot(x)) out.set(r, true);
  }
  return out;
}

namespace detail {

std::vector<std::size_t> row_reduce(std::vector<BitVec>& rows,
                                    std::size_t col_limit) {
  std::vector<std::size_t> pivots;
  if (rows.empty() || col_limit == 0) return pivots;
  const std::size_t nrows = rows.size();
  assert(col_limit <= rows.front().size());

  // Stripe width: the 2^s table costs ~2^s row XORs to build and saves
  // (s - 1) row XORs per remaining row, so s ~ log2(nrows) - 2 balances
  // the two; clamped to [1, 8] (a 256-entry table already amortizes).
  std::size_t lg = 0;
  while ((std::size_t{1} << (lg + 1)) <= nrows) ++lg;
  const std::size_t stripe_max = std::clamp<std::size_t>(lg >= 2 ? lg - 2 : 1, 1, 8);

  std::size_t next_row = 0;
  std::size_t col = 0;
  while (col < col_limit && next_row < nrows) {
    // Collect a stripe of up to stripe_max pivots. Rows below next_row are
    // not yet reduced by the stripe, so a candidate's true bit at `col` is
    // its stored bit corrected by the stripe rows its stripe-column bits
    // select — exact because the stripe rows are kept mutually reduced
    // (each has 1 at its own pivot column, 0 at the others).
    const std::size_t base = next_row;
    std::vector<std::size_t> stripe_cols;
    while (col < col_limit && stripe_cols.size() < stripe_max &&
           next_row < nrows) {
      std::size_t found = nrows;
      for (std::size_t r = next_row; r < nrows && found == nrows; ++r) {
        bool bit = rows[r].get(col);
        for (std::size_t j = 0; j < stripe_cols.size(); ++j) {
          if (rows[r].get(stripe_cols[j])) bit ^= rows[base + j].get(col);
        }
        if (bit) found = r;
      }
      if (found == nrows) {
        ++col;
        continue;
      }
      std::swap(rows[found], rows[next_row]);
      for (std::size_t j = 0; j < stripe_cols.size(); ++j) {
        if (rows[next_row].get(stripe_cols[j])) rows[next_row] ^= rows[base + j];
      }
      for (std::size_t j = 0; j < stripe_cols.size(); ++j) {
        if (rows[base + j].get(col)) rows[base + j] ^= rows[next_row];
      }
      stripe_cols.push_back(col);
      pivots.push_back(col);
      ++next_row;
      ++col;
    }
    const std::size_t s = stripe_cols.size();
    if (s == 0) continue;  // no pivot in the remaining columns; loop exits

    // table[mask] = XOR of the stripe rows selected by mask, built with one
    // row XOR per entry via table[mask without lowest bit].
    std::vector<BitVec> table;
    table.reserve(std::size_t{1} << s);
    table.emplace_back(rows.front().size());
    for (std::size_t mask = 1; mask < (std::size_t{1} << s); ++mask) {
      const auto low = static_cast<std::size_t>(std::countr_zero(mask));
      table.push_back(table[mask & (mask - 1)] ^ rows[base + low]);
    }

    // Clear the whole stripe from every other row (Jordan: above and
    // below) with s bit reads and one table XOR per row.
    for (std::size_t r = 0; r < nrows; ++r) {
      if (r >= base && r < base + s) continue;
      std::size_t mask = 0;
      for (std::size_t j = 0; j < s; ++j) {
        if (rows[r].get(stripe_cols[j])) mask |= std::size_t{1} << j;
      }
      if (mask != 0) rows[r] ^= table[mask];
    }
  }
  return pivots;
}

}  // namespace detail

std::size_t Matrix::rank() const {
  std::vector<BitVec> rows = data_;
  return detail::row_reduce(rows, cols_).size();
}

std::optional<LinearSolution> Matrix::solve(const BitVec& b) const {
  assert(b.size() == rows_);
  // Augmented matrix [A | b] with the RHS bit kept inside the row words at
  // column index cols_ — widening is a word copy, not a per-bit loop.
  std::vector<BitVec> aug;
  aug.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    aug.push_back(data_[r].resized(cols_ + 1));
    if (b.get(r)) aug.back().set(cols_, true);
  }
  std::vector<std::size_t> pivots = detail::row_reduce(aug, cols_ + 1);
  // Inconsistent iff some pivot landed on the augmented column.
  if (!pivots.empty() && pivots.back() == cols_) return std::nullopt;

  LinearSolution sol{BitVec(cols_), {}};
  // Particular solution: free variables 0, pivot variables take the
  // augmented value of their row.
  std::vector<bool> is_pivot(cols_, false);
  for (std::size_t r = 0; r < pivots.size(); ++r) {
    is_pivot[pivots[r]] = true;
    if (aug[r].get(cols_)) sol.particular.set(pivots[r], true);
  }
  // Null-space basis: one vector per free column f — set x_f = 1 and give
  // each pivot variable the coefficient of column f in its (reduced) row.
  for (std::size_t f = 0; f < cols_; ++f) {
    if (is_pivot[f]) continue;
    BitVec v(cols_);
    v.set(f, true);
    for (std::size_t r = 0; r < pivots.size(); ++r) {
      if (aug[r].get(f)) v.set(pivots[r], true);
    }
    sol.nullspace.push_back(std::move(v));
  }
  return sol;
}

bool Matrix::linearly_independent(const std::vector<BitVec>& vectors) {
  if (vectors.empty()) return true;
  std::vector<BitVec> rows = vectors;
  return detail::row_reduce(rows, rows.front().size()).size() == vectors.size();
}

namespace {

// Upper bound on the set's up-front allocation. A bitmap above it is never
// chosen, and a table starts no larger and grows as keys actually arrive,
// so a huge m from the command line cannot reserve memory it never fills.
constexpr double kMaxReserveBytes = 64.0 * 1024 * 1024;

// Fibonacci hashing: a table slot is the top bits of the product.
constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;

bool all_zero(const std::uint64_t* v, std::size_t words) {
  return std::all_of(v, v + words, [](std::uint64_t w) { return w == 0; });
}

}  // namespace

LiChecker::LiChecker(std::size_t dim, std::size_t depth, std::size_t expected)
    : dim_(dim), depth_(depth), words_((dim + 63) / 64), probe_(words_) {
  if (dim == 0) throw std::invalid_argument("LiChecker: dimension must be >= 1");
  if (depth < 1 || depth > 4) {
    throw std::invalid_argument("LiChecker: depth " + std::to_string(depth) +
                                " not in [1, 4]");
  }
  if (depth < 2) return;  // depth 1 only rejects zero: no set
  // Sizes in doubles: C(expected, 2) and 2^dim both overflow 64 bits.
  const auto n = static_cast<double>(expected);
  const double keys = depth >= 3 ? n + n * (n - 1) / 2 : n;
  double wanted_slots = 16;
  while (wanted_slots < 2 * keys) wanted_slots *= 2;
  const double table_bytes = wanted_slots * 8 * static_cast<double>(words_);
  if (dim < 64 && std::max(8.0, std::ldexp(1.0, static_cast<int>(dim)) / 8) <=
                      std::min(table_bytes, kMaxReserveBytes)) {
    // 2^dim / 8 <= 64 MiB, so dim <= 29 and the shift is in range.
    bitmap_.assign(std::max<std::size_t>(1, (std::size_t{1} << dim) / 64), 0);
    return;
  }
  std::size_t slots = 16;
  while (static_cast<double>(slots) < wanted_slots &&
         static_cast<double>(2 * slots * 8 * words_) <= kMaxReserveBytes) {
    slots *= 2;
  }
  allocate_table(slots);
}

void LiChecker::allocate_table(std::size_t slots) {
  table_.assign(slots * words_, 0);
  slots_ = slots;
  slot_shift_ = 64 - std::countr_zero(slots);
}

void LiChecker::grow() {
  const std::vector<std::uint64_t> old = std::move(table_);
  allocate_table(2 * slots_);
  for (std::size_t i = 0; i < old.size(); i += words_) {
    if (!all_zero(&old[i], words_)) {
      std::copy_n(&old[i], words_, &table_[find_slot(&old[i]) * words_]);
    }
  }
}

std::size_t LiChecker::find_slot(const std::uint64_t* key) const {
  std::uint64_t h = 0;
  for (std::size_t w = 0; w < words_; ++w) h = (h ^ key[w]) * kFibonacci;
  std::size_t s = h >> slot_shift_;
  while (!std::equal(key, key + words_, &table_[s * words_]) &&
         !all_zero(&table_[s * words_], words_)) {
    s = (s + 1) & (slots_ - 1);
  }
  return s;
}

bool LiChecker::has_words(const std::uint64_t* key) const {
  return !all_zero(&table_[find_slot(key) * words_], words_);
}

void LiChecker::insert_words(const std::uint64_t* key) {
  if (2 * (keys_ + 1) > slots_) grow();  // keep the load <= 50 %
  std::uint64_t* slot = &table_[find_slot(key) * words_];
  if (all_zero(slot, words_)) {
    std::copy_n(key, words_, slot);
    ++keys_;
  }
}

// One-word keys, the paper's widths, get probe loops of their own: through
// the generic ones the paper-scale builds took several times as long.
std::size_t LiChecker::find_word_slot(std::uint64_t key) const {
  std::size_t s = (key * kFibonacci) >> slot_shift_;  // find_slot's hash
  while (table_[s] != key && table_[s] != 0) s = (s + 1) & (slots_ - 1);
  return s;
}

bool LiChecker::has_word(std::uint64_t key) const {
  if (!bitmap_.empty()) return (bitmap_[key >> 6] >> (key & 63)) & 1;
  return table_[find_word_slot(key)] != 0;
}

void LiChecker::insert_word(std::uint64_t key) {
  if (!bitmap_.empty()) {
    std::uint64_t& word = bitmap_[key >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (key & 63);
    if ((word & bit) == 0) ++keys_;
    word |= bit;
    return;
  }
  if (2 * (keys_ + 1) > slots_) grow();
  std::uint64_t& slot = table_[find_word_slot(key)];
  if (slot == 0) {
    slot = key;
    ++keys_;
  }
}

bool LiChecker::can_add(const BitVec& candidate) const {
  assert(candidate.size() == dim_);
  const std::uint64_t* v = candidate.words().data();
  if (candidate.is_zero()) return false;  // depth 1
  if (depth_ < 2) return true;
  // Step 1 rejects a member (depth 2) or, at depth >= 3, a pairwise XOR.
  // Step 2, at depth 4: {v, a, b, c} dependent <=> v ^ a == b ^ c. A hit on
  // a member b instead would mean v == a ^ b, and zero is never a key, so
  // the test is exact.
  if (words_ == 1) {
    const std::uint64_t x = v[0];
    if (has_word(x)) return false;
    return depth_ < 4 || std::none_of(members_.begin(), members_.end(),
                                      [&](std::uint64_t a) { return has_word(x ^ a); });
  }
  if (has_words(v)) return false;
  if (depth_ < 4) return true;
  for (std::size_t i = 0; i < members_.size(); i += words_) {
    for (std::size_t w = 0; w < words_; ++w) probe_[w] = v[w] ^ members_[i + w];
    if (has_words(probe_.data())) return false;
  }
  return true;
}

void LiChecker::add(const BitVec& v) {
  assert(v.size() == dim_ && can_add(v));
  const std::uint64_t* words = v.words().data();
  // Pair XORs are only kept at the depths whose can_add consults them.
  if (words_ == 1) {
    if (depth_ >= 3) {
      for (const std::uint64_t a : members_) insert_word(words[0] ^ a);
    }
    if (depth_ >= 2) insert_word(words[0]);
  } else {
    if (depth_ >= 3) {
      for (std::size_t i = 0; i < members_.size(); i += words_) {
        for (std::size_t w = 0; w < words_; ++w) probe_[w] = words[w] ^ members_[i + w];
        insert_words(probe_.data());
      }
    }
    if (depth_ >= 2) insert_words(words);
  }
  members_.insert(members_.end(), v.words().begin(), v.words().end());
}

std::vector<BitVec> LiChecker::members() const {
  std::vector<BitVec> out;
  out.reserve(size());
  for (std::size_t i = 0; i < members_.size(); i += words_) {
    out.push_back(BitVec::from_words(
        dim_, std::span<const std::uint64_t>(members_).subspan(i, words_)));
  }
  return out;
}

}  // namespace tp::f2
