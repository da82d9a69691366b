#include "f2/bitvec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace tp::f2 {

std::uint64_t Rng::next() {
  // splitmix64 (public domain, Sebastiano Vigna).
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = bound * (UINT64_MAX / bound);
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return v % bound;
}

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t n) { return (n + kWordBits - 1) / kWordBits; }
}  // namespace

BitVec::BitVec(std::size_t n) : size_(n), words_(words_for(n), 0) {}

BitVec BitVec::from_uint(std::size_t n, std::uint64_t value) {
  BitVec v(n);
  if (n > 0) {
    if (n < kWordBits) {
      assert((value >> n) == 0 && "value has bits beyond dimension");
    }
    v.words_[0] = value;
    v.clear_tail();
  } else {
    assert(value == 0);
  }
  return v;
}

BitVec BitVec::from_words(std::size_t n, std::span<const std::uint64_t> words) {
  BitVec v(n);
  assert(words.size() == v.words_.size());
  std::copy(words.begin(), words.end(), v.words_.begin());
  assert(v.words_.empty() || n % kWordBits == 0 ||
         (v.words_.back() >> (n % kWordBits)) == 0);
  return v;
}

BitVec BitVec::from_string(std::string_view bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != '0' && bits[i] != '1') {
      throw std::invalid_argument("BitVec::from_string: bad bit '" +
                                  std::string(1, bits[i]) + "' at position " +
                                  std::to_string(i));
    }
    // MSB-first string: character 0 is the highest coordinate.
    v.set(bits.size() - 1 - i, bits[i] == '1');
  }
  return v;
}

BitVec BitVec::random(std::size_t n, Rng& rng) {
  BitVec v(n);
  v.randomize(rng);
  return v;
}

void BitVec::randomize(Rng& rng) {
  for (auto& w : words_) w = rng.next();
  clear_tail();
}

BitVec BitVec::unit(std::size_t n, std::size_t pos) {
  BitVec v(n);
  v.set(pos, true);
  return v;
}

bool BitVec::get(std::size_t i) const {
  assert(i < size_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVec::set(std::size_t i, bool value) {
  assert(i < size_);
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void BitVec::flip(std::size_t i) {
  assert(i < size_);
  words_[i / kWordBits] ^= std::uint64_t{1} << (i % kWordBits);
}

bool BitVec::is_zero() const {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

std::size_t BitVec::popcount() const {
  std::size_t total = 0;
  for (auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t BitVec::highest_set() const {
  for (std::size_t wi = words_.size(); wi-- > 0;) {
    if (words_[wi] != 0) {
      return wi * kWordBits + (kWordBits - 1 -
                               static_cast<std::size_t>(std::countl_zero(words_[wi])));
    }
  }
  return size_;
}

std::size_t BitVec::lowest_set() const {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0) {
      return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[wi]));
    }
  }
  return size_;
}

BitVec& BitVec::operator^=(const BitVec& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVec& BitVec::and_not(const BitVec& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

BitVec BitVec::resized(std::size_t n) const {
  BitVec out(n);
  const std::size_t copy = std::min(out.words_.size(), words_.size());
  for (std::size_t i = 0; i < copy; ++i) out.words_[i] = words_[i];
  out.clear_tail();
  return out;
}

void BitVec::increment() {
  for (auto& w : words_) {
    if (++w != 0) break;  // no carry out of this word
  }
  clear_tail();
}

std::strong_ordering BitVec::operator<=>(const BitVec& other) const {
  if (size_ != other.size_) return size_ <=> other.size_;
  for (std::size_t wi = words_.size(); wi-- > 0;) {
    if (words_[wi] != other.words_[wi]) return words_[wi] <=> other.words_[wi];
  }
  return std::strong_ordering::equal;
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) s[size_ - 1 - i] = '1';
  }
  return s;
}

std::uint64_t BitVec::to_uint() const {
  if (words_.empty()) return 0;
  return words_[0];
}

std::size_t BitVec::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ size_;
  for (auto w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h);
}

bool BitVec::dot(const BitVec& other) const {
  assert(size_ == other.size_);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) acc ^= words_[i] & other.words_[i];
  return (std::popcount(acc) & 1) != 0;
}

void BitVec::clear_tail() {
  const std::size_t used = size_ % kWordBits;
  if (used != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

}  // namespace tp::f2
