#include "timeprint/logger.hpp"

#include <cassert>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace tp::core {

LogEntry Logger::log(const Signal& signal) const {
  assert(signal.length() == enc_->m());
  f2::BitVec tp(enc_->width());
  std::size_t k = 0;
  for (std::size_t i = 0; i < signal.length(); ++i) {
    if (signal.has_change(i)) {
      tp ^= enc_->timestamp(i);
      ++k;
    }
  }
  return {std::move(tp), k};
}

std::size_t TraceLog::total_bits() const {
  return entries_.size() * (b_ + counter_bits(m_));
}

std::size_t TraceLog::first_mismatch(const TraceLog& other) const {
  const std::size_t n = std::min(size(), other.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (entries_[i] != other.entries_[i]) return i;
  }
  return size();
}

std::size_t TraceLog::first_count_mismatch(const TraceLog& other) const {
  const std::size_t n = std::min(size(), other.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (entries_[i].k != other.entries_[i].k) return i;
  }
  return size();
}

void TraceLog::save(std::ostream& out) const {
  out << "timeprint-log m=" << m_ << " b=" << b_ << " n=" << entries_.size()
      << '\n';
  for (const LogEntry& e : entries_) {
    out << e.tp.to_string() << ' ' << e.k << '\n';
  }
}

LogEntry parse_entry(const std::string& bits, std::size_t k, std::size_t m,
                     std::size_t b, const char* where) {
  if (bits.size() != b) {
    throw std::runtime_error(std::string(where) + ": timeprint width mismatch");
  }
  if (k > m) {
    throw std::runtime_error(std::string(where) + ": change count k=" +
                             std::to_string(k) + " exceeds trace-cycle length m=" +
                             std::to_string(m));
  }
  try {
    return LogEntry{f2::BitVec::from_string(bits), k};
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string(where) + ": " + e.what());
  }
}

TraceLog TraceLog::load(std::istream& in) {
  std::string header;
  std::getline(in, header);
  std::size_t m = 0, b = 0, n = 0;
  int consumed = 0;
  if (std::sscanf(header.c_str(), "timeprint-log m=%zu b=%zu n=%zu%n", &m, &b,
                  &n, &consumed) != 3 ||
      static_cast<std::size_t>(consumed) != header.size()) {
    throw std::runtime_error("TraceLog::load: bad header: " + header);
  }
  if (m == 0 || b == 0) {
    throw std::runtime_error("TraceLog::load: header requires m > 0 and b > 0");
  }
  TraceLog log(m, b);
  for (std::size_t i = 0; i < n; ++i) {
    std::string bits;
    std::size_t k = 0;
    if (!(in >> bits >> k)) {
      throw std::runtime_error("TraceLog::load: truncated log");
    }
    log.append(parse_entry(bits, k, m, b, "TraceLog::load"));
  }
  // The format is exactly n entries; anything else is a corrupt or
  // mislabelled file, not an extended one.
  std::string extra;
  if (in >> extra) {
    throw std::runtime_error("TraceLog::load: trailing garbage after " +
                             std::to_string(n) + " entries: '" + extra + "'");
  }
  return log;
}

StreamingLogger::StreamingLogger(const TimestampEncoding& encoding)
    : enc_(&encoding), log_(encoding.m(), encoding.width()), tp_(encoding.width()) {}

void StreamingLogger::tick(bool change) {
  if (change) {
    tp_ ^= enc_->timestamp(phase_);
    ++k_;
  }
  ++phase_;
  ++cycles_;
  if (phase_ == enc_->m()) {
    log_.append({tp_, k_});
    tp_ = f2::BitVec(enc_->width());
    k_ = 0;
    phase_ = 0;
  }
}

void StreamingLogger::flush() {
  while (phase_ != 0) tick(false);
}

}  // namespace tp::core
