#include "timeprint/archive.hpp"

#include <cassert>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace tp::core {

TraceChannel::TraceChannel(std::size_t m, std::size_t b, std::size_t capacity)
    : m_(m), b_(b), capacity_(capacity) {}

void TraceChannel::append(LogEntry entry) {
  assert(entry.tp.size() == b_);
  assert(entry.k <= m_);
  entries_.push_back(std::move(entry));
  if (capacity_ != 0 && entries_.size() > capacity_) {
    const std::size_t drop = entries_.size() - capacity_;
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<long>(drop));
    first_index_ += drop;
  }
}

std::optional<ArchivedEntry> TraceChannel::at(std::uint64_t index) const {
  if (index < first_index_ || index - first_index_ >= entries_.size()) {
    return std::nullopt;
  }
  return ArchivedEntry{entries_[static_cast<std::size_t>(index - first_index_)],
                       index, index * m_};
}

std::optional<ArchivedEntry> TraceChannel::covering_cycle(
    std::uint64_t cycle) const {
  return at(cycle / m_);
}

std::vector<ArchivedEntry> TraceChannel::in_window(std::uint64_t from_cycle,
                                                   std::uint64_t to_cycle) const {
  std::vector<ArchivedEntry> out;
  if (to_cycle <= from_cycle) return out;
  const std::uint64_t first = from_cycle / m_;
  const std::uint64_t last = (to_cycle - 1) / m_;
  for (std::uint64_t idx = first; idx <= last; ++idx) {
    if (auto e = at(idx)) out.push_back(std::move(*e));
  }
  return out;
}

std::size_t TraceChannel::retained_bits() const {
  return entries_.size() * (b_ + counter_bits(m_));
}

void TraceChannel::restore(std::uint64_t first_index,
                           std::vector<LogEntry> entries) {
  assert(capacity_ == 0 || entries.size() <= capacity_);
  first_index_ = first_index;
  entries_ = std::move(entries);
}

TraceChannel& TraceArchive::channel(const std::string& name, std::size_t m,
                                    std::size_t b, std::size_t capacity) {
  auto it = channels_.find(name);
  if (it != channels_.end()) {
    if (it->second.m() != m || it->second.width() != b) {
      throw std::invalid_argument("TraceArchive: channel '" + name +
                                  "' exists with different parameters");
    }
    return it->second;
  }
  return channels_.emplace(name, TraceChannel(m, b, capacity)).first->second;
}

const TraceChannel* TraceArchive::find(const std::string& name) const {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}

TraceChannel* TraceArchive::find(const std::string& name) {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}

std::vector<std::string> TraceArchive::names() const {
  std::vector<std::string> out;
  for (const auto& [name, ch] : channels_) out.push_back(name);
  return out;
}

void TraceArchive::save(std::ostream& out) const {
  out << "timeprint-archive channels=" << channels_.size() << '\n';
  for (const auto& [name, ch] : channels_) {
    out << "channel " << name << " m=" << ch.m() << " b=" << ch.width()
        << " cap=" << ch.capacity() << " first=" << ch.first_retained()
        << " n=" << ch.size() << '\n';
    for (std::uint64_t i = ch.first_retained(); i < ch.total_appended(); ++i) {
      const auto e = ch.at(i);
      out << e->entry.tp.to_string() << ' ' << e->entry.k << '\n';
    }
  }
}

TraceArchive TraceArchive::load(std::istream& in) {
  std::string header;
  std::getline(in, header);
  std::size_t nchannels = 0;
  if (std::sscanf(header.c_str(), "timeprint-archive channels=%zu", &nchannels) != 1) {
    throw std::runtime_error("TraceArchive::load: bad header: " + header);
  }
  TraceArchive archive;
  for (std::size_t c = 0; c < nchannels; ++c) {
    std::string line;
    std::getline(in, line);
    char name_buf[256];
    std::size_t m = 0, b = 0, cap = 0, n = 0;
    unsigned long long first = 0;
    if (std::sscanf(line.c_str(), "channel %255s m=%zu b=%zu cap=%zu first=%llu n=%zu",
                    name_buf, &m, &b, &cap, &first, &n) != 6) {
      throw std::runtime_error("TraceArchive::load: bad channel line: " + line);
    }
    TraceChannel& ch = archive.channel(name_buf, m, b, cap);
    std::vector<LogEntry> entries;
    entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::string bits;
      std::size_t k = 0;
      if (!(in >> bits >> k)) {
        throw std::runtime_error("TraceArchive::load: truncated channel '" +
                                 std::string(name_buf) + "'");
      }
      entries.push_back(parse_entry(bits, k, m, b, "TraceArchive::load"));
    }
    ch.restore(first, std::move(entries));
    in.ignore(1, '\n');
  }
  return archive;
}

}  // namespace tp::core
