#pragma once
// logger.hpp — the logging procedure α̃ : Sig -> Log and trace storage.
//
// The logging procedure abstracts a signal S to a log entry (TP, k), where
// TP = Σ_{i : S(i)=1} TS(i) over F2 and k = |{i : S(i)=1}| (paper §4). The
// StreamingLogger models the deployment-phase data path: it consumes one
// change bit per clock cycle, aggregates timestamps into the running
// timeprint register and emits one LogEntry per completed trace-cycle —
// exactly the behaviour of the agg-log hardware (whose register-level model
// lives in src/rtlsim and is tested for equivalence against this one).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "f2/bitvec.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/signal.hpp"

namespace tp::core {

/// What gets logged per trace-cycle: the timeprint and the change count
/// (constant b + ceil(log2(m+1)) bits, irrespective of k — paper §3.1).
struct LogEntry {
  f2::BitVec tp;      ///< aggregated timeprint, b bits
  std::size_t k = 0;  ///< number of changes in the trace-cycle

  bool operator==(const LogEntry&) const = default;
};

/// Behavioural (functional) model of the logging procedure.
class Logger {
 public:
  /// The encoding must outlive the logger.
  explicit Logger(const TimestampEncoding& encoding) : enc_(&encoding) {}

  /// α̃(S): abstract one trace-cycle signal to its log entry.
  LogEntry log(const Signal& signal) const;

  /// The encoding in use.
  const TimestampEncoding& encoding() const { return *enc_; }

 private:
  const TimestampEncoding* enc_;
};

/// One saved entry of the text log formats (TraceLog, TraceArchive): a
/// timeprint of `bits` and change count k, from a log of m-cycle
/// trace-cycles and b-bit timeprints. Throws std::runtime_error prefixed
/// with `where` when the width is not b, a character is not 0/1, or
/// k > m.
LogEntry parse_entry(const std::string& bits, std::size_t k, std::size_t m,
                     std::size_t b, const char* where);

/// A sequence of log entries, one per back-to-back trace-cycle, plus
/// bit-accounting. This is the "central database" of Figure 3.
class TraceLog {
 public:
  explicit TraceLog(std::size_t m, std::size_t b) : m_(m), b_(b) {}

  /// Append a completed trace-cycle's entry.
  void append(LogEntry entry) { entries_.push_back(std::move(entry)); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const LogEntry& operator[](std::size_t i) const { return entries_[i]; }
  const std::vector<LogEntry>& entries() const { return entries_; }

  /// Trace-cycle length and timeprint width.
  std::size_t m() const { return m_; }
  std::size_t width() const { return b_; }

  /// Total bits this log occupies: size() × (b + counter_bits(m)).
  std::size_t total_bits() const;

  /// Index of the first entry differing from `other`, or size() if equal up
  /// to the shorter length (the §5.2.2 HW-vs-simulation comparison).
  std::size_t first_mismatch(const TraceLog& other) const;

  /// Index of the first entry whose change count k differs, or size().
  std::size_t first_count_mismatch(const TraceLog& other) const;

  /// Serialize as a compact text stream (one "tp_hexlike k" line per
  /// entry); parse back with load().
  void save(std::ostream& out) const;
  static TraceLog load(std::istream& in);

 private:
  std::size_t m_;
  std::size_t b_;
  std::vector<LogEntry> entries_;
};

/// Cycle-driven logger: feed one change bit per clock; emits a LogEntry
/// into the TraceLog at each trace-cycle boundary. Models the constant-rate
/// deployment-phase logging of Figure 3.
class StreamingLogger {
 public:
  explicit StreamingLogger(const TimestampEncoding& encoding);

  /// Advance one clock cycle with the given change bit.
  void tick(bool change);

  /// Number of clock cycles consumed so far.
  std::uint64_t cycles() const { return cycles_; }

  /// Position within the current trace-cycle (0..m-1 before the next tick).
  std::size_t phase() const { return phase_; }

  /// Completed trace-cycles' log.
  const TraceLog& log() const { return log_; }

  /// Flush a partial trace-cycle as if it had completed (pads with
  /// no-change cycles). No-op at a trace-cycle boundary.
  void flush();

 private:
  const TimestampEncoding* enc_;
  TraceLog log_;
  f2::BitVec tp_;
  std::size_t k_ = 0;
  std::size_t phase_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace tp::core
