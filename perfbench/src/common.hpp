#pragma once
// common.hpp — shared plumbing of the end-to-end benchmark: command-line
// arguments, the benchmark's own span recorder, the machine-speed
// calibration, answer checks, timing statistics and the result line.
//
// Every workload is a sequence of *units* (a batch of log entries, one wide
// entry, one forensics round, one ingest session) generated from the seed
// alone. A run processes units until its measuring time is up, at least one;
// the answers of unit 0 form the run's fingerprint.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "soc/analysis.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/reconstruct.hpp"
#include "timeprint/signal.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  /// Directory the traced run writes its span file into.
  std::string trace_dir = ".";
};

/// Worker threads a parallel workload uses: min(4, hardware threads).
std::size_t worker_count();

/// An independent random stream for unit `unit` of stream `stream`, a pure
/// function of the seed (never of anything the program computes).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t unit);

/// The log entry of a signal, computed here from the timestamps rather than
/// by the library's logger, so the logger's answers can be checked against it.
tp::core::LogEntry make_entry(const tp::core::TimestampEncoding& encoding,
                              const tp::core::Signal& signal);

// --- spans -----------------------------------------------------------------

/// In-memory span recorder. One span per call into a layer: layer, name,
/// start, end, parent span and the unit (entry, query or session) it served.
/// Disabled recorders cost one branch per call site. Thread-safe.
class Trace {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t unit = 0;
    std::string layer;
    std::string name;
    int thread = 0;
    double start = 0.0;  ///< seconds since the recorder was created
    double end = 0.0;
  };

  /// RAII span; inert when the recorder is disabled.
  class Scope {
   public:
    Scope() = default;
    Scope(Trace* trace, const char* layer, const char* name, std::uint64_t unit);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

    std::uint64_t id() const { return id_; }

   private:
    Trace* trace_ = nullptr;
    std::uint64_t id_ = 0;
    std::size_t index_ = 0;
  };

  /// Makes `parent` the current span of the calling thread for its
  /// lifetime (spans opened on a helper thread attach to the unit's span).
  class Adopt {
   public:
    Adopt(Trace* trace, std::uint64_t parent);
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;
    ~Adopt();

   private:
    bool active_ = false;
  };

  explicit Trace(bool enabled);

  bool enabled() const { return enabled_; }
  Scope span(const char* layer, const char* name, std::uint64_t unit) {
    return Scope(enabled_ ? this : nullptr, layer, name, unit);
  }

  const std::vector<Record>& records() const { return records_; }

  /// Summed self time per layer: each span's duration minus the part of it
  /// its child spans cover.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Summed duration of all spans with this name.
  double total_seconds(const std::string& name) const;
  /// Durations of all spans with this name, in record order.
  std::vector<double> durations(const std::string& name) const;

  /// Write one JSON object per span to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  double now() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::uint64_t next_id_ = 1;
};

/// Times one pass of fixed work that shares no code with the project (F2
/// row elimination, a sort, hash lookups) and keeps the time: a probe of
/// how fast the machine runs at the moment. The host this benchmark was
/// written on drifts by up to 45% within minutes, for the project's code
/// and this pass alike, so main() reports timings scaled to a reference
/// speed.
void calibrate();
/// Median seconds of the calibration passes so far.
double calibration_seconds();
/// Reference pass time / calibration_seconds(): multiply a time, divide a
/// rate by it to get the figure at reference speed.
double reference_speed_factor();

/// Runs the units of one run for `seconds` (at least one unit).
/// process(u, trace) does unit u and returns its result, which goes to
/// untraced(u, result). A traced run does every unit twice, untraced and
/// traced back to back in alternating order so both see the same machine
/// state, and hands the traced result to traced(u, result). The summed
/// wall time of either kind of call, from unit 1 on (unit 0 warms the
/// process up), lands in untraced_s / traced_s. Returns the number of units.
template <class Process, class Untraced, class Traced>
std::size_t run_units(double seconds, Trace& trace, Process&& process,
                      Untraced&& untraced, Traced&& traced, double& untraced_s,
                      double& traced_s) {
  Trace off(false);
  auto timed = [&](std::size_t u, Trace& tr, double& sum) {
    const auto t0 = Clock::now();
    auto result = process(u, tr);
    if (u > 0) sum += seconds_since(t0);
    return result;
  };
  const auto start = Clock::now();
  std::size_t u = 0;
  do {
    calibrate();
    if (trace.enabled() && u % 2 == 1) traced(u, timed(u, trace, traced_s));
    untraced(u, timed(u, off, untraced_s));
    if (trace.enabled() && u % 2 == 0) traced(u, timed(u, trace, traced_s));
    ++u;
  } while (seconds_since(start) < seconds);
  return u;
}

// --- answer checks -----------------------------------------------------------
// Each returns an empty string when the answer is right, else the reason.

/// A decoded entry: enumeration complete, the ground-truth signal present,
/// no duplicates, and every signal re-logs to the same (TP, k).
std::string check_preimage(const tp::core::TimestampEncoding& encoding,
                           const tp::core::LogEntry& entry,
                           const tp::core::Signal& truth,
                           const std::vector<tp::core::Signal>& signals,
                           bool complete);

/// The CAN failure-window query: exactly one reconstruction, proven unique,
/// explaining the entry, with the frame found at the hidden start cycle.
std::string check_can_window(const tp::core::TimestampEncoding& encoding,
                             const tp::core::LogEntry& entry,
                             const tp::core::ReconstructionResult& result,
                             const std::vector<bool>& pattern, std::size_t lo,
                             std::size_t hi, std::size_t true_start);

/// The deadline-met hypothesis: refuted, i.e. UNSAT with no reconstruction.
std::string check_deadline(const tp::core::ReconstructionResult& result);

/// The one-cycle-delay localisation: found, equal to the ground-truth
/// hardware signal, at the expected delayed cycle.
std::string check_localization(
    const std::optional<tp::soc::DelayLocalization>& loc,
    const tp::core::Signal& hw_truth, std::size_t expected_cycle);

/// The ingest session: the archive equals the reference log entry for entry,
/// no framing errors, and the divergence found where the ground truth is.
std::string check_ingest(const std::vector<tp::core::LogEntry>& archived,
                         const tp::core::TraceLog& reference,
                         std::size_t framing_errors,
                         std::size_t divergence_index,
                         std::size_t expected_divergence);

// --- statistics and fingerprints --------------------------------------------

double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it (the maximum
/// when there are ten samples or fewer).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
Tail tail(std::vector<double> values);

/// FNV-1a over the text; hex digest.
std::string fingerprint(const std::string& text);

/// Sorted, '|'-joined cycle strings of a signal set.
std::string signal_set_key(const std::vector<tp::core::Signal>& signals);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// --- results -----------------------------------------------------------------

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string fingerprint;  ///< of unit 0's answers
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Workload facts printed beside the result (workers, instance sizes,
  /// tail percentile, reference columns).
  tp::obs::Json info = tp::obs::Json::object();

  /// Count one checked operation; a non-empty reason counts as a failure
  /// and is reported on stderr.
  void record(const std::string& what, const std::string& failure);
};

/// Names and units of every metric, as BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// The solver-effort counts of `stats` as sat.* per-layer metrics.
void add_sat_counts(const tp::sat::SolverStats& stats, Outcome& out);

/// Time one Reconstructor::encode_base of `entry` into a fresh
/// make_solver() backend and report the encoded size (encode.* metrics).
void probe_encode(const tp::core::Reconstructor& rec, const tp::core::LogEntry& entry,
                  const tp::core::ReconstructionOptions& options, Trace& trace,
                  Outcome& out);

/// Fill the per-layer entries every traced run shares: self time per
/// layer, span count, and the tracing overhead of replaying `units`.
void add_trace_metrics(const Trace& trace, double untraced_s, double traced_s,
                       Outcome& out);

// --- workloads -------------------------------------------------------------

Outcome run_stream_decode(const Args& args, Trace& trace);
Outcome run_forensics(const Args& args, Trace& trace);
Outcome run_wide_preimage(const Args& args, Trace& trace);
Outcome run_ingest(const Args& args, Trace& trace);

/// Feeds corrupted answers to every check above; returns the number of
/// corruptions that were NOT caught (0 = the checks work).
int self_test();

}  // namespace perfbench
