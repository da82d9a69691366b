#include "common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "can/forensics.hpp"

namespace perfbench {

namespace {

std::mutex g_trace_mu;
thread_local std::vector<std::uint64_t> t_span_stack;

int thread_number() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  const auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()));
  return it->second;
}

}  // namespace

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t unit) {
  // splitmix64 over the three coordinates.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL ^ (stream << 48) ^ unit;
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

tp::core::LogEntry make_entry(const tp::core::TimestampEncoding& encoding,
                              const tp::core::Signal& signal) {
  tp::core::LogEntry entry{tp::f2::BitVec(encoding.width()), 0};
  for (std::size_t c : signal.change_cycles()) {
    entry.tp ^= encoding.timestamp(c);
    ++entry.k;
  }
  return entry;
}

namespace {

/// The calibration pass's time on the machine the bounds were set on, in
/// a quiet period.
constexpr double kReferenceCalibrationSeconds = 0.0025;

std::vector<double>& calibration_samples() {
  static std::vector<double> samples;
  return samples;
}

}  // namespace

double calibration_seconds() { return median(calibration_samples()); }

double reference_speed_factor() {
  return kReferenceCalibrationSeconds / calibration_seconds();
}

void calibrate() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // 256 x 256 over F2, four words per row, eliminated in place.
  constexpr std::size_t kN = 256, kW = kN / 64;
  std::vector<std::uint64_t> rows(kN * kW);
  for (auto& w : rows) w = next();
  std::size_t rank = 0;
  for (std::size_t col = 0; col < kN && rank < kN; ++col) {
    const std::size_t word = col / 64;
    const std::uint64_t bit = std::uint64_t{1} << (col % 64);
    std::size_t pivot = rank;
    while (pivot < kN && (rows[pivot * kW + word] & bit) == 0) ++pivot;
    if (pivot == kN) continue;
    for (std::size_t w = 0; w < kW; ++w) std::swap(rows[pivot * kW + w], rows[rank * kW + w]);
    for (std::size_t r = 0; r < kN; ++r) {
      if (r != rank && (rows[r * kW + word] & bit) != 0) {
        for (std::size_t w = 0; w < kW; ++w) rows[r * kW + w] ^= rows[rank * kW + w];
      }
    }
    ++rank;
  }
  std::vector<std::uint32_t> keys(20000);
  for (auto& k : keys) k = static_cast<std::uint32_t>(next());
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint32_t, std::uint32_t> table;
  for (std::size_t i = 0; i < 4096; ++i) table[keys[i * 4]] = static_cast<std::uint32_t>(i);
  std::uint64_t hits = rank;
  for (std::size_t i = 0; i < 40000; ++i) hits += table.count(static_cast<std::uint32_t>(next()) | keys[i % keys.size()]);
  volatile std::uint64_t sink = hits;
  (void)sink;
  calibration_samples().push_back(seconds_since(t0));
}

// --- Trace -----------------------------------------------------------------

Trace::Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double Trace::now() const { return seconds_since(epoch_); }

Trace::Scope::Scope(Trace* trace, const char* layer, const char* name,
                    std::uint64_t unit)
    : trace_(trace) {
  if (trace_ == nullptr) return;
  Record r;
  r.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
  r.unit = unit;
  r.layer = layer;
  r.name = name;
  r.thread = thread_number();
  {
    std::lock_guard<std::mutex> lock(g_trace_mu);
    r.id = trace_->next_id_++;
    r.start = trace_->now();
    index_ = trace_->records_.size();
    id_ = r.id;
    trace_->records_.push_back(std::move(r));
  }
  t_span_stack.push_back(id_);
}

Trace::Scope::~Scope() {
  if (trace_ == nullptr) return;
  t_span_stack.pop_back();
  std::lock_guard<std::mutex> lock(g_trace_mu);
  trace_->records_[index_].end = trace_->now();
}

Trace::Adopt::Adopt(Trace* trace, std::uint64_t parent) {
  if (trace == nullptr || !trace->enabled()) return;
  t_span_stack.push_back(parent);
  active_ = true;
}

Trace::Adopt::~Adopt() {
  if (active_) t_span_stack.pop_back();
}

std::map<std::string, double> Trace::self_seconds_by_layer() const {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Record& r : records_) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start, r.end);
  }
  std::map<std::string, double> out;
  for (const Record& r : records_) {
    double covered = 0.0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      // Union of the child intervals clipped to the parent (children on
      // helper threads may overlap each other).
      auto spans = it->second;
      std::sort(spans.begin(), spans.end());
      double lo = r.start, hi = r.start;
      for (auto [s, e] : spans) {
        s = std::max(s, r.start);
        e = std::min(e, r.end);
        if (e <= s) continue;
        if (s > hi) {
          covered += hi - lo;
          lo = s;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      covered += hi - lo;
    }
    out[r.layer] += std::max(0.0, (r.end - r.start) - covered);
  }
  return out;
}

double Trace::total_seconds(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back(r.end - r.start);
  }
  return out;
}

void Trace::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  for (const Record& r : records_) {
    tp::obs::Json j = tp::obs::Json::object();
    j.set("id", r.id)
        .set("parent", r.parent)
        .set("unit", r.unit)
        .set("layer", r.layer)
        .set("name", r.name)
        .set("thread", r.thread)
        .set("start", r.start)
        .set("end", r.end);
    f << j.dump() << '\n';
  }
}

// --- checks ------------------------------------------------------------------

std::string check_preimage(const tp::core::TimestampEncoding& encoding,
                           const tp::core::LogEntry& entry,
                           const tp::core::Signal& truth,
                           const std::vector<tp::core::Signal>& signals,
                           bool complete) {
  if (!complete) return "enumeration incomplete";
  const tp::core::Logger logger(encoding);
  std::set<std::string> seen;
  bool has_truth = false;
  for (const tp::core::Signal& s : signals) {
    if (s.length() != encoding.m()) return "signal of wrong length";
    if (!(logger.log(s) == entry)) return "signal does not re-log to the entry";
    if (!seen.insert(s.to_string()).second) return "duplicate signal";
    if (s == truth) has_truth = true;
  }
  return has_truth ? "" : "ground-truth signal missing from the preimage";
}

std::string check_can_window(const tp::core::TimestampEncoding& encoding,
                             const tp::core::LogEntry& entry,
                             const tp::core::ReconstructionResult& result,
                             const std::vector<bool>& pattern, std::size_t lo,
                             std::size_t hi, std::size_t true_start) {
  if (!result.complete()) return "window query not proven unique";
  if (result.signals.size() != 1) return "window query not unique";
  const tp::core::Signal& s = result.signals.front();
  if (!(tp::core::Logger(encoding).log(s) == entry)) {
    return "window signal does not re-log to the entry";
  }
  const auto starts = tp::can::find_pattern(s, pattern, lo, hi);
  if (starts.size() != 1 || starts.front() != true_start) {
    return "frame start not recovered";
  }
  return "";
}

std::string check_deadline(const tp::core::ReconstructionResult& result) {
  if (result.final_status != tp::sat::Status::Unsat || !result.signals.empty()) {
    return "deadline hypothesis not refuted";
  }
  return "";
}

std::string check_localization(
    const std::optional<tp::soc::DelayLocalization>& loc,
    const tp::core::Signal& hw_truth, std::size_t expected_cycle) {
  if (!loc.has_value()) return "delay not localised";
  if (!(loc->hw_signal == hw_truth)) return "localised signal is not the hardware signal";
  if (loc->delayed_cycle != expected_cycle) return "wrong delayed cycle";
  return "";
}

std::string check_ingest(const std::vector<tp::core::LogEntry>& archived,
                         const tp::core::TraceLog& reference,
                         std::size_t framing_errors,
                         std::size_t divergence_index,
                         std::size_t expected_divergence) {
  if (framing_errors != 0) return "UART framing errors";
  if (archived.size() != reference.size()) return "archive length differs from the log";
  for (std::size_t i = 0; i < archived.size(); ++i) {
    if (!(archived[i] == reference[i])) return "archive entry differs from the log";
  }
  if (divergence_index != expected_divergence) return "wrong divergence index";
  return "";
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values) {
  Tail t;
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    t.value = values.back();
    return t;
  }
  t.value = values[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

std::string fingerprint(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string signal_set_key(const std::vector<tp::core::Signal>& signals) {
  std::vector<std::string> keys;
  keys.reserve(signals.size());
  for (const tp::core::Signal& s : signals) keys.push_back(s.to_string());
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const std::string& k : keys) {
    out += k;
    out += '|';
  }
  return out;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// --- results -------------------------------------------------------------------

void Outcome::record(const std::string& what, const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(), failure.c_str());
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"entries_per_s", "1/s"},
      {"entry_p50_ms", "ms"},
      {"entry_tail_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // timeprint.encoding
      {"encoding.build_s", "s"},
      // f2 / presolve
      {"presolve.factor_s", "s"},
      {"presolve.analyze_us_per_entry", "us"},
      {"presolve.solverless_ratio", "ratio"},
      // timeprint.reconstruct
      {"encode.s", "s"},
      {"encode.vars", "count"},
      {"encode.clauses", "count"},
      {"encode.xors", "count"},
      // sat
      {"sat.conflicts", "count"},
      {"sat.decisions", "count"},
      {"sat.propagations", "count"},
      {"sat.xor_propagations", "count"},
      {"sat.gauss_runs", "count"},
      {"sat.restarts", "count"},
      {"sat.conflicts_per_s", "1/s"},
      {"sat.props_per_s", "1/s"},
      // allsat
      {"allsat.models", "count"},
      {"allsat.models_per_s", "1/s"},
      // timeprint.incremental
      {"template.build_s", "s"},
      {"template.entry_ms_p50", "ms"},
      {"template.entry_ms_tail", "ms"},
      {"template.hits", "count"},
      {"template.misses", "count"},
      {"template.evictions", "count"},
      {"template.cache_bytes", "bytes"},
      // timeprint.batch
      {"batch.busy_s", "s"},
      {"batch.parallel_efficiency", "ratio"},
      {"batch.cubes", "count"},
      {"batch.cube_imbalance", "ratio"},
      // soc, rtlsim, timeprint.logger, timeprint.archive
      {"soc.cycles_per_s", "1/s"},
      {"soc.compare_logs_us", "us"},
      {"rtlsim.agglog_cycles_per_s", "1/s"},
      {"rtlsim.deserialize_us_per_entry", "us"},
      {"rtlsim.uart_max_queue_depth", "count"},
      {"rtlsim.framing_errors", "count"},
      {"logger.cycles_per_s", "1/s"},
      {"archive.append_us_per_entry", "us"},
      {"archive.window_query_us", "us"},
      // Workload-level figures of the traced run (reference, not gated).
      {"forensics.can_window_s", "s"},
      {"forensics.can_deadline_s", "s"},
      {"forensics.refresh_localize_s", "s"},
      {"wide.signals_per_s", "1/s"},
      {"ingest.cycles_per_s", "1/s"},
      // Self time per layer (span minus child spans) and tracing cost.
      {"self.encoding_s", "s"},
      {"self.presolve_s", "s"},
      {"self.reconstruct_s", "s"},
      {"self.incremental_s", "s"},
      {"self.batch_s", "s"},
      {"self.sat_s", "s"},
      {"self.soc_s", "s"},
      {"self.rtlsim_s", "s"},
      {"self.logger_s", "s"},
      {"self.archive_s", "s"},
      {"self.check_s", "s"},
      {"self.bench_s", "s"},
      {"trace.spans", "count"},
      {"trace.untraced_s", "s"},
      {"trace.traced_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return kMetrics;
}

void add_sat_counts(const tp::sat::SolverStats& stats, Outcome& out) {
  auto& pl = out.per_layer;
  pl["sat.conflicts"] = static_cast<double>(stats.conflicts);
  pl["sat.decisions"] = static_cast<double>(stats.decisions);
  pl["sat.propagations"] = static_cast<double>(stats.propagations);
  pl["sat.xor_propagations"] = static_cast<double>(stats.xor_propagations);
  pl["sat.gauss_runs"] = static_cast<double>(stats.gauss_runs);
  pl["sat.restarts"] = static_cast<double>(stats.restarts);
}

void probe_encode(const tp::core::Reconstructor& rec, const tp::core::LogEntry& entry,
                  const tp::core::ReconstructionOptions& options, Trace& trace,
                  Outcome& out) {
  auto span = trace.span("reconstruct", "reconstruct.encode_base", 0);
  const auto t0 = Clock::now();
  const auto solver = options.make_solver();
  std::vector<tp::sat::Var> cycle_vars;
  rec.encode_base(*solver, cycle_vars, entry, options);
  auto& pl = out.per_layer;
  pl["encode.s"] = seconds_since(t0);
  pl["encode.vars"] = static_cast<double>(solver->num_vars());
  pl["encode.clauses"] = static_cast<double>(solver->num_clauses());
  pl["encode.xors"] = static_cast<double>(solver->num_xors());
}

void add_trace_metrics(const Trace& trace, double untraced_s, double traced_s,
                       Outcome& out) {
  for (const auto& [layer, secs] : trace.self_seconds_by_layer()) {
    out.per_layer["self." + layer + "_s"] = secs;
  }
  out.per_layer["trace.spans"] = static_cast<double>(trace.records().size());
  out.per_layer["trace.untraced_s"] = untraced_s;
  out.per_layer["trace.traced_s"] = traced_s;
  out.per_layer["trace.overhead_s"] = traced_s - untraced_s;
}

}  // namespace perfbench
