#pragma once
// bench_util.hpp — shared helpers for the paper-table benchmark binaries.

#include <sched.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sat/solver.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/signal.hpp"

namespace tp::bench {

/// Per-query wall-clock budget in seconds. Default 12; override with the
/// TP_BENCH_SECONDS environment variable (0 = unlimited, reproducing the
/// paper's full runs).
inline double cell_budget_seconds() {
  if (const char* env = std::getenv("TP_BENCH_SECONDS")) {
    const double v = std::atof(env);
    return v <= 0 ? -1.0 : v;
  }
  return 12.0;
}

/// Format seconds like the paper's tables ("0m0.085s"), or "TO" when the
/// budget was exhausted (negative input).
inline std::string fmt_time(double seconds) {
  if (seconds < 0) return "TO";
  const int minutes = static_cast<int>(seconds) / 60;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%dm%.3fs", minutes, seconds - minutes * 60);
  return buf;
}

/// A random signal with exactly k changes that satisfies both of the
/// paper's illustration properties: P2 (a consecutive pair exists) and
/// Dk (at least min(3, k) changes before cycle 32). Used to generate the
/// Table 1 / Table 2 instances so that encoding the properties as *known*
/// facts is sound.
inline core::Signal table_signal(std::size_t m, std::size_t k, f2::Rng& rng) {
  core::Signal s(m);
  if (k >= 2) {
    const std::size_t p = rng.below(30);
    s.set_change(p);
    s.set_change(p + 1);
  }
  while (s.num_changes() < std::min<std::size_t>(3, k)) {
    s.set_change(rng.below(32));
  }
  while (s.num_changes() < k) s.set_change(rng.below(m));
  return s;
}

/// Record the host a report was measured on in its config: CPUs this
/// process may run on (nproc), std::thread::hardware_concurrency, and the
/// compiler and CMake build type the bench was built with (both defined by
/// tp_add_bench in bench/CMakeLists.txt). Timings from reports whose
/// identities differ are not comparable.
inline void record_host(obs::Json& config) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  config.set("nproc", static_cast<std::uint64_t>(nproc))
      .set("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .set("compiler", TP_BENCH_COMPILER)
      .set("build_type", TP_BENCH_BUILD_TYPE);
}

/// Machine-readable output for a bench binary: every bench accepts
/// `--json <path>` and, when it is given, writes one JSON object
///
///   {"bench": <name>, "config": {...}, "rows": [...],
///    "wall_seconds": <double>, "solver_stats": {...}}
///
/// next to its usual human-readable stdout. The human output is the paper
/// artifact; the JSON file is what CI and regression tooling diff.
///
/// Usage: construct from argv (unrecognized arguments are left alone, so
/// google-benchmark binaries can parse the rest), describe the run in
/// config(), append one object per table row with add_row(), feed solver
/// effort into add_solver_stats() where the bench has results in hand, and
/// call finish() once. When no bench-level stats were provided, finish()
/// falls back to the delta of the process-global solver metrics
/// (obs::MetricsRegistry) over the report's lifetime, which covers benches
/// that discard their ReconstructionResults.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)),
        start_(std::chrono::steady_clock::now()),
        config_(obs::Json::object()),
        rows_(obs::Json::array()) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= argc) {
          throw std::invalid_argument("--json requires a file path");
        }
        path_ = argv[i + 1];
        break;
      }
    }
    auto& reg = obs::MetricsRegistry::global();
    for (const char* name : kGlobalCounters) {
      baseline_.push_back(reg.counter_value(name));
    }
  }

  /// True iff `--json <path>` was given. Benches may skip expensive
  /// bookkeeping when reporting is off; add_row()/finish() are safe to
  /// call regardless.
  bool enabled() const { return !path_.empty(); }

  /// The run's configuration object (budget, sizes, thread counts...).
  obs::Json& config() { return config_; }

  /// Append one result row (any JSON object; keys are bench-specific but
  /// stable across runs of the same bench).
  void add_row(obs::Json row) { rows_.push(std::move(row)); }

  /// Accumulate solver effort measured by the bench itself.
  void add_solver_stats(const sat::SolverStats& s) {
    explicit_stats_ = true;
    stats_ += s;
  }

  /// Write the report. No-op without --json.
  void finish() {
    if (!enabled()) return;
    obs::Json root = obs::Json::object();
    root.set("bench", bench_);
    root.set("config", std::move(config_));
    root.set("rows", std::move(rows_));
    root.set("wall_seconds",
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count());
    obs::Json stats = obs::Json::object();
    if (explicit_stats_) {
      stats.set("source", "bench");
      stats.set("conflicts", stats_.conflicts);
      stats.set("decisions", stats_.decisions);
      stats.set("propagations", stats_.propagations);
      stats.set("xor_propagations", stats_.xor_propagations);
      stats.set("restarts", stats_.restarts);
      stats.set("gauss_runs", stats_.gauss_runs);
      stats.set("vivified_literals", stats_.vivified_literals);
      stats.set("subsumed_clauses", stats_.subsumed_clauses);
      stats.set("arena_gc_runs", stats_.arena_gc_runs);
      stats.set("arena_bytes_reclaimed", stats_.arena_bytes_reclaimed);
      stats.set("props_per_sec", stats_.propagations_per_sec());
    } else {
      // Fallback: the process-global metrics delta since construction.
      stats.set("source", "global-metrics");
      auto& reg = obs::MetricsRegistry::global();
      std::size_t i = 0;
      for (const char* name : kGlobalCounters) {
        // "solver.conflicts" -> "conflicts"
        stats.set(std::string(name).substr(7),
                  reg.counter_value(name) - baseline_[i++]);
      }
    }
    root.set("solver_stats", std::move(stats));

    std::ofstream out(path_, std::ios::out | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("JsonReport: cannot open '" + path_ + "'");
    }
    std::string text = root.dump();
    text += '\n';
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }

 private:
  static constexpr const char* kGlobalCounters[] = {
      "solver.conflicts",  "solver.decisions", "solver.propagations",
      "solver.xor_propagations", "solver.restarts"};

  std::string bench_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  obs::Json config_;
  obs::Json rows_;
  sat::SolverStats stats_;
  bool explicit_stats_ = false;
  std::vector<std::int64_t> baseline_;
};

}  // namespace tp::bench
