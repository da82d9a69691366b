// bench_solver — raw SAT hot-path throughput on Table-1/Table-2-style
// reconstruction workloads.
//
// Where bench_table1/bench_table2 report the paper's wall-clock cells, this
// bench isolates the solver's inner loop: for each configuration it decodes
// a deterministic stream of log entries and reports *propagations per
// second* and *conflicts per second* — the two rates a clause-memory-layout
// change moves. Rows come in two flavours:
//
//  * complete rows enumerate the full preimage of every entry and carry a
//    search-order-independent fingerprint (FNV-1a over the sorted signal
//    sets), so two solver versions can be diffed for *identical answers*,
//    not just similar speed;
//  * capped rows stop at 10 solutions per entry (the paper's .10 column)
//    with verify_models on, probing the heavier k where full enumeration
//    is infeasible; their returned set legitimately depends on search
//    order, so they carry no fingerprint.
//
// A complete row may name a twin it decodes the same entries as with a
// different XOR engine (m64_k3_gauss is m64_k3_plain on the Gaussian
// engine); its fingerprint must equal the twin's, and the binary exits
// non-zero on a mismatch, so every run checks a Gauss answer.
//
//   bench_solver [--entries N] [--json out.json]
//
// The committed BENCH_solver.json is the pre-arena baseline; CI diffs a
// fresh run against it with tools/check_bench_json.py --baseline (ratio on
// props_per_sec, equality on fingerprints).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "timeprint/design.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/reconstruct.hpp"

namespace {

using namespace tp;

struct Config {
  const char* name;
  std::size_t m;
  std::size_t k;
  bool with_properties;  // P2 + Dk pruning (table_signal instances)
  bool use_gauss;        // Gaussian XOR engine vs watched-XOR propagation
  std::uint64_t max_solutions;  // UINT64_MAX = complete enumeration
  std::size_t entries;          // stream length at --entries 100 (scaled)
  const char* same_answers_as = nullptr;  // earlier complete row, same entries
};

/// FNV-1a over a string, accumulated across entries.
void fnv1a(std::uint64_t& h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
}

std::string sorted_signal_key(const std::vector<core::Signal>& signals) {
  std::vector<std::string> keys;
  keys.reserve(signals.size());
  for (const core::Signal& s : signals) keys.push_back(s.to_string());
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const std::string& k : keys) {
    out += k;
    out += '|';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t entry_scale = 100;  // percent of each config's default stream
  sat::SolverBackend backend = sat::SolverBackend::Single;
  std::size_t members = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--entries") == 0 && i + 1 < argc) {
      entry_scale = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend = std::strcmp(argv[i + 1], "portfolio") == 0
                    ? sat::SolverBackend::Portfolio
                    : sat::SolverBackend::Single;
    } else if (std::strcmp(argv[i], "--members") == 0 && i + 1 < argc) {
      members = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
  }

  bench::JsonReport report("solver", argc, argv);
  report.config().set("entry_scale", static_cast<std::uint64_t>(entry_scale));
  // Backend identity: the baseline differ refuses to compare reports whose
  // (backend, members) disagree, so a portfolio run can never silently
  // pollute the committed single-solver BENCH_solver.json numbers.
  report.config().set("backend", std::string(sat::to_string(backend)));
  report.config().set("members",
                      static_cast<std::uint64_t>(
                          backend == sat::SolverBackend::Portfolio ? members : 1));
  bench::record_host(report.config());

  // Table-1 shapes (m = 64, 128 with the paper widths, k = 3..8), a
  // complete Gaussian twin of the first, and a Table-2-style large-m
  // first-solutions row on the Gaussian engine.
  const Config configs[] = {
      {"m64_k3_plain", 64, 3, false, false, UINT64_MAX, 20},
      {"m64_k3_gauss", 64, 3, false, true, UINT64_MAX, 20, "m64_k3_plain"},
      {"m64_k4_plain", 64, 4, false, false, UINT64_MAX, 4},
      {"m64_k4_props", 64, 4, true, false, UINT64_MAX, 6},
      {"m128_k3_plain", 128, 3, false, false, UINT64_MAX, 2},
      {"m64_k8_cap10", 64, 8, false, false, 10, 10},
      {"m128_k8_gauss_cap10", 128, 8, false, true, 10, 1},
  };

  std::printf("%-20s %8s %8s %12s %12s %10s %16s\n", "config", "entries",
              "signals", "props/sec", "confl/sec", "seconds", "fingerprint");

  bool all_complete_ok = true;
  bool fingerprints_ok = true;
  std::map<std::string, std::string> fps;  // complete row -> fingerprint
  for (const Config& cfg : configs) {
    const std::size_t n_entries =
        std::max<std::size_t>(1, cfg.entries * entry_scale / 100);
    const core::TimestampEncoding enc = core::TimestampEncoding::random_constrained(
        cfg.m, core::paper_width(cfg.m), 4, /*seed=*/42);
    const core::Logger logger(enc);
    const core::ExistsConsecutivePair p2;
    const core::MinChangesBefore dk(32, 3);

    core::Reconstructor rec(enc);
    if (cfg.with_properties) {
      rec.add_property(p2);
      rec.add_property(dk);
    }
    const bool complete_row = cfg.max_solutions == UINT64_MAX;

    core::ReconstructionOptions opts;
    opts.use_gauss = cfg.use_gauss;
    opts.max_solutions = cfg.max_solutions;
    opts.solver_backend = backend;
    opts.portfolio_members = members;
    opts.verify_models = !complete_row;  // capped rows: each model re-checked

    f2::Rng rng(cfg.m * 1009 + cfg.k);
    sat::SolverStats stats;
    double seconds = 0.0;
    std::uint64_t signals = 0;
    std::uint64_t fingerprint = 1469598103934665603ULL;  // FNV offset basis
    bool complete = true;
    for (std::size_t i = 0; i < n_entries; ++i) {
      const core::Signal s = cfg.with_properties
                                 ? bench::table_signal(cfg.m, cfg.k, rng)
                                 : core::Signal::random_with_changes(cfg.m, cfg.k, rng);
      const core::LogEntry entry = logger.log(s);
      const core::ReconstructionResult r = rec.reconstruct(entry, opts);
      stats += r.stats;
      seconds += r.seconds_total;
      signals += r.signals.size();
      if (complete_row) {
        complete = complete && r.complete();
        fnv1a(fingerprint, sorted_signal_key(r.signals));
      }
    }

    const double props_per_sec = seconds > 0 ? static_cast<double>(stats.propagations) / seconds : 0.0;
    const double confl_per_sec = seconds > 0 ? static_cast<double>(stats.conflicts) / seconds : 0.0;
    char fp[24] = "-";
    if (complete_row) {
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(fingerprint));
    }
    all_complete_ok = all_complete_ok && complete;
    std::printf("%-20s %8zu %8llu %12.0f %12.0f %10.3f %16s%s\n", cfg.name,
                n_entries, static_cast<unsigned long long>(signals),
                props_per_sec, confl_per_sec, seconds, fp,
                complete ? "" : "  INCOMPLETE");
    std::fflush(stdout);

    report.add_solver_stats(stats);
    obs::Json row = obs::Json::object()
                        .set("config", std::string(cfg.name))
                        .set("m", static_cast<std::uint64_t>(cfg.m))
                        .set("k", static_cast<std::uint64_t>(cfg.k))
                        .set("properties", cfg.with_properties)
                        .set("use_gauss", cfg.use_gauss)
                        .set("entries", static_cast<std::uint64_t>(n_entries))
                        .set("signals", signals)
                        .set("seconds", seconds)
                        .set("propagations", stats.propagations)
                        .set("conflicts", stats.conflicts)
                        .set("props_per_sec", props_per_sec)
                        .set("conflicts_per_sec", confl_per_sec);
    if (complete_row) row.set("fingerprint", std::string(fp));
    report.add_row(std::move(row));

    if (complete_row && !complete) {
      std::fprintf(stderr, "bench_solver: config %s did not enumerate to "
                           "completion\n", cfg.name);
      report.finish();
      return 1;
    }
    if (complete_row) {
      fps[cfg.name] = fp;
      if (cfg.same_answers_as != nullptr && fps[cfg.same_answers_as] != fp) {
        std::fprintf(stderr,
                     "bench_solver: %s fingerprint %s differs from %s's %s — "
                     "the XOR engines disagree on the preimage\n",
                     cfg.name, fp, cfg.same_answers_as,
                     fps[cfg.same_answers_as].c_str());
        fingerprints_ok = false;
      }
    }
  }

  report.finish();
  return all_complete_ok && fingerprints_ok ? 0 : 1;
}
