// bench_parallel — scaling of the batch reconstruction engine over worker
// threads. Two workloads:
//
//  1. Batch fan-out: a Table-2-style backlog of independent log entries
//     decoded with BatchReconstructor::reconstruct_all at 1/2/4/8 threads.
//  2. Single-instance split: one underdetermined entry (k above the
//     encoding's uniqueness range, so the preimage is wide) decoded with
//     reconstruct_split, where cube-and-conquer over a balanced cube plan
//     parallelises a single AllSAT call.
//
// For every thread count the merged output is checked byte-for-byte
// against the single-threaded run — determinism is part of the contract,
// not just speed. Speedup is reported against the measured 1-thread wall
// clock on whatever hardware runs the binary.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "timeprint/batch.hpp"
#include "timeprint/logger.hpp"

using namespace tp;

namespace {

std::string flatten(const std::vector<core::ReconstructionResult>& results) {
  std::string out;
  for (const auto& r : results) {
    for (const auto& s : r.signals) {
      out += s.to_string();
      out += '\n';
    }
  }
  return out;
}

std::string flatten_one(const core::ReconstructionResult& r) {
  std::string out;
  for (const auto& s : r.signals) {
    out += s.to_string();
    out += '\n';
  }
  return out;
}

void report_line(std::size_t threads, double seconds, double base_seconds,
                 bool identical) {
  std::printf("  %2zu threads: %-10s speedup %.2fx  output %s\n", threads,
              bench::fmt_time(seconds).c_str(),
              seconds > 0 ? base_seconds / seconds : 0.0,
              identical ? "identical" : "MISMATCH");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("parallel", argc, argv);
  bench::record_host(report.config());
  const std::size_t kThreads[] = {1, 2, 4, 8};

  // ---- workload 1: independent entries ---------------------------------
  {
    const std::size_t m = 48, k = 3, n_entries = 12;
    const auto enc = core::TimestampEncoding::random_constrained_auto(m, 4, 42);
    core::Logger logger(enc);
    f2::Rng rng(1);
    std::vector<core::LogEntry> entries;
    for (std::size_t i = 0; i < n_entries; ++i) {
      entries.push_back(logger.log(bench::table_signal(m, k, rng)));
    }

    std::printf("=== batch fan-out: %zu entries, m=%zu b=%zu k=%zu ===\n",
                n_entries, m, enc.width(), k);
    report.config()
        .set("fanout_entries", static_cast<std::uint64_t>(n_entries))
        .set("fanout_m", static_cast<std::uint64_t>(m))
        .set("fanout_k", static_cast<std::uint64_t>(k));
    core::BatchReconstructor batch(enc);
    std::string reference;
    double base_seconds = 0;
    for (std::size_t t : kThreads) {
      core::BatchOptions opts;
      opts.num_threads = t;
      const auto r = batch.reconstruct_all(entries, opts);
      const std::string flat = flatten(r.results);
      if (t == 1) {
        reference = flat;
        base_seconds = r.seconds_total;
      }
      report_line(t, r.seconds_total, base_seconds, flat == reference);
      report.add_solver_stats(r.stats);
      report.add_row(obs::Json::object()
                         .set("workload", "fanout")
                         .set("threads", static_cast<std::uint64_t>(t))
                         .set("seconds", r.seconds_total)
                         .set("speedup", r.seconds_total > 0
                                             ? base_seconds / r.seconds_total
                                             : 0.0)
                         .set("identical", flat == reference));
    }
  }

  // ---- workload 2: one hard instance, cube-and-conquer split ------------
  {
    const std::size_t m = 48, k = 5;  // k > d/2: a genuinely wide preimage
    const auto enc = core::TimestampEncoding::random_constrained_auto(m, 4, 7);
    core::Logger logger(enc);
    f2::Rng rng(5);
    const core::LogEntry entry = logger.log(core::Signal::random_with_changes(m, k, rng));

    std::printf("\n=== single-instance split: m=%zu b=%zu k=%zu ===\n", m,
                enc.width(), k);
    report.config()
        .set("split_m", static_cast<std::uint64_t>(m))
        .set("split_k", static_cast<std::uint64_t>(k));
    core::BatchReconstructor batch(enc);
    std::string reference;
    double base_seconds = 0;
    for (std::size_t t : kThreads) {
      core::BatchOptions opts;
      opts.num_threads = t;
      const auto r = batch.reconstruct_split(entry, opts);
      const std::string flat = flatten_one(r);
      if (t == 1) {
        reference = flat;
        base_seconds = r.seconds_total;
        std::printf("  preimage: %zu signals\n", r.signals.size());
      }
      report_line(t, r.seconds_total, base_seconds, flat == reference);
      report.add_solver_stats(r.stats);
      report.add_row(obs::Json::object()
                         .set("workload", "split")
                         .set("threads", static_cast<std::uint64_t>(t))
                         .set("seconds", r.seconds_total)
                         .set("speedup", r.seconds_total > 0
                                             ? base_seconds / r.seconds_total
                                             : 0.0)
                         .set("identical", flat == reference));
    }
  }

  std::printf("\nSpeedup is measured on this machine's cores; on a single-core\n"
              "host the parallel runs only verify the determinism contract.\n");
  report.finish();
  return 0;
}
