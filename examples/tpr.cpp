// tpr.cpp — command-line front end for timeprint logging and
// reconstruction ("the tool" of §5.2.1): generates encodings, abstracts
// signals to log entries, reconstructs signals from log entries, and
// checks hypotheses, with temporal properties given in the textual
// property language (see src/timeprint/parse.hpp).
//
// Usage:
//   tpr encode <m> <b> <depth> <seed>
//       Print the timestamp table of a random-constrained encoding.
//   tpr log <m> <b> <seed> <signal-bits>
//       Abstract a signal (cycle-0-first 0/1 string) to (TP, k).
//   tpr reconstruct <m> <b> <seed> <tp-bits> <k> [options]
//       Enumerate signals explaining (TP, k).
//   tpr check <m> <b> <seed> <tp-bits> <k> --hypothesis "<prop>" [options]
//       Prove or refute a hypothesis over all reconstructions.
//   tpr trace <m> <b> <seed> <tp-bits> <k> [options]
//       Replay a reconstruction with event tracing on and dump the JSONL
//       trace (solver/encode/enumeration spans and events) to stdout or,
//       with --out FILE, to a file; the solution summary goes to stderr.
//   tpr solve <cnf-file> [--proof FILE] [--binary-proof]
//       Solve an extended-DIMACS instance with the CDCL core. With --proof,
//       every learnt/deleted clause is streamed as a DRAT proof (text by
//       default, binary with --binary-proof); an UNSAT run's proof ends
//       with the empty clause. Exit 0 = SAT, 1 = UNSAT, 2 = error.
//   tpr check-proof <cnf-file> <proof-file> [--binary-proof]
//       Replay a DRAT proof against the instance with the independent
//       RUP/RAT checker (shares no code with the solver). Exit 0 iff the
//       proof is valid AND derives the empty clause.
// Options:
//   --prop "<p1>; <p2>; ..."   known properties pruning the search
//   --max <n>                  stop after n solutions (default 10)
//   --timeout <seconds>        solver budget (default unlimited)
//   --out <file>               trace sink for `tpr trace` (default stdout)
//   --incremental              decode through the template engine
//                              (timeprint/incremental.hpp) instead of a
//                              fresh solver; `tpr trace` reports the
//                              incremental.* counters on stderr
// A flag that the subcommand does not use (say `--max` or `--out` for
// `check`, `--hypothesis` for `reconstruct`) is an error (exit 2).
//
// Numbers are unsigned decimal digits only (the --timeout value is a
// non-negative decimal); a malformed value is an error (exit 2) that names
// its argument.
//
// Example:
//   tpr reconstruct 64 13 1 0101100110010 4 --prop "before 32 min 3" --max 5

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat.hpp"
#include "sat/solver.hpp"
#include "timeprint/incremental.hpp"
#include "timeprint/parse.hpp"
#include "timeprint/reconstruct.hpp"

using namespace tp;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tpr encode <m> <b> <depth> <seed>\n"
               "  tpr log <m> <b> <seed> <signal-bits>\n"
               "  tpr reconstruct <m> <b> <seed> <tp-bits> <k> [--prop P] "
               "[--max N] [--timeout S] [--incremental]\n"
               "      [--inprocess BUDGET] [--inprocess-every N]\n"
               "  tpr check <m> <b> <seed> <tp-bits> <k> --hypothesis P "
               "[--prop P] [--timeout S]\n"
               "  tpr trace <m> <b> <seed> <tp-bits> <k> [--prop P] [--max N] "
               "[--timeout S] [--out FILE] [--incremental]\n"
               "      [--inprocess BUDGET] [--inprocess-every N]\n"
               "  tpr solve <cnf-file> [--proof FILE] [--binary-proof]\n"
               "  tpr check-proof <cnf-file> <proof-file> [--binary-proof]\n");
  return 2;
}

sat::Cnf read_cnf(const char* path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(std::string("cannot open ") + path);
  return sat::parse_dimacs(in);
}

// tpr solve: DIMACS in, verdict (and optionally a DRAT proof) out.
int cmd_solve(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string proof_path;
  bool binary = false;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--binary-proof") {
      binary = true;
    } else if (flag == "--proof" && i + 1 < argc) {
      proof_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const sat::Cnf cnf = read_cnf(argv[2]);

  std::ofstream proof_out;
  std::unique_ptr<sat::ProofSink> sink;
  if (!proof_path.empty()) {
    proof_out.open(proof_path,
                   binary ? std::ios::out | std::ios::binary : std::ios::out);
    if (!proof_out) {
      std::fprintf(stderr, "cannot open %s for writing\n", proof_path.c_str());
      return 2;
    }
    if (binary) {
      sink = std::make_unique<sat::BinaryDratWriter>(proof_out);
    } else {
      sink = std::make_unique<sat::TextDratWriter>(proof_out);
    }
  }

  sat::SolverOptions so;
  so.proof = sink.get();
  const std::unique_ptr<sat::SolverInterface> solver =
      sat::SolverFactory::make(so);
  sat::Status status = sat::Status::Unsat;
  if (cnf.load_into(*solver)) status = solver->solve();
  std::printf("s %s\n", status == sat::Status::Sat     ? "SATISFIABLE"
                        : status == sat::Status::Unsat ? "UNSATISFIABLE"
                                                       : "UNKNOWN");
  if (status == sat::Status::Sat) {
    std::string line = "v";
    for (int v = 0; v < cnf.num_vars; ++v) {
      line += ' ';
      line += std::to_string(
          solver->model_value(sat::Var(v)) == sat::LBool::True ? v + 1
                                                               : -(v + 1));
    }
    std::printf("%s 0\n", line.c_str());
  }
  return status == sat::Status::Sat ? 0 : status == sat::Status::Unsat ? 1 : 2;
}

// tpr check-proof: replay a DRAT proof with the independent checker.
int cmd_check_proof(int argc, char** argv) {
  if (argc < 4) return usage();
  bool binary = false;
  for (int i = 4; i < argc; ++i) {
    if (std::string(argv[i]) == "--binary-proof") {
      binary = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  const sat::Cnf cnf = read_cnf(argv[2]);
  std::ifstream pin(argv[3],
                    binary ? std::ios::in | std::ios::binary : std::ios::in);
  if (!pin) {
    std::fprintf(stderr, "cannot open %s\n", argv[3]);
    return 2;
  }
  const auto proof =
      binary ? sat::parse_drat_binary(pin) : sat::parse_drat_text(pin);

  sat::DratChecker checker;
  for (const auto& c : sat::clausal_view(cnf)) checker.add_clause(c);
  const auto res = checker.check(proof);
  std::printf("ops %zu\nvalid %s\nproved-unsat %s\n", res.ops_checked,
              res.valid ? "yes" : "no", res.proved_unsat ? "yes" : "no");
  if (!res.error.empty()) std::printf("error %s\n", res.error.c_str());
  return res.valid && res.proved_unsat ? 0 : 1;
}

// Strict command-line numbers: a malformed or out-of-range value throws
// std::invalid_argument naming the argument, which main() reports with
// exit status 2.
std::size_t to_num(const char* arg, const char* value,
                   std::size_t max = std::numeric_limits<std::size_t>::max()) {
  std::size_t n = 0;
  try {
    n = core::parse_number(value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(arg) + ": " + e.what());
  }
  if (n > max) {
    throw std::invalid_argument(std::string(arg) + ": " + value +
                                " exceeds " + std::to_string(max));
  }
  return n;
}

double to_seconds(const char* arg, const char* value) {
  // strtod alone would skip whitespace and take a sign, "inf" or "nan".
  const bool unsigned_decimal =
      std::isdigit(static_cast<unsigned char>(value[0])) || value[0] == '.';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value, &end);
  if (!unsigned_decimal || end == value || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(arg) +
                                ": expected a non-negative number of seconds, "
                                "got '" + value + "'");
  }
  return v;
}

struct CommonOptions {
  std::unique_ptr<core::Property> known;
  std::unique_ptr<core::Property> hypothesis;
  std::uint64_t max_solutions = 10;
  double timeout = -1.0;
  std::string trace_out;
  bool incremental = false;
  std::int64_t inprocess_budget = -1;   ///< -1 = SolverConfig default
  std::int64_t inprocess_interval = -1; ///< -1 = SolverConfig default
};

// Whether subcommand `cmd` would ignore `flag`. Such a flag is an error
// rather than a silent no-op; unknown flags are left to parse_flags.
bool ignores_flag(const std::string& cmd, const std::string& flag) {
  if (flag == "--hypothesis") return cmd != "check";
  if (flag == "--out") return cmd != "trace";
  if (flag == "--max" || flag == "--incremental" || flag == "--inprocess" ||
      flag == "--inprocess-every") {
    return cmd == "check";  // a check decodes one counterexample, fresh
  }
  return false;
}

bool parse_flags(const std::string& cmd, int argc, char** argv, int first,
                 CommonOptions& out) {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (ignores_flag(cmd, flag)) {
      std::fprintf(stderr, "tpr %s does not use %s\n", cmd.c_str(), flag.c_str());
      return false;
    }
    if (flag == "--incremental") {  // valueless
      out.incremental = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--prop") {
      out.known = core::parse_properties(value);
    } else if (flag == "--hypothesis") {
      out.hypothesis = core::parse_properties(value);
    } else if (flag == "--max") {
      out.max_solutions = to_num("--max", value);
    } else if (flag == "--timeout") {
      out.timeout = to_seconds("--timeout", value);
    } else if (flag == "--out") {
      out.trace_out = value;
    } else if (flag == "--inprocess") {
      out.inprocess_budget = static_cast<std::int64_t>(to_num(
          "--inprocess", value, std::numeric_limits<std::int64_t>::max()));
    } else if (flag == "--inprocess-every") {
      out.inprocess_interval = static_cast<std::int64_t>(to_num(
          "--inprocess-every", value, std::numeric_limits<std::uint32_t>::max()));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "solve") return cmd_solve(argc, argv);
    if (cmd == "check-proof") return cmd_check_proof(argc, argv);
    if (cmd == "encode") {
      if (argc != 6) return usage();
      const auto enc = core::TimestampEncoding::random_constrained(
          to_num("<m>", argv[2]), to_num("<b>", argv[3]),
          to_num("<depth>", argv[4]), to_num("<seed>", argv[5]));
      std::printf("# m=%zu b=%zu depth=%zu scheme=%s\n", enc.m(), enc.width(),
                  enc.depth(), to_string(enc.scheme()));
      for (std::size_t i = 0; i < enc.m(); ++i) {
        std::printf("TS(%zu) %s\n", i + 1, enc.timestamp(i).to_string().c_str());
      }
      return 0;
    }
    if (cmd == "log") {
      if (argc != 6) return usage();
      const auto enc = core::TimestampEncoding::random_constrained(
          to_num("<m>", argv[2]), to_num("<b>", argv[3]), 4,
          to_num("<seed>", argv[4]));
      std::string bits = argv[5];
      if (bits.size() != enc.m()) {
        std::fprintf(stderr, "signal must have exactly m=%zu bits\n", enc.m());
        return 2;
      }
      core::Signal s(enc.m());
      for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i] != '0' && bits[i] != '1') {
          std::fprintf(stderr, "<signal-bits>: bad bit '%c' at position %zu\n",
                       bits[i], i);
          return 2;
        }
        if (bits[i] == '1') s.set_change(i);
      }
      const core::LogEntry e = core::Logger(enc).log(s);
      std::printf("TP %s\nk %zu\n", e.tp.to_string().c_str(), e.k);
      return 0;
    }
    if (cmd == "reconstruct" || cmd == "check" || cmd == "trace") {
      if (argc < 7) return usage();
      const auto enc = core::TimestampEncoding::random_constrained(
          to_num("<m>", argv[2]), to_num("<b>", argv[3]), 4,
          to_num("<seed>", argv[4]));
      const std::string tp_bits = argv[5];
      if (tp_bits.size() != enc.width()) {
        std::fprintf(stderr, "timeprint must have exactly b=%zu bits\n",
                     enc.width());
        return 2;
      }
      core::LogEntry entry{f2::BitVec::from_string(tp_bits),
                           to_num("<k>", argv[6])};

      CommonOptions opts;
      if (!parse_flags(cmd, argc, argv, 7, opts)) return 2;

      core::Reconstructor rec(enc);
      if (opts.known) rec.add_property(*opts.known);
      core::ReconstructionOptions ro;
      ro.max_solutions = opts.max_solutions;
      ro.limits.max_seconds = opts.timeout;
      ro.incremental = opts.incremental;
      if (opts.inprocess_budget >= 0) ro.inprocess_budget = opts.inprocess_budget;
      if (opts.inprocess_interval >= 0) {
        ro.inprocess_interval =
            static_cast<std::uint32_t>(opts.inprocess_interval);
      }

      // One entry, either engine: --incremental builds a template and
      // serves the entry from it (the counters it bumps are reported by
      // `tpr trace` below); otherwise the classic fresh-solver path.
      const auto run = [&]() {
        if (opts.incremental) {
          core::TemplateReconstructor tmpl(rec, ro);
          return tmpl.reconstruct(entry);
        }
        return rec.reconstruct(entry, ro);
      };

      if (cmd == "trace") {
        // Replay the reconstruction with the event tracer armed; the JSONL
        // trace is the primary output, so the human summary moves to stderr.
        obs::Tracer tracer(std::cout);
        if (!opts.trace_out.empty()) tracer.open(opts.trace_out);
        ro.tracer = &tracer;
        const auto result = run();
        std::fprintf(stderr, "# status=%s solutions=%zu seconds=%.3f%s%s\n",
                     to_string(result.final_status), result.signals.size(),
                     result.seconds_total,
                     opts.trace_out.empty() ? "" : " trace=",
                     opts.trace_out.c_str());
        auto& reg = obs::MetricsRegistry::global();
        std::fprintf(
            stderr,
            "# incremental template_builds=%lld template_hits=%lld "
            "template_misses=%lld learnt_retained=%lld\n",
            static_cast<long long>(reg.counter_value("incremental.template_builds")),
            static_cast<long long>(reg.counter_value("incremental.template_hits")),
            static_cast<long long>(reg.counter_value("incremental.template_misses")),
            static_cast<long long>(reg.counter_value("incremental.learnt_retained")));
        std::fprintf(
            stderr,
            "# warm-template inprocess_rounds=%lld template_evictions=%lld "
            "template_cache_bytes=%lld\n",
            static_cast<long long>(
                reg.counter_value("solver.inprocess.rounds")),
            static_cast<long long>(
                reg.counter_value("incremental.template_evictions")),
            static_cast<long long>(
                reg.gauge_value("incremental.template_cache_bytes")));
        return result.final_status == sat::Status::Unknown ? 1 : 0;
      }
      if (cmd == "reconstruct") {
        const auto result = run();
        std::printf("# status=%s solutions=%zu seconds=%.3f\n",
                    to_string(result.final_status), result.signals.size(),
                    result.seconds_total);
        for (const auto& s : result.signals) {
          std::printf("%s\n", s.to_string().c_str());
        }
        return result.final_status == sat::Status::Unknown ? 1 : 0;
      }
      if (!opts.hypothesis) {
        std::fprintf(stderr, "check requires --hypothesis\n");
        return 2;
      }
      const auto check = rec.check_hypothesis(entry, *opts.hypothesis, ro);
      std::printf("verdict %s\nseconds %.3f\n", to_string(check.verdict),
                  check.seconds);
      if (check.witness) {
        std::printf("witness %s\n", check.witness->to_string().c_str());
      }
      return check.verdict == core::CheckVerdict::Unknown ? 1 : 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
