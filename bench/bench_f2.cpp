// bench_f2 — scalar vs word-parallel/bit-sliced F2 decode throughput.
//
// The kernel workload behind reconstruction's presolve layer: ONE matrix A
// (b timeprint bits × m trace cycles), a long stream of right-hand sides.
// Each config decodes the same stream twice:
//
//   scalar: reference::solve(A, b) per entry — a fresh bit-at-a-time
//           elimination every time (the pre-bit-sliced Matrix::solve);
//   sliced: Echelonizer(A) factored once (M4R elimination, timed in), then
//           solve_batch over the stream — 64 entries per transposed sweep.
//
// The two must produce identical particular solutions entry for entry;
// the row's "fingerprint" hashes them so a committed baseline catches a
// faster-but-wrong kernel. The m=128 rows are the acceptance point for
// the bit-sliced path (>= 4x scalar).
//
// The encode_* rows time the other F2 kernel a deployment pays for once:
// building random-constrained LI-4 timestamps (f2::LiChecker) at
// perfbench's m = 256 and the paper's m = 1000 (§5.2.1) and m = 1024
// (§5.2.2), b = 24. Their fingerprint hashes every timestamp word, so a
// faster checker that picks different timestamps fails the baseline diff.
//
//   bench_f2 [--entries N] [--json out.json]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "f2/bitvec.hpp"
#include "f2/echelon.hpp"
#include "f2/matrix.hpp"
#include "f2/reference.hpp"
#include "timeprint/encoding.hpp"

namespace {

using namespace tp;
using Clock = std::chrono::steady_clock;

struct Config {
  const char* name;
  std::size_t m;  // columns (trace cycles)
  std::size_t b;  // rows (timeprint width)
};

// FNV-1a over the decode outcomes: order, consistency and every solution
// word all land in the hash.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void add_solution(const std::optional<f2::BitVec>& x) {
    if (!x.has_value()) {
      add(0xdeadULL);
      return;
    }
    add(1);
    for (std::size_t w = 0; w < x->num_words(); ++w) add(x->word(w));
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_entries = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--entries") == 0 && i + 1 < argc) {
      num_entries = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
  }

  bench::JsonReport report("f2", argc, argv);
  report.config().set("entries", static_cast<std::uint64_t>(num_entries));
  bench::record_host(report.config());

  const Config configs[] = {
      {"m64_b16", 64, 16},
      {"m128_b16", 128, 16},    // acceptance: sliced >= 4x scalar
      {"m128_b64", 128, 64},
      {"m256_b128", 256, 128},
  };

  std::printf("%-12s %8s %12s %12s %10s %6s\n", "config", "entries",
              "scalar_eps", "sliced_eps", "speedup", "same");

  bool all_ok = true;
  for (const Config& cfg : configs) {
    f2::Rng rng(1729 + cfg.m + cfg.b);
    f2::Matrix a(cfg.b, cfg.m);
    for (std::size_t r = 0; r < cfg.b; ++r) {
      a.row(r) = f2::BitVec::random(cfg.m, rng);
    }
    // Half the rows are dependent-or-zero only by chance; force a bit of
    // rank deficiency so the inconsistent branch is exercised too.
    if (cfg.b >= 8) a.row(cfg.b - 1) = a.row(0) ^ a.row(1);

    std::vector<f2::BitVec> rhs;
    rhs.reserve(num_entries);
    for (std::size_t i = 0; i < num_entries; ++i) {
      rhs.push_back(i % 4 == 3 ? f2::BitVec::random(cfg.b, rng)
                               : a.multiply(f2::BitVec::random(cfg.m, rng)));
    }

    Fnv scalar_fp;
    double scalar_seconds = 0.0;
    {
      const auto t0 = Clock::now();
      for (const f2::BitVec& b : rhs) {
        const auto sol = f2::reference::solve(a, b);
        scalar_fp.add_solution(sol.has_value()
                                   ? std::optional<f2::BitVec>(sol->particular)
                                   : std::nullopt);
      }
      scalar_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    }

    Fnv sliced_fp;
    double sliced_seconds = 0.0;
    {
      const auto t0 = Clock::now();  // factorization included in the cost
      const f2::Echelonizer ech(a);
      const std::vector<std::optional<f2::BitVec>> xs = ech.solve_batch(rhs);
      sliced_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
      for (const auto& x : xs) sliced_fp.add_solution(x);
    }

    const bool identical = scalar_fp.hex() == sliced_fp.hex();
    all_ok = all_ok && identical;
    const double scalar_eps =
        scalar_seconds > 0 ? num_entries / scalar_seconds : 0.0;
    const double sliced_eps =
        sliced_seconds > 0 ? num_entries / sliced_seconds : 0.0;
    const double speedup =
        sliced_seconds > 0 ? scalar_seconds / sliced_seconds : 0.0;

    std::printf("%-12s %8zu %12.0f %12.0f %9.2fx %6s\n", cfg.name, num_entries,
                scalar_eps, sliced_eps, speedup, identical ? "yes" : "NO");

    report.add_row(obs::Json::object()
                       .set("config", cfg.name)
                       .set("m", static_cast<std::uint64_t>(cfg.m))
                       .set("b", static_cast<std::uint64_t>(cfg.b))
                       .set("entries", static_cast<std::uint64_t>(num_entries))
                       .set("scalar_seconds", scalar_seconds)
                       .set("sliced_seconds", sliced_seconds)
                       .set("scalar_entries_per_sec", scalar_eps)
                       .set("entries_per_sec", sliced_eps)
                       .set("speedup_vs_scalar", speedup)
                       .set("fingerprint", sliced_fp.hex())
                       .set("identical_solutions", identical));

    if (!identical) {
      std::fprintf(stderr, "bench_f2: scalar/sliced mismatch in config %s\n",
                   cfg.name);
    }
  }

  struct EncodingConfig {
    const char* name;
    std::size_t m;
    std::size_t b;
    std::uint64_t seed;
  };
  const EncodingConfig encodings[] = {
      {"encode_m256_b24", 256, 24, 2019},   // perfbench forensics and ingest
      {"encode_m1000_b24", 1000, 24, 2019}, // bench_can_experiment
      {"encode_m1024_b24", 1024, 24, 7},    // bench_refresh_experiment
  };
  std::printf("\n%-18s %6s %4s %12s %18s\n", "config", "m", "b", "seconds",
              "fingerprint");
  for (const EncodingConfig& cfg : encodings) {
    const auto t0 = Clock::now();
    const auto enc = core::TimestampEncoding::random_constrained(cfg.m, cfg.b, 4, cfg.seed);
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    Fnv fp;
    for (const f2::BitVec& ts : enc.timestamps()) {
      for (std::size_t w = 0; w < ts.num_words(); ++w) fp.add(ts.word(w));
    }
    std::printf("%-18s %6zu %4zu %12.4f %18s\n", cfg.name, cfg.m, cfg.b, seconds,
                fp.hex().c_str());
    report.add_row(obs::Json::object()
                       .set("config", cfg.name)
                       .set("m", static_cast<std::uint64_t>(cfg.m))
                       .set("b", static_cast<std::uint64_t>(cfg.b))
                       .set("depth", 4)
                       .set("seed", cfg.seed)
                       .set("seconds", seconds)
                       .set("fingerprint", fp.hex()));
  }

  report.finish();
  return all_ok ? 0 : 1;
}
