// bench_lograte — throughput of the deployment-phase data path: the
// behavioural streaming logger and the register-level agg-log hardware
// model, in traced clock cycles per second. Also validates the constant
// bits-per-trace-cycle accounting of Table 1's R column.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_gbench.hpp"
#include "rtlsim/agg_log.hpp"
#include "rtlsim/sim.hpp"
#include "timeprint/design.hpp"
#include "timeprint/logger.hpp"

using namespace tp;

namespace {

// Building the m=1024, b=24 LI-4 encoding takes a few tenths of a second
// (2.2M draws against ~500k pairwise XORs), and benchmark functions are
// re-entered per repetition, so cache encodings across calls.
const core::TimestampEncoding& cached_encoding(std::size_t m) {
  static std::map<std::size_t, core::TimestampEncoding> cache;
  auto it = cache.find(m);
  if (it == cache.end()) {
    it = cache
             .emplace(m, core::TimestampEncoding::random_constrained(
                             m, core::paper_width(m), 4, 42))
             .first;
  }
  return it->second;
}

void BM_StreamingLogger(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto& enc = cached_encoding(m);
  f2::Rng rng(1);
  std::vector<bool> changes(m * 64);
  for (auto&& c : changes) c = rng.below(8) == 0;

  for (auto _ : state) {
    core::StreamingLogger logger(enc);
    for (bool c : changes) logger.tick(c);
    benchmark::DoNotOptimize(logger.log().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(changes.size()));
}

void BM_AggLogHardwareModel(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto& enc = cached_encoding(m);
  f2::Rng rng(1);
  std::vector<bool> changes(m * 64);
  for (auto&& c : changes) c = rng.below(8) == 0;

  for (auto _ : state) {
    rtl::AggLogUnit hw(enc);
    rtl::Simulator sim;
    sim.add(hw);
    for (bool c : changes) {
      hw.set_change(c);
      sim.step();
    }
    benchmark::DoNotOptimize(hw.log().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(changes.size()));
}

void BM_LogRateAccounting(benchmark::State& state) {
  // The R column of Table 1: (b + log m) / m x 100 MHz, for all paper rows.
  for (auto _ : state) {
    double total = 0;
    for (std::size_t m : {64u, 128u, 512u, 1024u}) {
      total += core::log_rate_bps(m, core::paper_width(m), 100e6);
    }
    benchmark::DoNotOptimize(total);
  }
}

}  // namespace

BENCHMARK(BM_StreamingLogger)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AggLogHardwareModel)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LogRateAccounting);

int main(int argc, char** argv) {
  return tp::bench::gbench_main("lograte", argc, argv);
}
