// Tests for the parallel batch reconstruction engine: agreement with the
// single-threaded path, determinism across thread counts, cube-and-conquer
// splitting, cancellation, options validation and progress reporting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "f2/matrix.hpp"
#include "timeprint/batch.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/properties.hpp"

namespace tp::core {
namespace {

TimestampEncoding test_encoding(std::size_t m = 32, std::size_t b = 16) {
  return TimestampEncoding::random_constrained(m, b, 4, /*seed=*/7);
}

std::vector<LogEntry> test_entries(const TimestampEncoding& enc, std::size_t n,
                                   std::size_t k) {
  Logger logger(enc);
  f2::Rng rng(99);
  std::vector<LogEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.push_back(logger.log(Signal::random_with_changes(enc.m(), k, rng)));
  }
  return entries;
}

std::vector<std::string> ordered_strings(const std::vector<Signal>& signals) {
  std::vector<std::string> out;
  for (const Signal& s : signals) out.push_back(s.to_string());
  return out;
}

std::set<std::string> to_set(const std::vector<Signal>& signals) {
  const auto strings = ordered_strings(signals);
  return {strings.begin(), strings.end()};
}

// Per-cube model counts and run order of one split, read off its progress
// callbacks: they are serialized, so each signals_found delta is the
// finishing cube's share of the merged output.
struct CubeLog {
  std::vector<std::uint64_t> models;  // by cube index
  std::vector<std::size_t> run_order;
  std::uint64_t found = 0;

  ProgressCallback callback() {
    return [this](const BatchProgress& p) {
      models.resize(p.total);
      models[p.index] = p.signals_found - found;
      found = p.signals_found;
      run_order.push_back(p.index);
    };
  }
};

// Adds nothing to the encoding but rejects every signal: only a verifier
// that evaluates holds() on the decoded signals can notice.
class LyingProperty final : public Property {
 public:
  bool holds(const Signal&) const override { return false; }
  bool encode(sat::SolverInterface&, const std::vector<sat::Var>&) const override {
    return true;
  }
  std::string describe() const override { return "lying"; }
};

TEST(BatchReconstructor, ReconstructAllMatchesSequential) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 6, 3);

  BatchReconstructor batch(enc);
  BatchOptions opts;
  opts.num_threads = 2;
  const BatchResult result = batch.reconstruct_all(entries, opts);

  ASSERT_EQ(result.results.size(), entries.size());
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.threads_used, 2u);

  Reconstructor rec(enc);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto sequential = rec.reconstruct(entries[i]);
    // Same engine per entry => byte-identical signal lists, same order.
    EXPECT_EQ(ordered_strings(result.results[i].signals),
              ordered_strings(sequential.signals))
        << "entry " << i;
    EXPECT_EQ(result.results[i].final_status, sequential.final_status);
  }
  EXPECT_GT(result.signals_total(), 0u);
}

TEST(BatchReconstructor, BatchOutputIdenticalAcross1_2_8Threads) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 5, 3);
  BatchReconstructor batch(enc);

  std::vector<std::vector<std::string>> per_thread_outputs;
  std::vector<sat::Status> statuses;
  for (std::size_t threads : {1u, 2u, 8u}) {
    BatchOptions opts;
    opts.num_threads = threads;
    const BatchResult r = batch.reconstruct_all(entries, opts);
    std::vector<std::string> flat;
    for (const auto& rr : r.results) {
      for (const auto& s : ordered_strings(rr.signals)) flat.push_back(s);
      statuses.push_back(rr.final_status);
    }
    per_thread_outputs.push_back(std::move(flat));
  }
  EXPECT_EQ(per_thread_outputs[0], per_thread_outputs[1]);
  EXPECT_EQ(per_thread_outputs[0], per_thread_outputs[2]);
}

TEST(BatchReconstructor, SplitEnumeratesTheFullPreimage) {
  // k beyond the encoding's uniqueness range: a genuinely multi-signal
  // preimage for the split to enumerate.
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 1, 6);

  Reconstructor rec(enc);
  const auto plain = rec.reconstruct(entries[0]);
  ASSERT_TRUE(plain.complete());

  BatchReconstructor batch(enc);
  BatchOptions opts;
  opts.num_threads = 4;
  const auto split = batch.reconstruct_split(entries[0], opts);
  EXPECT_TRUE(split.complete());
  EXPECT_EQ(to_set(split.signals), to_set(plain.signals));
  EXPECT_EQ(split.signals.size(), plain.signals.size());  // no duplicates
  EXPECT_GT(split.stats.propagations, 0);
  EXPECT_EQ(split.num_vars, plain.num_vars);
}

TEST(BatchReconstructor, SplitOutputIdenticalAcross1_2_8Threads) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 1, 6);
  BatchReconstructor batch(enc);

  std::vector<std::vector<std::string>> outputs;
  std::vector<sat::Status> statuses;
  for (std::size_t threads : {1u, 2u, 8u}) {
    BatchOptions opts;
    opts.num_threads = threads;
    const auto r = batch.reconstruct_split(entries[0], opts);
    outputs.push_back(ordered_strings(r.signals));
    statuses.push_back(r.final_status);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
  EXPECT_EQ(statuses[0], statuses[1]);
  EXPECT_EQ(statuses[0], statuses[2]);
}

TEST(BatchReconstructor, SplitHonoursMaxSolutionsDeterministically) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 1, 6);
  BatchReconstructor batch(enc);

  // Full preimage first, to know the cap is actually binding.
  const auto full = batch.reconstruct_split(entries[0], {});
  ASSERT_TRUE(full.complete());
  ASSERT_GT(full.signals.size(), 2u);

  std::vector<std::vector<std::string>> outputs;
  for (std::size_t threads : {1u, 4u}) {
    BatchOptions opts;
    opts.num_threads = threads;
    opts.recon.max_solutions = 2;
    const auto r = batch.reconstruct_split(entries[0], opts);
    EXPECT_EQ(r.signals.size(), 2u);
    EXPECT_EQ(r.final_status, sat::Status::Sat);  // cut short at the cap
    outputs.push_back(ordered_strings(r.signals));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  // The capped output is the prefix of the uncapped cube-ordered merge.
  const auto full_strings = ordered_strings(full.signals);
  EXPECT_EQ(outputs[0],
            std::vector<std::string>(full_strings.begin(), full_strings.begin() + 2));
}

TEST(BatchReconstructor, SplitRespectsProperties) {
  const auto enc = test_encoding();
  Logger logger(enc);
  f2::Rng rng(3);
  Signal actual(enc.m());
  actual.set_change(5);
  actual.set_change(6);
  actual.set_change(20);
  const LogEntry entry = logger.log(actual);

  ExistsConsecutivePair p2;
  BatchReconstructor batch(enc);
  batch.add_property(p2);
  const auto split = batch.reconstruct_split(entry, {});
  ASSERT_TRUE(split.complete());

  const auto brute = Reconstructor::brute_force(enc, entry, {&p2});
  EXPECT_EQ(to_set(split.signals), to_set(brute));
}

TEST(BatchReconstructor, ExplicitCubeVarsDepthIsHonoured) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 1, 3);
  BatchReconstructor batch(enc);

  std::size_t units = 0;
  BatchOptions opts;
  opts.cube_vars = 3;  // 8 cubes
  opts.on_progress = [&units](const BatchProgress& p) {
    units = p.total;
  };
  const auto r = batch.reconstruct_split(entries[0], opts);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(units, 8u);
}

TEST(BatchReconstructor, SplitCubesAreBalanced) {
  // k = 5 of m = 32 at b = 12: 40-60 signals per entry. Cubes that ignore
  // |x| = k leave a third of them in one cube.
  const auto enc = test_encoding(32, 12);
  const auto entries = test_entries(enc, 3, 5);
  BatchReconstructor batch(enc);
  for (std::size_t e = 0; e < entries.size(); ++e) {
    CubeLog log;
    BatchOptions opts;
    opts.num_threads = 1;
    opts.on_progress = log.callback();
    const auto r = batch.reconstruct_split(entries[e], opts);
    ASSERT_TRUE(r.complete());
    ASSERT_EQ(log.found, r.signals.size());
    ASSERT_GE(r.signals.size(), 16u) << "entry " << e;
    const std::uint64_t largest = *std::max_element(log.models.begin(), log.models.end());
    EXPECT_LE(largest * 8, r.signals.size())
        << "entry " << e << ": the largest cube holds " << largest << " of "
        << r.signals.size() << " signals";
  }
}

TEST(BatchReconstructor, SplitMatchesBruteForceOnSmallInstances) {
  // Edge change counts (k = 0, 1, m - 1, m, where the plan has little or
  // nothing to split) and a random middle k, with and without a property,
  // at a one-variable and the default plan depth and several thread counts.
  // At b = 8 the nullity is within presolve_enum_limit, so each case runs
  // twice: without the presolve, where the cubes decode it, and with it,
  // where the affine enumeration does.
  const std::size_t m = 12;
  ExistsConsecutivePair p2;
  for (std::uint64_t seed : {3u, 11u}) {
    const auto enc = TimestampEncoding::random_constrained_auto(m, 4, seed);
    Logger logger(enc);
    f2::Rng rng(seed);
    const std::size_t mid = 2 + rng.below(m - 3);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, mid, m - 1, m}) {
      const LogEntry entry = logger.log(Signal::random_with_changes(m, k, rng));
      for (const bool with_p2 : {false, true}) {
        std::vector<const Property*> props;
        if (with_p2) props.push_back(&p2);
        BatchReconstructor batch(enc);
        if (with_p2) batch.add_property(p2);
        const auto brute = to_set(Reconstructor::brute_force(enc, entry, props));
        for (const bool presolve : {false, true}) {
          for (std::size_t cube_vars : {1u, 6u}) {
            std::vector<std::string> first;
            for (std::size_t threads : {1u, 3u, 8u}) {
              std::size_t cubes_run = 0;
              BatchOptions opts;
              opts.recon.presolve = presolve;
              opts.cube_vars = cube_vars;
              opts.num_threads = threads;
              opts.on_progress = [&cubes_run](const BatchProgress&) { ++cubes_run; };
              SCOPED_TRACE(testing::Message()
                           << "seed " << seed << " k " << k << " p2 " << with_p2
                           << " presolve " << presolve << " cube_vars " << cube_vars
                           << " threads " << threads);
              const auto r = batch.reconstruct_split(entry, opts);
              EXPECT_TRUE(r.complete());
              EXPECT_EQ(to_set(r.signals), brute);
              EXPECT_EQ(r.signals.size(), brute.size());  // no duplicates
              if (threads == 1) first = ordered_strings(r.signals);
              EXPECT_EQ(ordered_strings(r.signals), first);
              if (presolve) {
                EXPECT_EQ(r.num_vars, 0);  // the affine enumeration decoded it
              } else if (k != 0 || !with_p2) {
                // The cube plan decoded it. (k = 0 refutes P2 while it is
                // encoded, before any cube exists.)
                EXPECT_GE(cubes_run, 1u);
              }
            }
          }
        }
      }
    }
  }
}

TEST(BatchReconstructor, SplitOfAnInconsistentEntryNeedsNoSolver) {
  // With m = 20 < b = 24 the timestamps span a proper subspace, and TP bits
  // {0, 5, 17} lie outside it: the presolve proves the preimage empty
  // before any solver or cube exists.
  const auto enc = TimestampEncoding::random_constrained(20, 24, 4, 5);
  f2::BitVec tp(24);
  for (const std::size_t bit : {0u, 5u, 17u}) tp.set(bit, true);
  ASSERT_FALSE(enc.to_matrix().solve(tp).has_value());
  BatchReconstructor batch(enc);
  std::size_t cubes_run = 0;
  BatchOptions opts;
  opts.on_progress = [&cubes_run](const BatchProgress&) { ++cubes_run; };
  const auto r = batch.reconstruct_split({tp, 3}, opts);
  EXPECT_TRUE(r.complete());
  EXPECT_TRUE(r.signals.empty());
  EXPECT_EQ(r.num_vars, 0);
  EXPECT_EQ(cubes_run, 0u);
}

TEST(BatchReconstructor, SplitVerifyModelsRejectsSignalsTheEncodingLetThrough) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 1, 3);
  LyingProperty lie;
  BatchReconstructor batch(enc);
  batch.add_property(lie);
  BatchOptions opts;
  opts.num_threads = 2;
  ASSERT_FALSE(batch.reconstruct_split(entries[0], opts).signals.empty());
  opts.recon.verify_models = true;
  EXPECT_THROW(batch.reconstruct_split(entries[0], opts), std::logic_error);
}

TEST(BatchReconstructor, SplitSecondsToEachCountFromTheSplitStart) {
  // At one thread the cubes run back to back, so the merged signals, read
  // cube by cube in run order, were found at non-decreasing times.
  const auto enc = test_encoding(32, 12);
  const auto entries = test_entries(enc, 1, 5);
  BatchReconstructor batch(enc);
  CubeLog log;
  BatchOptions opts;
  opts.num_threads = 1;
  opts.on_progress = log.callback();
  const auto r = batch.reconstruct_split(entries[0], opts);
  ASSERT_TRUE(r.complete());
  ASSERT_EQ(r.seconds_to_each.size(), r.signals.size());
  ASSERT_EQ(log.found, r.signals.size());

  // Cube c's signals sit at [offset[c], offset[c] + models[c]) of the merge.
  std::vector<std::uint64_t> offset(log.models.size() + 1, 0);
  for (std::size_t c = 0; c < log.models.size(); ++c) {
    offset[c + 1] = offset[c] + log.models[c];
  }
  std::vector<double> by_run;
  for (const std::size_t c : log.run_order) {
    for (std::uint64_t i = offset[c]; i < offset[c + 1]; ++i) {
      by_run.push_back(r.seconds_to_each[i]);
    }
  }
  ASSERT_EQ(by_run.size(), r.signals.size());
  EXPECT_TRUE(std::is_sorted(by_run.begin(), by_run.end()));
  EXPECT_LE(by_run.back(), r.seconds_total);
}

TEST(BatchReconstructor, ProgressCallbackReportsEveryEntry) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 4, 3);
  BatchReconstructor batch(enc);

  std::vector<BatchProgress> seen;
  BatchOptions opts;
  opts.num_threads = 2;
  opts.on_progress = [&seen](const BatchProgress& p) { seen.push_back(p); };
  const BatchResult r = batch.reconstruct_all(entries, opts);

  ASSERT_EQ(seen.size(), entries.size());
  std::set<std::size_t> indexes;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].total, entries.size());
    EXPECT_EQ(seen[i].completed, i + 1);  // serialized, monotone
    indexes.insert(seen[i].index);
  }
  EXPECT_EQ(indexes.size(), entries.size());  // every entry reported once
  EXPECT_EQ(seen.back().signals_found, r.signals_total());
}

TEST(BatchReconstructor, InterruptTokenCancelsTheWholeBatch) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 3, 3);
  BatchReconstructor batch(enc);

  std::atomic<bool> stop{true};  // pre-cancelled: nothing may be decoded
  BatchOptions opts;
  opts.num_threads = 2;
  opts.recon.limits.interrupt = &stop;
  const BatchResult r = batch.reconstruct_all(entries, opts);
  for (const auto& rr : r.results) {
    EXPECT_EQ(rr.final_status, sat::Status::Unknown);
    EXPECT_TRUE(rr.signals.empty());
  }
  const auto split = batch.reconstruct_split(entries[0], opts);
  EXPECT_EQ(split.final_status, sat::Status::Unknown);
  EXPECT_TRUE(split.signals.empty());
}

TEST(BatchReconstructor, StatsAggregateAcrossWorkers) {
  const auto enc = test_encoding();
  const auto entries = test_entries(enc, 4, 3);
  BatchReconstructor batch(enc);
  const BatchResult r = batch.reconstruct_all(entries, {});

  sat::SolverStats sum;
  for (const auto& rr : r.results) sum += rr.stats;
  EXPECT_EQ(r.stats.propagations, sum.propagations);
  EXPECT_EQ(r.stats.decisions, sum.decisions);
  EXPECT_GT(r.stats.propagations, 0);
}

TEST(BatchOptions, ValidateRejectsInconsistentKnobs) {
  const auto enc = test_encoding();
  BatchReconstructor batch(enc);
  const auto entries = test_entries(enc, 1, 3);

  BatchOptions gauss_without_native;
  gauss_without_native.recon.native_xor = false;  // use_gauss stays true
  EXPECT_THROW(batch.reconstruct_all(entries, gauss_without_native),
               std::invalid_argument);
  EXPECT_THROW(batch.reconstruct_split(entries[0], gauss_without_native),
               std::invalid_argument);

  BatchOptions zero_solutions;
  zero_solutions.recon.max_solutions = 0;
  EXPECT_THROW(batch.reconstruct_all(entries, zero_solutions),
               std::invalid_argument);

  BatchOptions dead_gate;
  dead_gate.recon.use_gauss = false;
  dead_gate.recon.gauss_max_unassigned = SIZE_MAX;
  EXPECT_THROW(batch.reconstruct_all(entries, dead_gate), std::invalid_argument);

  BatchOptions too_many_cubes;
  too_many_cubes.cube_vars = 17;
  EXPECT_THROW(batch.reconstruct_split(entries[0], too_many_cubes),
               std::invalid_argument);

  // The single-instance API validates the same way.
  Reconstructor rec(enc);
  ReconstructionOptions bad;
  bad.native_xor = false;
  EXPECT_THROW(rec.reconstruct(entries[0], bad), std::invalid_argument);
}

}  // namespace
}  // namespace tp::core
