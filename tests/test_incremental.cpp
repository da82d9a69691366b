// Tests for the incremental (template) reconstruction engine: differential
// equivalence against the fresh-solver path and the brute-force reference
// over random encodings and random (TP, k) streams, across encoding knobs
// and properties, plus the template lifecycle edges (k = 0, k > k_max
// rebuild, k > m) and the batch engine's incremental mode. The warm
// template master section at the bottom drives the budgeted inprocessing
// schedule, the portfolio backend and the bounded per-worker template
// cache (LRU eviction) through the same differential gates, including a
// 10k-entry soak.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "f2/bitvec.hpp"
#include "obs/metrics.hpp"
#include "timeprint/batch.hpp"
#include "timeprint/incremental.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/reconstruct.hpp"

namespace tp::core {
namespace {

std::set<std::string> signal_set(const std::vector<Signal>& signals) {
  std::set<std::string> out;
  for (const Signal& s : signals) out.insert(s.to_string());
  return out;
}

// A stream mixing genuinely-logged entries (SAT by construction) with
// random timeprints (frequently UNSAT), so both outcomes are exercised.
std::vector<LogEntry> random_stream(const TimestampEncoding& enc,
                                    std::size_t n, f2::Rng& rng) {
  Logger logger(enc);
  std::vector<LogEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = rng.below(5);
    if (rng.flip()) {
      entries.push_back(logger.log(Signal::random_with_changes(enc.m(), k, rng)));
    } else {
      entries.push_back({f2::BitVec::random(enc.width(), rng), k});
    }
  }
  return entries;
}

TEST(Incremental, MatchesFreshAndBruteForceOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    f2::Rng rng(seed * 101);
    const std::size_t m = 10 + rng.below(8);
    const TimestampEncoding enc =
        TimestampEncoding::random_constrained_auto(m, 3, seed);
    Reconstructor fresh(enc);
    ReconstructionOptions opts;
    TemplateReconstructor tmpl(enc, {}, opts);

    for (const LogEntry& entry : random_stream(enc, 8, rng)) {
      const ReconstructionResult t = tmpl.reconstruct(entry);
      const ReconstructionResult f = fresh.reconstruct(entry, opts);
      ASSERT_TRUE(t.complete()) << "seed " << seed;
      ASSERT_TRUE(f.complete()) << "seed " << seed;
      EXPECT_EQ(signal_set(t.signals), signal_set(f.signals)) << "seed " << seed;
      EXPECT_EQ(signal_set(t.signals),
                signal_set(Reconstructor::brute_force(enc, entry)))
          << "seed " << seed;
    }
    EXPECT_EQ(tmpl.stats().entries, 8);
    EXPECT_EQ(tmpl.stats().builds, 1);  // k < 5 ≤ m: no rebuild ever needed
  }
}

TEST(Incremental, MatchesFreshAcrossEncodingKnobs) {
  // The template path always uses the totalizer internally and native XOR
  // per the knob; the fresh path varies both. Signal sets must agree in
  // every combination (use_gauss requires native_xor, hence 3 XOR configs).
  struct Knobs {
    bool native_xor;
    bool use_gauss;
  };
  const Knobs xor_knobs[] = {{true, true}, {true, false}, {false, false}};
  const sat::CardEncoding cards[] = {sat::CardEncoding::SequentialCounter,
                                     sat::CardEncoding::Totalizer};

  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(12, 3, 7);
  f2::Rng rng(77);
  const std::vector<LogEntry> entries = random_stream(enc, 5, rng);

  for (const Knobs& kn : xor_knobs) {
    for (const sat::CardEncoding card : cards) {
      ReconstructionOptions opts;
      opts.native_xor = kn.native_xor;
      opts.use_gauss = kn.use_gauss;
      opts.card_encoding = card;
      Reconstructor fresh(enc);
      TemplateReconstructor tmpl(enc, {}, opts);
      for (const LogEntry& entry : entries) {
        const ReconstructionResult t = tmpl.reconstruct(entry);
        const ReconstructionResult f = fresh.reconstruct(entry, opts);
        ASSERT_TRUE(t.complete());
        ASSERT_TRUE(f.complete());
        EXPECT_EQ(signal_set(t.signals), signal_set(f.signals))
            << "native_xor=" << kn.native_xor << " gauss=" << kn.use_gauss;
      }
    }
  }
}

TEST(Incremental, PropertiesPruneIdentically) {
  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(14, 3, 11);
  const ExistsConsecutivePair p2;
  const MinChangesBefore dk(10, 2);
  const std::vector<const Property*> props = {&p2, &dk};

  Reconstructor fresh(enc);
  fresh.add_property(p2);
  fresh.add_property(dk);
  ReconstructionOptions opts;
  TemplateReconstructor tmpl(fresh, opts);

  f2::Rng rng(5);
  for (const LogEntry& entry : random_stream(enc, 6, rng)) {
    const ReconstructionResult t = tmpl.reconstruct(entry);
    const ReconstructionResult f = fresh.reconstruct(entry, opts);
    ASSERT_TRUE(t.complete());
    ASSERT_TRUE(f.complete());
    EXPECT_EQ(signal_set(t.signals), signal_set(f.signals));
    EXPECT_EQ(signal_set(t.signals),
              signal_set(Reconstructor::brute_force(enc, entry, props)));
  }
}

TEST(Incremental, KZeroDecodesTheEmptySignal) {
  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(10, 2, 3);
  TemplateReconstructor tmpl(enc, {}, {});

  // k = 0 with the zero timeprint: exactly the all-quiet signal.
  const ReconstructionResult quiet =
      tmpl.reconstruct({f2::BitVec(enc.width()), 0});
  ASSERT_TRUE(quiet.complete());
  ASSERT_EQ(quiet.signals.size(), 1u);
  EXPECT_EQ(quiet.signals[0].num_changes(), 0u);

  // k = 0 with a nonzero timeprint: contradiction, empty preimage.
  f2::BitVec tp(enc.width());
  tp.flip(0);
  const ReconstructionResult none = tmpl.reconstruct({tp, 0});
  ASSERT_TRUE(none.complete());
  EXPECT_TRUE(none.signals.empty());
}

TEST(Incremental, RebuildsOnceWhenKExceedsKmax) {
  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(10, 2, 3);
  Reconstructor fresh(enc);
  ReconstructionOptions opts;
  TemplateReconstructor tmpl(enc, {}, opts, /*k_max=*/2);
  EXPECT_EQ(tmpl.k_max(), 2u);
  Logger logger(enc);
  f2::Rng rng(9);

  const LogEntry small = logger.log(Signal::random_with_changes(enc.m(), 2, rng));
  const LogEntry big = logger.log(Signal::random_with_changes(enc.m(), 5, rng));

  EXPECT_EQ(signal_set(tmpl.reconstruct(small).signals),
            signal_set(fresh.reconstruct(small, opts).signals));
  EXPECT_EQ(tmpl.stats().builds, 1);

  // k = 5 > k_max = 2: one rebuild at the safe maximum, then served.
  EXPECT_EQ(signal_set(tmpl.reconstruct(big).signals),
            signal_set(fresh.reconstruct(big, opts).signals));
  EXPECT_EQ(tmpl.stats().builds, 2);
  EXPECT_EQ(tmpl.k_max(), enc.m());

  // Both k regimes keep working against the rebuilt template.
  EXPECT_EQ(signal_set(tmpl.reconstruct(small).signals),
            signal_set(fresh.reconstruct(small, opts).signals));
  EXPECT_EQ(tmpl.stats().builds, 2);
}

TEST(Incremental, KAboveMIsTriviallyUnsatWithoutRebuild) {
  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(8, 2, 13);
  TemplateReconstructor tmpl(enc, {}, {}, /*k_max=*/3);
  const ReconstructionResult r =
      tmpl.reconstruct({f2::BitVec(enc.width()), enc.m() + 3});
  ASSERT_TRUE(r.complete());
  EXPECT_TRUE(r.signals.empty());
  EXPECT_EQ(tmpl.stats().builds, 1);  // no rebuild for an impossible k
}

TEST(Incremental, CloneCarriesTheTemplateButCountsItsOwnStats) {
  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(12, 3, 21);
  Reconstructor fresh(enc);
  ReconstructionOptions opts;
  TemplateReconstructor tmpl(enc, {}, opts);
  f2::Rng rng(3);
  const std::vector<LogEntry> entries = random_stream(enc, 4, rng);

  for (const LogEntry& e : entries) tmpl.reconstruct(e);  // warm the original
  const std::unique_ptr<TemplateReconstructor> copy = tmpl.clone();
  EXPECT_EQ(copy->stats().entries, 0);
  EXPECT_EQ(copy->stats().builds, 0);  // inherited the base, never re-encoded

  for (const LogEntry& e : entries) {
    EXPECT_EQ(signal_set(copy->reconstruct(e).signals),
              signal_set(fresh.reconstruct(e, opts).signals));
  }
  EXPECT_EQ(copy->stats().entries, 4);
}

TEST(Incremental, BatchIncrementalMatchesFreshBatch) {
  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(16, 3, 31);
  const ExistsConsecutivePair p2;
  BatchReconstructor batch(enc);
  batch.add_property(p2);

  f2::Rng rng(17);
  std::vector<LogEntry> entries = random_stream(enc, 24, rng);
  entries.push_back({f2::BitVec(enc.width()), 0});          // trivial entries
  entries.push_back({f2::BitVec(enc.width()), enc.m() + 1});  // in-stream too

  BatchOptions fresh_opts;
  fresh_opts.num_threads = 4;
  BatchOptions incr_opts = fresh_opts;
  incr_opts.recon.incremental = true;

  const BatchResult fresh = batch.reconstruct_all(entries, fresh_opts);
  const BatchResult incr = batch.reconstruct_all(entries, incr_opts);

  ASSERT_EQ(fresh.results.size(), entries.size());
  ASSERT_EQ(incr.results.size(), entries.size());
  EXPECT_TRUE(fresh.complete());
  EXPECT_TRUE(incr.complete());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(signal_set(incr.results[i].signals),
              signal_set(fresh.results[i].signals))
        << "entry " << i;
    EXPECT_EQ(incr.results[i].final_status, fresh.results[i].final_status)
        << "entry " << i;
  }
}

TEST(Incremental, PresolveParityAcrossConfigs) {
  // The substituted (presolved) encoding must reconstruct exactly the same
  // signal sets as the classic one, on both engines, across the XOR /
  // Gauss / cardinality configurations. This is the end-to-end fingerprint
  // parity gate for the pre-CNF pivot elimination.
  struct Knobs {
    bool native_xor;
    bool use_gauss;
    sat::CardEncoding card;
  };
  const Knobs configs[] = {
      {true, true, sat::CardEncoding::SequentialCounter},
      {true, false, sat::CardEncoding::Totalizer},
      {false, false, sat::CardEncoding::SequentialCounter},
  };
  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(13, 3, 51);
  Reconstructor fresh(enc);
  f2::Rng rng(53);
  const std::vector<LogEntry> entries = random_stream(enc, 6, rng);

  for (const Knobs& kn : configs) {
    ReconstructionOptions on;
    on.native_xor = kn.native_xor;
    on.use_gauss = kn.use_gauss;
    on.card_encoding = kn.card;
    on.presolve = true;
    on.verify_models = true;
    ReconstructionOptions off = on;
    off.presolve = false;
    TemplateReconstructor tmpl_on(enc, {}, on);
    TemplateReconstructor tmpl_off(enc, {}, off);
    for (const LogEntry& entry : entries) {
      const auto want = signal_set(fresh.reconstruct(entry, off).signals);
      EXPECT_EQ(signal_set(fresh.reconstruct(entry, on).signals), want);
      EXPECT_EQ(signal_set(tmpl_on.reconstruct(entry).signals), want);
      EXPECT_EQ(signal_set(tmpl_off.reconstruct(entry).signals), want);
    }
  }
}

TEST(Incremental, PresolveShrinksTheEncodedProblem) {
  // Redundant timeprint bits (width > rank) vanish in the substituted
  // base: classic encodes one XOR row + selector per width bit, presolved
  // one per RREF row. Same fingerprints, strictly fewer variables.
  f2::Rng rng(67);
  std::vector<f2::BitVec> ts;
  for (int i = 0; i < 10; ++i) ts.push_back(f2::BitVec::random(24, rng));
  // Two dependent timestamps give nullity >= 2, keeping the comparison on
  // the actual solver path (not the enumeration fast path).
  ts.push_back(ts[0] ^ ts[1]);
  ts.push_back(ts[2] ^ ts[3]);
  const TimestampEncoding enc = TimestampEncoding::from_vectors(ts, 1);
  ASSERT_GT(enc.width(), enc.m());  // rank <= m = 12 < 24 = b

  ReconstructionOptions on;       // presolve defaults to true
  on.presolve_enum_limit = 0;     // nullity 2 > 0: both configs must solve
  ReconstructionOptions off = on;
  off.presolve = false;
  TemplateReconstructor tmpl_on(enc, {}, on);
  TemplateReconstructor tmpl_off(enc, {}, off);
  Logger logger(enc);
  const LogEntry entry = logger.log(Signal::random_with_changes(enc.m(), 3, rng));

  const ReconstructionResult r_on = tmpl_on.reconstruct(entry);
  const ReconstructionResult r_off = tmpl_off.reconstruct(entry);
  ASSERT_TRUE(r_on.complete());
  ASSERT_TRUE(r_off.complete());
  EXPECT_EQ(signal_set(r_on.signals), signal_set(r_off.signals));
  EXPECT_LT(r_on.num_vars, r_off.num_vars);
  EXPECT_LT(r_on.num_xors, r_off.num_xors);
}

TEST(Incremental, PresolveDecodesSmallNullityWithoutSolving) {
  // One-hot timestamps: rank m, nullity 0 — every entry is fully
  // determined by the linear system alone and must bypass the solver (the
  // solver-effort delta stays zero), presolve_enum_limit >= 0 suffices.
  const TimestampEncoding enc = TimestampEncoding::one_hot(9);
  Reconstructor fresh(enc);
  ReconstructionOptions opts;
  TemplateReconstructor tmpl(enc, {}, opts);
  Logger logger(enc);
  f2::Rng rng(71);
  for (int i = 0; i < 5; ++i) {
    const LogEntry entry =
        logger.log(Signal::random_with_changes(enc.m(), rng.below(4), rng));
    const ReconstructionResult t = tmpl.reconstruct(entry);
    ASSERT_TRUE(t.complete());
    EXPECT_EQ(t.stats.decisions, 0);
    EXPECT_EQ(t.stats.propagations, 0);
    EXPECT_EQ(signal_set(t.signals),
              signal_set(fresh.reconstruct(entry, opts).signals));
    EXPECT_EQ(t.signals.size(), 1u);  // nullity 0: unique solution
  }
}

TEST(Incremental, LearntClauseCapitalAccumulates) {
  // Not a semantic requirement, but the whole point of the engine: after a
  // non-trivial stream the retained-learnts counter must have moved (the
  // fresh path would have thrown every one of those clauses away).
  const TimestampEncoding enc = TimestampEncoding::random_constrained_auto(18, 3, 41);
  TemplateReconstructor tmpl(enc, {}, {});
  Logger logger(enc);
  f2::Rng rng(29);
  for (int i = 0; i < 10; ++i) {
    tmpl.reconstruct(logger.log(Signal::random_with_changes(enc.m(), 4, rng)));
  }
  EXPECT_EQ(tmpl.stats().entries, 10);
  EXPECT_GE(tmpl.stats().learnt_retained, 0);
}

// ---------------------------------------------------------------------------
// Warm template masters: inprocessing, the backend and cache eviction must
// be invisible in the reconstructed signal sets.
// ---------------------------------------------------------------------------

TEST(Incremental, TemplateParityAcrossConfigsAndEdges) {
  // Three-way differential — template vs fresh vs brute force — across
  // the XOR/cardinality configurations, over a stream that walks the
  // lifecycle edges: k = 0, the k > k_max rebuild, frequently-UNSAT random
  // timeprints, and AllSAT guard retirement *after* the rebuild.
  // inprocess_interval = 2 forces budgeted inprocessing rounds
  // mid-stream.
  struct Knobs {
    bool native_xor;
    bool use_gauss;
    sat::CardEncoding card;
  };
  const Knobs knob_sets[] = {
      {true, true, sat::CardEncoding::SequentialCounter},
      {true, false, sat::CardEncoding::Totalizer},
      {false, false, sat::CardEncoding::SequentialCounter},
  };

  const TimestampEncoding enc =
      TimestampEncoding::random_constrained_auto(12, 3, 19);
  Logger logger(enc);
  f2::Rng rng(191);
  std::vector<LogEntry> entries;
  entries.push_back({f2::BitVec(enc.width()), 0});  // k = 0: quiet signal
  entries.push_back(logger.log(Signal::random_with_changes(enc.m(), 2, rng)));
  // k = 4 > k_max = 2: forces the template rebuild mid-stream.
  entries.push_back(logger.log(Signal::random_with_changes(enc.m(), 4, rng)));
  entries.push_back({f2::BitVec::random(enc.width(), rng), 2});
  entries.push_back(logger.log(Signal::random_with_changes(enc.m(), 1, rng)));

  for (const Knobs& kn : knob_sets) {
    ReconstructionOptions opts;
    opts.native_xor = kn.native_xor;
    opts.use_gauss = kn.use_gauss;
    opts.card_encoding = kn.card;
    opts.inprocess_interval = 2;

    Reconstructor fresh(enc);
    TemplateReconstructor tmpl(enc, {}, opts, /*k_max=*/2);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const ReconstructionResult t = tmpl.reconstruct(entries[i]);
      const ReconstructionResult f = fresh.reconstruct(entries[i], opts);
      ASSERT_TRUE(t.complete()) << "entry " << i;
      ASSERT_TRUE(f.complete()) << "entry " << i;
      const std::set<std::string> expect = signal_set(f.signals);
      EXPECT_EQ(signal_set(t.signals), expect)
          << "native_xor=" << kn.native_xor << " entry " << i;
      EXPECT_EQ(expect,
                signal_set(Reconstructor::brute_force(enc, entries[i])))
          << "entry " << i;
    }
    EXPECT_EQ(tmpl.stats().builds, 2);  // initial + the k = 4 rebuild
    EXPECT_GT(tmpl.stats().inprocess_rounds, 0);
  }
}

TEST(Incremental, TemplateMatchesFreshOnPortfolioBackend) {
  const TimestampEncoding enc =
      TimestampEncoding::random_constrained_auto(12, 3, 29);
  ReconstructionOptions opts;
  opts.solver_backend = sat::SolverBackend::Portfolio;
  opts.portfolio_members = 2;
  Reconstructor fresh(enc);
  TemplateReconstructor tmpl(enc, {}, opts);
  f2::Rng rng(97);
  for (const LogEntry& entry : random_stream(enc, 5, rng)) {
    const ReconstructionResult t = tmpl.reconstruct(entry);
    const ReconstructionResult f = fresh.reconstruct(entry, opts);
    ASSERT_TRUE(t.complete());
    ASSERT_TRUE(f.complete());
    EXPECT_EQ(signal_set(t.signals), signal_set(f.signals));
  }
}

TEST(Incremental, BatchEvictionKeepsParityWithFreshBatch) {
  // A one-byte cache bound evicts every template the moment a worker
  // returns it, so each entry is served by a cold re-clone of the master
  // — the adversarial schedule for guard retirement (every guard retires
  // into a template that is then destroyed). Results must still match the
  // fresh batch exactly.
  const TimestampEncoding enc =
      TimestampEncoding::random_constrained_auto(14, 3, 37);
  BatchReconstructor batch(enc);
  f2::Rng rng(53);
  const std::vector<LogEntry> entries = random_stream(enc, 20, rng);

  BatchOptions fresh_opts;
  fresh_opts.num_threads = 4;
  BatchOptions evict_opts = fresh_opts;
  evict_opts.recon.incremental = true;
  evict_opts.template_cache_bytes = 1;

  const auto& reg = obs::MetricsRegistry::global();
  const std::int64_t evictions_before =
      reg.counter_value("incremental.template_evictions");
  const BatchResult fresh = batch.reconstruct_all(entries, fresh_opts);
  const BatchResult evicting = batch.reconstruct_all(entries, evict_opts);
  EXPECT_TRUE(fresh.complete());
  EXPECT_TRUE(evicting.complete());
  ASSERT_EQ(evicting.results.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(signal_set(evicting.results[i].signals),
              signal_set(fresh.results[i].signals))
        << "entry " << i;
  }
  EXPECT_GT(reg.counter_value("incremental.template_evictions"),
            evictions_before);
  // Nothing idle may outlive the bound.
  EXPECT_LE(reg.gauge_value("incremental.template_cache_bytes"), 1);
}

TEST(Incremental, CacheBoundHoldsOverTenThousandEntrySoak) {
  // Long-stream soak: 10k entries through the incremental batch engine
  // under a cache bound sized to roughly two cold templates. Warm
  // templates outgrow the bound as learnts accumulate, so the LRU must
  // evict continuously while the idle cache never ends above the bound.
  const TimestampEncoding enc =
      TimestampEncoding::random_constrained_auto(10, 2, 43);
  BatchOptions opts;
  opts.num_threads = 4;
  opts.recon.incremental = true;
  const TemplateReconstructor probe(enc, {}, opts.recon);
  opts.template_cache_bytes = 2 * probe.retained_bytes();
  ASSERT_GT(opts.template_cache_bytes, 0u);

  BatchReconstructor batch(enc);
  f2::Rng rng(61);
  const std::vector<LogEntry> entries = random_stream(enc, 10000, rng);

  const auto& reg = obs::MetricsRegistry::global();
  const std::int64_t evictions_before =
      reg.counter_value("incremental.template_evictions");
  const BatchResult r = batch.reconstruct_all(entries, opts);
  EXPECT_TRUE(r.complete());
  ASSERT_EQ(r.results.size(), entries.size());
  EXPECT_GT(reg.counter_value("incremental.template_evictions"),
            evictions_before);
  EXPECT_LE(reg.gauge_value("incremental.template_cache_bytes"),
            static_cast<std::int64_t>(opts.template_cache_bytes));
}

TEST(Incremental, EntryStatsIncludeSolveSeconds) {
  // A template entry's stats are the difference of the solver's lifetime
  // counters around its solve: every field, the solve time included.
  const TimestampEncoding enc = TimestampEncoding::random_constrained(32, 16, 4, 7);
  TemplateReconstructor tmpl(enc, {}, {});
  f2::Rng rng(3);
  const ReconstructionResult r =
      tmpl.reconstruct(Logger(enc).log(Signal::random_with_changes(enc.m(), 3, rng)));
  ASSERT_TRUE(r.complete());
  ASSERT_GT(r.num_vars, 0);  // reached the solver
  EXPECT_GT(r.stats.propagations, 0);
  EXPECT_GT(r.stats.solve_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// The shared per-entry pipeline: every engine reports and counts an entry
// the same way, whichever stage resolved it.
// ---------------------------------------------------------------------------

// m = 12 timestamps of width 24, two of them dependent: rank 10 < b, so a
// random timeprint is almost surely inconsistent, and nullity 2.
TimestampEncoding rank_deficient_encoding() {
  f2::Rng rng(67);
  std::vector<f2::BitVec> ts;
  for (int i = 0; i < 10; ++i) ts.push_back(f2::BitVec::random(24, rng));
  ts.push_back(ts[0] ^ ts[1]);
  ts.push_back(ts[2] ^ ts[3]);
  return TimestampEncoding::from_vectors(ts, 1);
}

TEST(DecodePipeline, PresolveResolvedEntriesReportNoEncodedProblem) {
  const TimestampEncoding enc = rank_deficient_encoding();
  Reconstructor rec(enc);
  TemplateReconstructor tmpl(rec, {});
  BatchReconstructor batch(enc);
  f2::Rng rng(5);
  const LogEntry inconsistent{f2::BitVec::random(enc.width(), rng), 2};
  ASSERT_FALSE(rec.presolve().analyze(inconsistent.tp).consistent);
  // Nullity 2 is within the default presolve_enum_limit: enumerated.
  const LogEntry enumerated =
      Logger(enc).log(Signal::random_with_changes(enc.m(), 3, rng));

  for (const LogEntry& entry : {inconsistent, enumerated}) {
    std::vector<ReconstructionResult> results = {rec.reconstruct(entry),
                                                 tmpl.reconstruct(entry)};
    for (const bool incremental : {false, true}) {
      BatchOptions opts;
      opts.recon.incremental = incremental;
      results.push_back(batch.reconstruct_all({entry}, opts).results[0]);
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].complete()) << "engine " << i;
      EXPECT_EQ(results[i].num_vars, 0) << "engine " << i;
      EXPECT_EQ(results[i].num_clauses, 0u) << "engine " << i;
      EXPECT_EQ(results[i].num_xors, 0u) << "engine " << i;
    }
  }
}

TEST(DecodePipeline, ReconstructAllCountsEveryEntryOnce) {
  const TimestampEncoding enc = rank_deficient_encoding();
  BatchReconstructor batch(enc);
  Logger logger(enc);
  f2::Rng rng(7);
  std::vector<LogEntry> entries;
  for (int i = 0; i < 6; ++i) {
    entries.push_back(logger.log(Signal::random_with_changes(enc.m(), 2, rng)));
    entries.push_back({f2::BitVec::random(enc.width(), rng), 2});
  }
  BatchOptions opts;
  opts.num_threads = 2;
  opts.recon.presolve_enum_limit = 0;  // consistent entries go to the solver

  const auto& reg = obs::MetricsRegistry::global();
  for (const bool incremental : {false, true}) {
    opts.recon.incremental = incremental;
    const std::int64_t before = reg.counter_value("sr.reconstructions");
    const BatchResult r = batch.reconstruct_all(entries, opts);
    EXPECT_TRUE(r.complete());
    std::size_t solved = 0;
    for (const ReconstructionResult& e : r.results) solved += e.num_vars > 0 ? 1 : 0;
    EXPECT_GT(solved, 0u);               // solver-bound entries ...
    EXPECT_LT(solved, entries.size());   // ... mixed with prepass-resolved ones
    EXPECT_EQ(reg.counter_value("sr.reconstructions") - before,
              static_cast<std::int64_t>(entries.size()))
        << "incremental=" << incremental;
  }
}

}  // namespace
}  // namespace tp::core
