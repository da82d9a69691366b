// Integration tests for the Signal Reconstruction solver, including the
// paper's complete Figure 4 didactic example.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <set>
#include <sstream>

#include "f2/matrix.hpp"
#include "obs/trace.hpp"
#include "sat/drat.hpp"
#include "timeprint/galois.hpp"
#include "timeprint/reconstruct.hpp"
#include "timeprint/verify.hpp"

namespace tp::core {
namespace {

// The 16 8-bit timestamps of the paper's Figure 4 (MSB-first strings).
TimestampEncoding fig4_encoding() {
  const char* strs[16] = {"00010100", "00111010", "00001111", "01000100",
                          "00000010", "10101110", "01100000", "11110101",
                          "00010111", "11100111", "10100000", "10101000",
                          "10011110", "10001111", "01110000", "01101100"};
  std::vector<f2::BitVec> ts;
  for (const char* s : strs) ts.push_back(f2::BitVec::from_string(s));
  return TimestampEncoding::from_vectors(std::move(ts), 2);
}

std::set<std::string> to_strings(const std::vector<Signal>& signals) {
  std::set<std::string> out;
  for (const Signal& s : signals) out.insert(s.to_string());
  return out;
}

TEST(Figure4, LinearSystemHas256Solutions) {
  // "There are 256 possible change combinations of timestamps that can
  // lead to TP" — solutions of A·x = TP ignoring k.
  auto enc = fig4_encoding();
  f2::Matrix a = enc.to_matrix();
  auto sol = a.solve(f2::BitVec::from_string("00000001"));
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->count(), 256u);
}

TEST(Figure4, ExactlyEightSignalsWithFourChanges) {
  // "Only 8 combinations has 4 ones, k = 4".
  auto enc = fig4_encoding();
  const LogEntry entry{f2::BitVec::from_string("00000001"), 4};

  const auto brute = Reconstructor::brute_force(enc, entry);
  EXPECT_EQ(brute.size(), 8u);

  Reconstructor rec(enc);
  auto result = rec.reconstruct(entry);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.signals.size(), 8u);
  EXPECT_EQ(to_strings(result.signals), to_strings(brute));

  // The actual signal (changes at 1-based cycles 4,5,10,11) is among them.
  const Signal actual = Signal::from_change_cycles(16, {3, 4, 9, 10});
  EXPECT_TRUE(to_strings(result.signals).contains(actual.to_string()));
}

TEST(Figure4, AlternativeCombinationAlsoExplainsTimeprint) {
  // The paper lists TS(1)+TS(5)+TS(9) as another combination summing to
  // TP (with k = 3, so excluded once k is used).
  auto enc = fig4_encoding();
  f2::BitVec sum = enc.timestamp(0) ^ enc.timestamp(4) ^ enc.timestamp(8);
  EXPECT_EQ(sum.to_string(), "00000001");
  const LogEntry entry3{f2::BitVec::from_string("00000001"), 3};
  const auto k3 = Reconstructor::brute_force(enc, entry3);
  const Signal alt = Signal::from_change_cycles(16, {0, 4, 8});
  EXPECT_TRUE(to_strings(k3).contains(alt.to_string()));
}

TEST(Figure4, PairPropertyIsolatesTheActualSignal) {
  // §3.3: with the "changes come as two consecutive ones" property the
  // reconstruction is unique and equals the actual signal.
  auto enc = fig4_encoding();
  const LogEntry entry{f2::BitVec::from_string("00000001"), 4};
  ChangesInConsecutivePairs pairs;
  Reconstructor rec(enc);
  rec.add_property(pairs);
  auto result = rec.reconstruct(entry);
  ASSERT_TRUE(result.complete());
  ASSERT_EQ(result.signals.size(), 1u);
  EXPECT_EQ(result.signals[0], Signal::from_change_cycles(16, {3, 4, 9, 10}));
}

TEST(Figure4, DeadlinePropertyHoldsForAllReconstructions) {
  // §3.3: "all 8 possible reconstructed signals have a 1-bit already
  // before the 8-th position" — the deadline is met no matter which signal
  // actually occurred.
  auto enc = fig4_encoding();
  const LogEntry entry{f2::BitVec::from_string("00000001"), 4};
  Reconstructor rec(enc);
  MinChangesBefore deadline_met(/*deadline=*/8, /*min_changes=*/1);
  auto check = rec.check_hypothesis(entry, deadline_met);
  EXPECT_EQ(check.verdict, CheckVerdict::HoldsForAll);
  EXPECT_FALSE(check.witness.has_value());
}

TEST(Figure4, FalseHypothesisYieldsWitness) {
  auto enc = fig4_encoding();
  const LogEntry entry{f2::BitVec::from_string("00000001"), 4};
  Reconstructor rec(enc);
  // "At least one change in the first two cycles" is not true of every
  // reconstruction; expect a counterexample witness.
  ChangeInWindow early(0, 2);
  auto check = rec.check_hypothesis(entry, early);
  EXPECT_EQ(check.verdict, CheckVerdict::ViolatedBySome);
  ASSERT_TRUE(check.witness.has_value());
  // The witness must be a genuine reconstruction violating the hypothesis.
  Logger logger(enc);
  EXPECT_EQ(logger.log(*check.witness), entry);
  EXPECT_FALSE(early.holds(*check.witness));
}

TEST(Reconstruct, HypothesisWithoutNegationThrows) {
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  ChangesInConsecutivePairs pairs;  // no negation implemented
  EXPECT_THROW(rec.check_hypothesis({f2::BitVec(8), 0}, pairs), std::invalid_argument);
}

TEST(Reconstruct, EmptyPreimageIsUnsat) {
  // k = 1 with a timeprint matching no single timestamp.
  auto enc = fig4_encoding();
  f2::BitVec impossible = f2::BitVec::from_string("11111111");
  bool is_some_timestamp = false;
  for (const auto& ts : enc.timestamps()) is_some_timestamp |= (ts == impossible);
  ASSERT_FALSE(is_some_timestamp);
  Reconstructor rec(enc);
  auto result = rec.reconstruct({impossible, 1});
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(result.signals.empty());
}

TEST(Reconstruct, ChangeCountAboveIntRangeIsNotTruncated) {
  // k = 2^32 + 3 must not be read as k = 3: no 16-cycle signal has that
  // many changes, so the preimage is empty and complete.
  auto enc = fig4_encoding();
  Logger logger(enc);
  LogEntry entry = logger.log(Signal::from_change_cycles(16, {1, 6, 11}));
  Reconstructor rec(enc);
  ASSERT_FALSE(rec.reconstruct(entry).signals.empty());
  entry.k += std::size_t{1} << 32;
  const auto result = rec.reconstruct(entry);
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(result.signals.empty());
}

TEST(Reconstruct, UnboundedMaxChangesKeepsEveryPreimage) {
  // "At most SIZE_MAX changes" holds for every signal, so it prunes none
  // and no reconstruction violates it.
  auto enc = fig4_encoding();
  const Signal actual = Signal::from_change_cycles(16, {1, 6, 11});
  const LogEntry entry = Logger(enc).log(actual);
  Reconstructor plain(enc);
  const auto expected = plain.reconstruct(entry);
  ASSERT_TRUE(expected.complete());

  MaxChangesBefore unbounded(16, SIZE_MAX);
  Reconstructor rec(enc);
  rec.add_property(unbounded);
  const auto result = rec.reconstruct(entry);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(to_strings(result.signals), to_strings(expected.signals));
  EXPECT_TRUE(to_strings(result.signals).contains(actual.to_string()));
  EXPECT_EQ(plain.check_hypothesis(entry, unbounded).verdict, CheckVerdict::HoldsForAll);
}

TEST(Reconstruct, ZeroChangesHasUniqueEmptySolution) {
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  auto result = rec.reconstruct({f2::BitVec(8), 0});
  ASSERT_TRUE(result.complete());
  ASSERT_EQ(result.signals.size(), 1u);
  EXPECT_EQ(result.signals[0], Signal(16));
}

TEST(Reconstruct, MaxSolutionsCapStopsEarly) {
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  ReconstructionOptions opt;
  opt.max_solutions = 3;
  auto result = rec.reconstruct({f2::BitVec::from_string("00000001"), 4}, opt);
  EXPECT_EQ(result.signals.size(), 3u);
  EXPECT_FALSE(result.complete());
}

TEST(Reconstruct, OneHotEncodingIsUnambiguous) {
  // With one-hot timestamps the preimage of any reachable entry is a
  // single signal (paper §4.3's "ideal" case).
  auto enc = TimestampEncoding::one_hot(20);
  Logger logger(enc);
  f2::Rng rng(12);
  Reconstructor rec(enc);
  for (int iter = 0; iter < 5; ++iter) {
    Signal s = Signal::random_with_changes(20, 1 + rng.below(19), rng);
    auto result = rec.reconstruct(logger.log(s));
    ASSERT_TRUE(result.complete());
    ASSERT_EQ(result.signals.size(), 1u);
    EXPECT_EQ(result.signals[0], s);
  }
}

// ---- randomized agreement with brute force across configurations ----

struct ReconCase {
  std::uint64_t seed;
  std::size_t m;
  std::size_t b;
  std::size_t k;
  bool native_xor;
  sat::CardEncoding card;
};

// gtest's default printer dumps a struct's object bytes, padding included,
// so the ctest names changed from build to build. This prints the same
// "40-byte object <..>" dump over a copy whose padding is zero, which keeps
// every name the suite has had while making it the same in every build.
void PrintTo(const ReconCase& c, std::ostream* os) {
  std::array<unsigned char, sizeof(ReconCase)> bytes{};
  const auto put = [&bytes](std::size_t offset, const auto& field) {
    std::memcpy(bytes.data() + offset, &field, sizeof field);
  };
  put(offsetof(ReconCase, seed), c.seed);
  put(offsetof(ReconCase, m), c.m);
  put(offsetof(ReconCase, b), c.b);
  put(offsetof(ReconCase, k), c.k);
  put(offsetof(ReconCase, native_xor), c.native_xor);
  put(offsetof(ReconCase, card), c.card);
  static constexpr char kHex[] = "0123456789ABCDEF";
  *os << bytes.size() << "-byte object <";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    *os << kHex[bytes[i] >> 4] << kHex[bytes[i] & 15];
  }
  *os << '>';
}

class ReconstructAgreementTest : public ::testing::TestWithParam<ReconCase> {};

TEST_P(ReconstructAgreementTest, SatMatchesBruteForce) {
  const auto& p = GetParam();
  auto enc = TimestampEncoding::random_constrained(p.m, p.b, 4, p.seed);
  Logger logger(enc);
  f2::Rng rng(p.seed * 7 + 1);
  const Signal actual = Signal::random_with_changes(p.m, p.k, rng);
  const LogEntry entry = logger.log(actual);

  const auto brute = Reconstructor::brute_force(enc, entry);

  Reconstructor rec(enc);
  ReconstructionOptions opt;
  opt.native_xor = p.native_xor;
  opt.use_gauss = p.native_xor;  // the Gaussian engine needs native XOR rows
  opt.card_encoding = p.card;
  auto result = rec.reconstruct(entry, opt);
  ASSERT_TRUE(result.complete());

  EXPECT_EQ(to_strings(result.signals), to_strings(brute));
  EXPECT_TRUE(to_strings(result.signals).contains(actual.to_string()));
  // Every reconstruction abstracts back to the same log entry.
  for (const Signal& s : result.signals) {
    EXPECT_EQ(logger.log(s), entry);
  }
  // The wide cases are there to run Gauss rows of two and three words.
  if (p.native_xor && p.m > 64) EXPECT_GT(result.stats.gauss_runs, 0);
}

std::vector<ReconCase> recon_cases() {
  std::vector<ReconCase> out;
  std::uint64_t seed = 1;
  for (bool native : {true, false}) {
    for (auto card : {sat::CardEncoding::SequentialCounter, sat::CardEncoding::Totalizer}) {
      out.push_back({seed++, 16, 9, 3, native, card});
      out.push_back({seed++, 20, 10, 4, native, card});
      out.push_back({seed++, 24, 11, 5, native, card});
    }
  }
  // Native XOR + Gauss over more columns than one or two 64-bit words hold.
  // At m = 130 every k = 3 completeness proof takes the CDCL search 10k+
  // conflicts; the wide b = 28 keeps that near the fewest.
  out.push_back({seed++, 70, 14, 3, true, sat::CardEncoding::SequentialCounter});
  out.push_back({seed++, 130, 28, 3, true, sat::CardEncoding::Totalizer});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Configs, ReconstructAgreementTest,
                         ::testing::ValuesIn(recon_cases()));

TEST(Reconstruct, PropertyPruningMatchesFilteredBruteForce) {
  auto enc = TimestampEncoding::random_constrained(18, 9, 4, 42);
  Logger logger(enc);
  // Actual signal: two pairs of consecutive changes.
  const Signal actual = Signal::from_change_cycles(18, {2, 3, 11, 12});
  const LogEntry entry = logger.log(actual);

  ChangesInConsecutivePairs pairs;
  const std::vector<const Property*> props = {&pairs};
  const auto brute = Reconstructor::brute_force(enc, entry, props);

  Reconstructor rec(enc);
  rec.add_property(pairs);
  auto result = rec.reconstruct(entry);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(to_strings(result.signals), to_strings(brute));
  EXPECT_TRUE(to_strings(result.signals).contains(actual.to_string()));
}

TEST(Reconstruct, KnownPropertiesNeverDropTheActualSignal) {
  // Soundness of pruning: encoding properties the actual signal satisfies
  // must keep it in the solution set.
  auto enc = TimestampEncoding::random_constrained(24, 12, 4, 8);
  Logger logger(enc);
  f2::Rng rng(9);
  for (int iter = 0; iter < 5; ++iter) {
    const Signal actual = Signal::random_with_changes(24, 4, rng);
    const LogEntry entry = logger.log(actual);
    const auto cycles = actual.change_cycles();
    // Use a true-by-construction window property around the first change.
    ChangeInWindow window(cycles.front(), cycles.front() + 1);
    Reconstructor rec(enc);
    rec.add_property(window);
    auto result = rec.reconstruct(entry);
    ASSERT_TRUE(result.complete());
    EXPECT_TRUE(to_strings(result.signals).contains(actual.to_string()));
  }
}

TEST(Reconstruct, StatsArePopulated) {
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  auto result = rec.reconstruct({f2::BitVec::from_string("00000001"), 4});
  EXPECT_EQ(result.num_xors, 8u);     // one per timeprint bit
  EXPECT_GT(result.num_vars, 16);     // cycle vars + cardinality registers
  EXPECT_GT(result.num_clauses, 0u);
  EXPECT_GE(result.seconds_total, 0.0);
  EXPECT_EQ(result.seconds_to_each.size(), result.signals.size());
}

TEST(Reconstruct, TrivialUnsatEncodingShortCircuitsEnumeration) {
  // k > m makes the cardinality constraint contradictory at encode time;
  // reconstruct() must report a complete empty preimage without spinning
  // up the enumeration loop (observable as the missing "allsat.enumerate"
  // span), and must still report the encoded problem size.
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  std::ostringstream trace;
  obs::Tracer tracer(trace);
  ReconstructionOptions opt;
  opt.tracer = &tracer;
  auto result = rec.reconstruct({f2::BitVec::from_string("00000001"), 17}, opt);
  EXPECT_EQ(result.final_status, sat::Status::Unsat);
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(result.signals.empty());
  EXPECT_GT(result.num_vars, 0);
  EXPECT_GE(result.seconds_total, 0.0);
  const std::string lines = trace.str();
  EXPECT_NE(lines.find("sr.trivial_unsat"), std::string::npos);
  EXPECT_EQ(lines.find("allsat.enumerate"), std::string::npos);
}

TEST(Reconstruct, CheckHypothesisShortCircuitsOnTrivialUnsat) {
  // With an encode-time contradiction there is no reconstruction at all,
  // so every hypothesis holds vacuously — without a solve.
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  MinChangesBefore hyp(/*deadline=*/8, /*min_changes=*/1);
  std::ostringstream trace;
  obs::Tracer tracer(trace);
  ReconstructionOptions opt;
  opt.tracer = &tracer;
  auto check = rec.check_hypothesis({f2::BitVec::from_string("00000001"), 17},
                                    hyp, opt);
  EXPECT_EQ(check.verdict, CheckVerdict::HoldsForAll);
  EXPECT_FALSE(check.witness.has_value());
  const std::string lines = trace.str();
  EXPECT_NE(lines.find("sr.trivial_unsat"), std::string::npos);
  EXPECT_EQ(lines.find("solver.solve"), std::string::npos);
}

TEST(Reconstruct, CheckResultReportsProblemSize) {
  // CheckResult carries the same encoded-size fields as
  // ReconstructionResult.
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  MinChangesBefore hyp(/*deadline=*/8, /*min_changes=*/1);
  auto check =
      rec.check_hypothesis({f2::BitVec::from_string("00000001"), 4}, hyp);
  EXPECT_EQ(check.verdict, CheckVerdict::HoldsForAll);
  EXPECT_EQ(check.num_xors, 8u);
  EXPECT_GT(check.num_vars, 16);
  EXPECT_GT(check.num_clauses, 0u);
}

TEST(Reconstruct, CheckHypothesisOnNullityZeroNeedsNoSolver) {
  // One-hot timestamps make A the identity, so the presolve decodes the
  // check's query outright: each verdict comes back with zero solver
  // variables, and the witness is the one reconstruction there is.
  const auto enc = TimestampEncoding::one_hot(16);
  const Signal actual = Signal::from_change_cycles(16, {2, 9});
  const LogEntry entry = Logger(enc).log(actual);
  Reconstructor rec(enc);
  ReconstructionOptions opt;
  opt.verify_models = true;

  MinChangesBefore met(/*deadline=*/10, /*min_changes=*/1);
  const auto holds = rec.check_hypothesis(entry, met, opt);
  EXPECT_EQ(holds.verdict, CheckVerdict::HoldsForAll);
  EXPECT_FALSE(holds.witness.has_value());
  EXPECT_EQ(holds.num_vars, 0);

  MinChangesBefore early(/*deadline=*/2, /*min_changes=*/1);
  const auto violated = rec.check_hypothesis(entry, early, opt);
  EXPECT_EQ(violated.verdict, CheckVerdict::ViolatedBySome);
  ASSERT_TRUE(violated.witness.has_value());
  EXPECT_EQ(*violated.witness, actual);
  EXPECT_FALSE(early.holds(*violated.witness));
  const auto verdict = verify_signals(enc, entry, {*violated.witness});
  EXPECT_TRUE(verdict.ok) << verdict.failure;
  EXPECT_EQ(violated.num_vars, 0);
}

// ---- proof round-trips and solver-independent model verification ----

// Replay a reconstruction's recorded proof with the independent checker
// and require a verified refutation.
void expect_certified_refutation(const sat::MemoryProof& proof) {
  sat::DratChecker checker;
  for (const auto& c : proof.formula()) checker.add_clause(c);
  const auto res = checker.check(proof.ops());
  EXPECT_TRUE(res.valid) << res.error;
  EXPECT_TRUE(res.proved_unsat);
}

ReconstructionOptions proof_options(sat::MemoryProof& proof) {
  ReconstructionOptions opt;
  opt.use_gauss = false;  // DRAT cannot express Gaussian reasoning
  opt.proof = &proof;
  return opt;
}

TEST(ReconstructProof, CardinalityConflictCertified) {
  // k = 1 with a timeprint matching no single timestamp: the refutation
  // needs the interplay of the XOR system and the cardinality counter.
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  sat::MemoryProof proof;
  auto result = rec.reconstruct({f2::BitVec::from_string("11111111"), 1},
                                proof_options(proof));
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(result.signals.empty());
  expect_certified_refutation(proof);
}

TEST(ReconstructProof, PureXorConflictCertified) {
  // Two identical nonzero rows forced to different parities: the timeprint
  // lies outside the encoding's column space, so the XOR system alone is
  // contradictory (the cardinality layer plays no part).
  std::vector<f2::BitVec> ts;
  for (int i = 0; i < 4; ++i) ts.push_back(f2::BitVec::from_string("110"));
  auto enc = TimestampEncoding::from_vectors(std::move(ts), 2);
  Reconstructor rec(enc);
  sat::MemoryProof proof;
  auto result =
      rec.reconstruct({f2::BitVec::from_string("100"), 2}, proof_options(proof));
  EXPECT_EQ(result.final_status, sat::Status::Unsat);
  EXPECT_TRUE(result.signals.empty());
  expect_certified_refutation(proof);
}

TEST(ReconstructProof, TrivialUnsatAtEncodeTimeCertified) {
  // k > m contradicts the cardinality constraint while it is being
  // encoded; the proof must close (empty clause) before any search.
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  sat::MemoryProof proof;
  auto result = rec.reconstruct({f2::BitVec::from_string("00000001"), 17},
                                proof_options(proof));
  EXPECT_EQ(result.final_status, sat::Status::Unsat);
  expect_certified_refutation(proof);
}

TEST(ReconstructProof, CompletedEnumerationCertified) {
  // A SAT entry enumerated to completion: the blocking clauses are logged
  // as axioms, so the final "no further models" UNSAT certifies that the
  // enumerated preimage is exhaustive.
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  sat::MemoryProof proof;
  ReconstructionOptions opt = proof_options(proof);
  opt.verify_models = true;
  auto result =
      rec.reconstruct({f2::BitVec::from_string("00000001"), 4}, opt);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.signals.size(), 8u);
  expect_certified_refutation(proof);
}

TEST(ReconstructProof, ProofRequiresNonGaussEngine) {
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  sat::MemoryProof proof;
  ReconstructionOptions opt;
  opt.use_gauss = true;
  opt.proof = &proof;
  EXPECT_THROW(rec.reconstruct({f2::BitVec::from_string("00000001"), 4}, opt),
               std::invalid_argument);
}

TEST(ReconstructVerify, AcceptsGenuinePreimage) {
  auto enc = fig4_encoding();
  const LogEntry entry{f2::BitVec::from_string("00000001"), 4};
  Reconstructor rec(enc);
  auto result = rec.reconstruct(entry);
  ASSERT_TRUE(result.complete());
  const auto verdict = verify_signals(enc, entry, result.signals);
  EXPECT_TRUE(verdict.ok) << verdict.failure;
  EXPECT_EQ(verdict.checked, result.signals.size());
}

TEST(ReconstructVerify, RejectsCorruptedSignals) {
  auto enc = fig4_encoding();
  const LogEntry entry{f2::BitVec::from_string("00000001"), 4};
  Reconstructor rec(enc);
  auto result = rec.reconstruct(entry);
  ASSERT_TRUE(result.complete());
  ASSERT_GE(result.signals.size(), 2u);

  // Flipping one change bit breaks A·x = TP (or |x| = k).
  auto corrupted = result.signals;
  Signal& victim = corrupted[0];
  Signal flipped(enc.m());
  for (std::size_t i = 0; i < enc.m(); ++i) {
    const bool bit = victim.bits().get(i);
    if (bit != (i == 0)) flipped.set_change(i);
  }
  corrupted[0] = flipped;
  const auto bad_bits = verify_signals(enc, entry, corrupted);
  EXPECT_FALSE(bad_bits.ok);
  EXPECT_FALSE(bad_bits.failure.empty());

  // A duplicated signal is rejected even though each copy verifies.
  auto duplicated = result.signals;
  duplicated.push_back(duplicated[0]);
  const auto dupes = verify_signals(enc, entry, duplicated);
  EXPECT_FALSE(dupes.ok);

  EXPECT_THROW(require_verified(enc, entry, duplicated), std::logic_error);
}

TEST(ReconstructVerify, CheckHypothesisWitnessIsVerified) {
  // Same setup as Figure4.FalseHypothesisYieldsWitness, with the
  // solver-independent witness re-validation switched on.
  auto enc = fig4_encoding();
  Reconstructor rec(enc);
  MinChangesBefore hyp(/*deadline=*/2, /*min_changes=*/1);
  ReconstructionOptions opt;
  opt.verify_models = true;
  auto check = rec.check_hypothesis({f2::BitVec::from_string("00000001"), 4},
                                    hyp, opt);
  EXPECT_EQ(check.verdict, CheckVerdict::ViolatedBySome);
  ASSERT_TRUE(check.witness.has_value());
  EXPECT_FALSE(hyp.holds(*check.witness));
}

TEST(Reconstruct, TimeLimitReturnsUnknown) {
  // A large instance with an unreachable time limit must come back Unknown
  // (not hang): m=512, k=8, tiny budget.
  auto enc = TimestampEncoding::random_constrained(256, 20, 4, 5);
  Logger logger(enc);
  f2::Rng rng(2);
  const Signal actual = Signal::random_with_changes(256, 8, rng);
  Reconstructor rec(enc);
  ReconstructionOptions opt;
  opt.limits.max_conflicts = 1;  // absurdly small
  auto result = rec.reconstruct(logger.log(actual), opt);
  // Either it got lucky on propagation alone or it must report Unknown.
  if (!result.complete()) {
    EXPECT_EQ(result.final_status, sat::Status::Unknown);
  }
}

}  // namespace
}  // namespace tp::core
