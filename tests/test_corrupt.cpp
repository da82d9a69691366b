// Fuzz-style robustness tests for the two deserialization boundaries:
// TraceLog::load (textual log format) and rtl::deserialize_entry (fixed
// width wire frames). Deterministic pseudo-random mutations — truncation,
// character substitution, bit flips, resizes — must never crash, never
// produce an out-of-contract value, and fail only with std::runtime_error.
// A well-formed entry of the wrong width (a log of another encoding) must
// be rejected by every decoder with std::invalid_argument.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "f2/bitvec.hpp"
#include "rtlsim/framing.hpp"
#include "timeprint/batch.hpp"
#include "timeprint/design.hpp"
#include "timeprint/incremental.hpp"
#include "timeprint/joint.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/signal.hpp"

using namespace tp;

namespace {

// A small but non-trivial saved log to mutate.
std::string make_saved_log(std::size_t m, std::size_t b, std::size_t entries) {
  const auto enc = core::TimestampEncoding::random_constrained(m, b, 4, 7);
  core::Logger logger(enc);
  core::TraceLog log(m, b);
  f2::Rng rng(11);
  for (std::size_t i = 0; i < entries; ++i) {
    log.append(logger.log(core::Signal::random_with_changes(m, 1 + i % 5, rng)));
  }
  std::ostringstream out;
  log.save(out);
  return out.str();
}

// Load must either succeed with in-contract entries or throw
// std::runtime_error; anything else (other exception types, k > m) fails
// the test.
void expect_load_contract(const std::string& text, std::size_t m) {
  std::istringstream in(text);
  try {
    const core::TraceLog log = core::TraceLog::load(in);
    for (const auto& e : log.entries()) {
      ASSERT_LE(e.k, m);
    }
  } catch (const std::runtime_error&) {
    // Rejected cleanly: fine.
  }
}

}  // namespace

TEST(CorruptTraceLog, RoundTripBaseline) {
  const std::string text = make_saved_log(16, 9, 8);
  std::istringstream in(text);
  const core::TraceLog log = core::TraceLog::load(in);
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.m(), 16u);
  EXPECT_EQ(log.width(), 9u);
}

TEST(CorruptTraceLog, SurvivesTruncationAtEveryPosition) {
  const std::string text = make_saved_log(16, 9, 6);
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    expect_load_contract(text.substr(0, cut), 16);
  }
}

TEST(CorruptTraceLog, SurvivesSingleCharacterSubstitutions) {
  const std::string text = make_saved_log(16, 9, 6);
  const char replacements[] = {'0', '1', '9', 'x', '-', ' ', '\n', '=', '\t'};
  f2::Rng rng(23);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    std::string mutated = text;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] = replacements[rng.below(sizeof(replacements))];
    expect_load_contract(mutated, 16);
  }
}

TEST(CorruptTraceLog, SurvivesRandomInsertionsAndDeletions) {
  const std::string text = make_saved_log(16, 9, 6);
  f2::Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    std::string mutated = text;
    const std::size_t pos = rng.below(mutated.size());
    if (trial % 2 == 0) {
      mutated.insert(pos, 1, "01 \n9"[rng.below(5)]);
    } else {
      mutated.erase(pos, 1);
    }
    expect_load_contract(mutated, 16);
  }
}

TEST(CorruptFraming, RoundTripBaseline) {
  const std::size_t m = 16, b = 9;
  const auto enc = core::TimestampEncoding::random_constrained(m, b, 4, 7);
  core::Logger logger(enc);
  f2::Rng rng(3);
  const core::LogEntry entry =
      logger.log(core::Signal::random_with_changes(m, 3, rng));
  const auto bits = rtl::serialize_entry(entry, m);
  EXPECT_EQ(bits.size(), rtl::entry_payload_bits(m, b));
  EXPECT_EQ(rtl::deserialize_entry(bits, m, b), entry);
}

TEST(CorruptFraming, BitFlipsNeverEscapeTheContract) {
  const std::size_t m = 16, b = 9;
  const auto enc = core::TimestampEncoding::random_constrained(m, b, 4, 7);
  core::Logger logger(enc);
  f2::Rng rng(5);
  const core::LogEntry entry =
      logger.log(core::Signal::random_with_changes(m, 4, rng));
  const auto bits = rtl::serialize_entry(entry, m);
  // Single flips at every position, plus random multi-flips.
  for (int trial = 0; trial < static_cast<int>(bits.size()) + 200; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    auto mutated = bits;
    if (trial < static_cast<int>(bits.size())) {
      mutated[trial] = !mutated[trial];
    } else {
      const std::size_t flips = 1 + rng.below(6);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t pos = rng.below(mutated.size());
        mutated[pos] = !mutated[pos];
      }
    }
    try {
      const core::LogEntry decoded = rtl::deserialize_entry(mutated, m, b);
      EXPECT_LE(decoded.k, m);
      EXPECT_EQ(decoded.tp.size(), b);
    } catch (const std::runtime_error&) {
      // k decoded above m: rejected cleanly.
    }
  }
}

TEST(CorruptFraming, WrongPayloadSizesAreRejected) {
  const std::size_t m = 16, b = 9;
  const auto enc = core::TimestampEncoding::random_constrained(m, b, 4, 7);
  core::Logger logger(enc);
  f2::Rng rng(7);
  const core::LogEntry entry =
      logger.log(core::Signal::random_with_changes(m, 2, rng));
  const auto bits = rtl::serialize_entry(entry, m);
  for (std::size_t size = 0; size < bits.size() + 8; ++size) {
    if (size == bits.size()) continue;
    SCOPED_TRACE("size=" + std::to_string(size));
    std::vector<bool> resized = bits;
    resized.resize(size, false);
    EXPECT_THROW(rtl::deserialize_entry(resized, m, b), std::runtime_error);
  }
}

TEST(CorruptTimeprint, WrongWidthIsRejectedByEveryEngine) {
  // TraceLog::load checks a file only against its own header, so a log of
  // another encoding reaches the decoders intact. Each must name both
  // widths instead of reading past the encoding's rows (the batch
  // prepass's bit-sliced sweep) or zero-padding the missing bits.
  const std::size_t m = 16, b = 9;
  const auto enc = core::TimestampEncoding::random_constrained(m, b, 4, 7);
  core::BatchReconstructor batch(enc);
  const core::Reconstructor& rec = batch.reconstructor();
  core::TemplateReconstructor tmpl(rec, {});
  const core::JointReconstructor joint(enc);
  const core::MinChangesBefore hypothesis(m, 1);
  f2::Rng rng(13);
  const core::LogEntry good =
      core::Logger(enc).log(core::Signal::random_with_changes(m, 2, rng));

  for (const std::size_t width : {b - 1, b + 1}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const core::LogEntry bad{f2::BitVec::random(width, rng), 2};
    const auto expect_rejected = [&](const std::function<void()>& decode) {
      try {
        decode();
        ADD_FAILURE() << "a " << width << "-bit timeprint was accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("has " + std::to_string(width) + " bits"), std::string::npos)
            << what;
        EXPECT_NE(what.find("b = " + std::to_string(b)), std::string::npos) << what;
      }
    };
    core::ReconstructionOptions raw;
    raw.presolve = false;
    expect_rejected([&] { rec.reconstruct(bad); });
    expect_rejected([&] { rec.reconstruct(bad, raw); });
    expect_rejected([&] { rec.check_hypothesis(bad, hypothesis); });
    expect_rejected([&] { tmpl.reconstruct(bad); });
    expect_rejected([&] { joint.reconstruct({good, bad}); });
    core::BatchOptions opts;
    opts.num_threads = 2;
    expect_rejected([&] { batch.reconstruct_split(bad, opts); });
    for (const bool incremental : {false, true}) {
      opts.recon.incremental = incremental;
      expect_rejected([&] { batch.reconstruct_all({good, bad}, opts); });
    }
  }
}
