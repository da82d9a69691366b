// Tests for the trace archive: time indexing, wear-out retention,
// multi-channel storage and serialization.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "timeprint/archive.hpp"

namespace tp::core {
namespace {

LogEntry mk_entry(std::size_t b, std::uint64_t tag, std::size_t k) {
  return {f2::BitVec::from_uint(b, tag & ((1u << b) - 1)), k};
}

TEST(TraceChannel, AppendAndIndex) {
  TraceChannel ch(64, 13);
  for (std::uint64_t i = 0; i < 5; ++i) ch.append(mk_entry(13, i, i));
  EXPECT_EQ(ch.size(), 5u);
  EXPECT_EQ(ch.first_retained(), 0u);
  auto e = ch.at(3);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->index, 3u);
  EXPECT_EQ(e->first_cycle, 3u * 64u);
  EXPECT_EQ(e->entry.k, 3u);
  EXPECT_FALSE(ch.at(5).has_value());  // future
}

TEST(TraceChannel, CoveringCycle) {
  TraceChannel ch(100, 10);
  for (std::uint64_t i = 0; i < 4; ++i) ch.append(mk_entry(10, i, i));
  EXPECT_EQ(ch.covering_cycle(0)->index, 0u);
  EXPECT_EQ(ch.covering_cycle(99)->index, 0u);
  EXPECT_EQ(ch.covering_cycle(100)->index, 1u);
  EXPECT_EQ(ch.covering_cycle(399)->index, 3u);
  EXPECT_FALSE(ch.covering_cycle(400).has_value());
}

TEST(TraceChannel, WindowQuery) {
  TraceChannel ch(50, 8);
  for (std::uint64_t i = 0; i < 10; ++i) ch.append(mk_entry(8, i, i));
  // [120, 260) covers trace-cycles 2..5.
  auto window = ch.in_window(120, 260);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window.front().index, 2u);
  EXPECT_EQ(window.back().index, 5u);
  EXPECT_TRUE(ch.in_window(200, 200).empty());
}

TEST(TraceChannel, WearOutEvictsOldest) {
  TraceChannel ch(64, 13, /*capacity=*/3);
  for (std::uint64_t i = 0; i < 7; ++i) ch.append(mk_entry(13, i, 1));
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch.first_retained(), 4u);
  EXPECT_EQ(ch.total_appended(), 7u);
  EXPECT_FALSE(ch.at(3).has_value());  // worn out
  ASSERT_TRUE(ch.at(4).has_value());
  EXPECT_EQ(ch.at(6)->entry.tp.to_uint(), 6u);
}

TEST(TraceChannel, RetainedBitsConstantPerEntry) {
  TraceChannel ch(1000, 24);
  ch.append(mk_entry(24, 1, 0));
  ch.append(mk_entry(24, 2, 999));
  EXPECT_EQ(ch.retained_bits(), 2u * 34u);
}

TEST(TraceArchive, ChannelsByName) {
  TraceArchive archive;
  archive.channel("can-bus", 1000, 24).append(mk_entry(24, 1, 3));
  archive.channel("ahb-addr", 1024, 24).append(mk_entry(24, 2, 5));
  archive.channel("ahb-addr", 1024, 24).append(mk_entry(24, 3, 6));
  EXPECT_EQ(archive.names(), (std::vector<std::string>{"ahb-addr", "can-bus"}));
  EXPECT_EQ(archive.find("ahb-addr")->size(), 2u);
  EXPECT_EQ(archive.find("nope"), nullptr);
}

TEST(TraceArchive, MismatchedReopenThrows) {
  TraceArchive archive;
  archive.channel("x", 64, 13);
  EXPECT_THROW(archive.channel("x", 128, 13), std::invalid_argument);
  EXPECT_THROW(archive.channel("x", 64, 16), std::invalid_argument);
  EXPECT_NO_THROW(archive.channel("x", 64, 13));
}

TEST(TraceArchive, SaveLoadRoundTrip) {
  TraceArchive archive;
  auto& a = archive.channel("sig-a", 64, 13, 4);
  for (std::uint64_t i = 0; i < 7; ++i) a.append(mk_entry(13, i * 3 + 1, i));
  auto& b = archive.channel("sig-b", 128, 16);
  b.append(mk_entry(16, 77, 2));

  std::ostringstream out;
  archive.save(out);
  std::istringstream in(out.str());
  TraceArchive loaded = TraceArchive::load(in);

  ASSERT_NE(loaded.find("sig-a"), nullptr);
  const TraceChannel& la = *loaded.find("sig-a");
  EXPECT_EQ(la.size(), 4u);  // capacity bound survived
  EXPECT_EQ(la.first_retained(), 3u);
  for (std::uint64_t i = 3; i < 7; ++i) {
    EXPECT_EQ(la.at(i)->entry, a.at(i)->entry) << i;
  }
  ASSERT_NE(loaded.find("sig-b"), nullptr);
  EXPECT_EQ(loaded.find("sig-b")->at(0)->entry.tp.to_uint(), 77u);
}

TEST(TraceArchive, LoadRejectsGarbage) {
  std::istringstream bad("not an archive\n");
  EXPECT_THROW(TraceArchive::load(bad), std::runtime_error);
  std::istringstream truncated(
      "timeprint-archive channels=1\n"
      "channel x m=8 b=4 cap=0 first=0 n=2\n"
      "0101 1\n");
  EXPECT_THROW(TraceArchive::load(truncated), std::runtime_error);
}

TEST(TraceArchive, LoadRejectsCorruptEntries) {
  // Every entry passes the check TraceLog::load applies: b characters of
  // 0/1 and a change count no larger than m.
  const std::string head =
      "timeprint-archive channels=1\n"
      "channel x m=8 b=4 cap=0 first=0 n=1\n";
  std::istringstream bad_bit(head + "1z10 2\n");
  EXPECT_THROW(TraceArchive::load(bad_bit), std::runtime_error);
  std::istringstream bad_k(head + "1010 99\n");
  EXPECT_THROW(TraceArchive::load(bad_k), std::runtime_error);
  std::istringstream bad_width(head + "10101 2\n");
  EXPECT_THROW(TraceArchive::load(bad_width), std::runtime_error);
  std::istringstream edge(head + "1010 8\n");
  EXPECT_NO_THROW(TraceArchive::load(edge));
}

TEST(TraceArchive, EndToEndWithStreamingLogger) {
  // Deployment: stream a signal into the logger, archive every entry;
  // postmortem: retrieve the entry covering a suspicious cycle.
  auto enc = TimestampEncoding::random_constrained(32, 12, 4, 6);
  StreamingLogger logger(enc);
  f2::Rng rng(8);
  TraceArchive archive;
  auto& ch = archive.channel("bus", enc.m(), enc.width(), 100);
  std::size_t logged = 0;
  for (int cycle = 0; cycle < 32 * 20; ++cycle) {
    logger.tick(rng.below(4) == 0);
    while (logger.log().size() > logged) {
      ch.append(logger.log()[logged++]);
    }
  }
  EXPECT_EQ(ch.size(), 20u);
  const std::uint64_t suspicious_cycle = 13 * 32 + 7;
  auto e = ch.covering_cycle(suspicious_cycle);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->entry, logger.log()[13]);
}

}  // namespace
}  // namespace tp::core
