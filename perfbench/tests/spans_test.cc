// Span arithmetic: self times telescope over a synthetic span tree, and
// tracing overhead pairs adjacent chunks.

#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

Span Make(const char* name, uint64_t start, uint64_t end, int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

// read [0, 100) > serve.batch [10, 60) > core [20, 50) > pri [25, 35),
// and read > federate [70, 90): self times sum to the root's duration.
TEST(Spans, SelfTimesTelescope) {
  const std::vector<Span> spans = {
      Make("read", 0, 100, -1),       Make("serve.batch", 10, 60, 0),
      Make("core", 20, 50, 1),        Make("pri", 25, 35, 2),
      Make("federate", 70, 90, 0),
  };
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100u - 50u - 20u);
  EXPECT_EQ(self[1], 50u - 30u);
  EXPECT_EQ(self[2], 30u - 10u);
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(self[4], 20u);
  uint64_t total = 0;
  for (uint64_t s : self) total += s;
  EXPECT_EQ(total, spans[0].dur_ns());
}

// Overlapping children count once, and a child sticking out of its
// parent is clipped to it.
TEST(Spans, OverlapCountsOnceAndIsClipped) {
  const std::vector<Span> spans = {
      Make("root", 0, 100, -1),
      Make("a", 10, 40, 0),
      Make("b", 30, 60, 0),
      Make("c", 90, 120, 0),
  };
  EXPECT_EQ(SelfTimesNs(spans)[0], 100u - 50u - 10u);
}

// A recorded log nests Begin/End and Record spans under the open span
// and telescopes the same way.
TEST(Spans, LogNestsAndTelescopes) {
  std::atomic<bool> on{true};
  SpanLog log(Clock::now(), &on, 16);
  {
    ScopedSpan root(&log, "read", 7);
    const auto t0 = Clock::now();
    const auto t1 = Clock::now();
    log.Record("serve.batch", 7, t0, t1);
    ScopedSpan child(&log, "federate", 7);
  }
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 0);
  EXPECT_EQ(log.spans()[2].request, 7u);
  const std::vector<uint64_t> self = SelfTimesNs(log.spans());
  EXPECT_EQ(self[0] + self[1] + self[2], log.spans()[0].dur_ns());
}

TEST(Spans, DisabledLogRecordsNothing) {
  std::atomic<bool> on{false};
  SpanLog log(Clock::now(), &on, 4);
  { ScopedSpan s(&log, "read", 1); }
  log.Record("x", 1, Clock::now(), Clock::now());
  EXPECT_TRUE(log.spans().empty());
}

// Pairs are (untraced, traced) chunks; the result is the median of the
// traced side's extra time, whatever the pairs' absolute speed.
TEST(OverheadPairs, MedianOfPairedChunks) {
  const Clock::time_point t0{};
  OverheadPairs pairs(t0, 2);
  EXPECT_FALSE(pairs.Traced(1));
  EXPECT_TRUE(pairs.Traced(2));
  EXPECT_EQ(pairs.Replay(2), 0u);
  EXPECT_EQ(pairs.Replay(5), 3u);
  // Chunk lengths in ms: (10, 11), (40, 44), (20, 30); the machine
  // slowed 4x between the first two pairs.
  const int chunk_ms[] = {10, 11, 40, 44, 20, 30};
  Clock::time_point t = t0;
  uint64_t seq = 0;
  for (int ms : chunk_ms) {
    t += std::chrono::milliseconds(ms);
    pairs.Done(seq++, t - std::chrono::milliseconds(ms / 2));
    pairs.Done(seq++, t);
  }
  EXPECT_EQ(pairs.pairs(), 3u);
  EXPECT_NEAR(pairs.Percent(), 10.0, 1e-9);
}

}  // namespace
}  // namespace perfbench
