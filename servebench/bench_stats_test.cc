#include "bench_stats.h"

#include <gtest/gtest.h>

#include <thread>

namespace servebench {
namespace {

TEST(NearestRank, PicksTheCeilRankSample) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(NearestRank(v, 0.5), 5);
  EXPECT_EQ(NearestRank(v, 0.95), 10);
  EXPECT_EQ(NearestRank(v, 0.9), 9);
  EXPECT_EQ(NearestRank(v, 0.91), 10);
  EXPECT_EQ(NearestRank(v, 0.0), 1);
  EXPECT_EQ(NearestRank(v, 1.0), 10);
  EXPECT_EQ(NearestRank({7}, 0.5), 7);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  // 0.95 * 20 = 19 exactly: the 19th sample, not the 20th.
  std::vector<double> w(20);
  for (size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(i + 1);
  EXPECT_EQ(NearestRank(w, 0.95), 19);
}

TEST(TailQuantile, KeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantile(1000, 0.95), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(200, 0.95), 0.95);
  // 100 samples support at most p90: 10 samples lie beyond rank 90.
  EXPECT_DOUBLE_EQ(TailQuantile(100, 0.95), 0.90);
  for (size_t n : {30u, 100u, 199u, 200u, 1000u}) {
    double q = TailQuantile(n, 0.95);
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
    double at = NearestRank(v, q);
    EXPECT_GE(static_cast<double>(n) - at, 10.0) << n;
  }
  // Too few samples for any tail: fall back to the median.
  EXPECT_DOUBLE_EQ(TailQuantile(10, 0.95), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(0, 0.95), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(15, 0.95), 0.5);
}

TEST(Ratio, ZeroDenominatorReadsZero) {
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(Ratio(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Ratio(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(Ratio(0, 7), 0.0);
  // A hit ratio with no lookups at all: hits / (hits + misses) = 0 / 0.
  double hits = 0, misses = 0;
  EXPECT_DOUBLE_EQ(Ratio(hits, hits + misses), 0.0);
}

TEST(Median, AveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(SliceMedians, OneStalledSliceDoesNotMoveTheFigures) {
  // 15 s of 100 requests per second, 5 ms each, except one second where
  // the host stalled the process and requests took 50 ms.
  std::vector<double> done, lat;
  for (int i = 0; i < 1500; ++i) {
    done.push_back(i * 0.01);
    lat.push_back(i >= 300 && i < 400 ? 0.050 : 0.005);
  }
  SliceSummary s = SliceMedians(done, lat, 15, 1, 0.95);
  EXPECT_EQ(s.slices, 5u);  // 1500 samples / 300 per slice.
  EXPECT_EQ(s.samples, 1500u);
  EXPECT_DOUBLE_EQ(s.p50, 0.005);
  EXPECT_DOUBLE_EQ(s.tail, 0.005);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.95);
  EXPECT_NEAR(s.rate, 100, 1e-9);
  // The same stall over the whole window moves everything.
  SliceSummary all = SliceMedians(done, std::vector<double>(1500, 0.05), 15,
                                  1, 0.95);
  EXPECT_DOUBLE_EQ(all.tail, 0.05);
}

TEST(SliceMedians, SmallSamplesUseOneSliceAndSupportedTail) {
  std::vector<double> done, lat;
  for (int i = 0; i < 100; ++i) {
    done.push_back(i * 0.1);
    lat.push_back(i + 1);
  }
  // A straggler finishing after the deadline stretches the last slice.
  done.push_back(12.0);
  lat.push_back(101);
  SliceSummary s = SliceMedians(done, lat, 10, 32, 0.95);
  EXPECT_EQ(s.slices, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 51);
  EXPECT_NEAR(s.tail_q, 91.0 / 101.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.tail, 91);
  EXPECT_NEAR(s.rate, 101 * 32 / 12.0, 1e-9);
  EXPECT_EQ(SliceMedians({}, {}, 10, 1, 0.95).slices, 0u);
}

TEST(PoissonSchedule, DeterministicFromSeed) {
  std::vector<double> a = PoissonSchedule(42, 50, 10);
  std::vector<double> b = PoissonSchedule(42, 50, 10);
  std::vector<double> c = PoissonSchedule(43, 50, 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 10);
  // The count is the mean count, so every seed offers the same load.
  EXPECT_EQ(a.size(), 500u);
  EXPECT_EQ(c.size(), 500u);
  EXPECT_GE(a.front(), 0);
}

TEST(SelfSeconds, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {1, 0, 9, "root", 0.0, 10.0},
      {2, 1, 9, "child", 1.0, 3.0},
      {3, 1, 9, "child", 2.0, 4.0},   // Overlaps the first child.
      {4, 1, 9, "child", 9.0, 12.0},  // Outlives the parent: clipped.
      {5, 2, 9, "leaf", 1.5, 2.5},
  };
  std::vector<double> self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SpanRecorder, NestsPerThreadAndSharesRequestIds) {
  SpanRecorder rec;
  {
    SpanRecorder::Scope off(rec, "ignored", 1);
  }
  EXPECT_TRUE(rec.spans().empty());
  rec.set_enabled(true);
  {
    SpanRecorder::Scope outer(rec, "outer", 7);
    { SpanRecorder::Scope inner(rec, "inner", 7); }
    std::thread other([&] { SpanRecorder::Scope s(rec, "other", 8); });
    other.join();
  }
  std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  const Span* outer = nullptr;
  const Span* inner = nullptr;
  const Span* other = nullptr;
  for (const Span& s : spans) {
    if (s.name == "outer") outer = &s;
    if (s.name == "inner") inner = &s;
    if (s.name == "other") other = &s;
  }
  ASSERT_TRUE(outer && inner && other);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(inner->request, 7u);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(other->parent, 0u);  // Another thread: its own root.
  EXPECT_LE(outer->start, inner->start);
  EXPECT_GE(outer->end, inner->end);
  EXPECT_EQ(rec.Durations("inner").size(), 1u);
}

}  // namespace
}  // namespace servebench
