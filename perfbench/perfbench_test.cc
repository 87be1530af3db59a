// Unit tests for the benchmark's own arithmetic. Run with
// `python3 perfbench/run.py --unit-tests`.

#include <gtest/gtest.h>

#include <vector>

#include "perfbench/loadgen.h"
#include "perfbench/report.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOnSmallSets) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 90), 5);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Percentile(v, 1), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  // Even count: nearest rank takes the lower middle, never an average.
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);
}

TEST(PercentileTest, RankIsExactAtRoundProducts) {
  // 0.9 * 100 must be rank 90, not 91 through floating-point error.
  EXPECT_EQ(PercentileRank(100, 90), 90u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(PercentileRank(1000, 99), 990u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(PercentileTest, ReportablePercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(ReportablePercentile(5), 50.0);
  EXPECT_EQ(ReportablePercentile(99), 50.0);     // p90 has only 9 beyond
  EXPECT_EQ(ReportablePercentile(100), 90.0);    // p90 has 10 beyond
  EXPECT_EQ(ReportablePercentile(999), 90.0);    // p99 has only 9 beyond
  EXPECT_EQ(ReportablePercentile(1000), 99.0);
  EXPECT_EQ(ReportablePercentile(10000), 99.9);
}

TEST(QuietPoolTest, AStolenWindowDoesNotMoveTheFigure) {
  // Four 1 s windows of 1 ms requests, 20 each, except that the window
  // with the most stolen CPU time stalled at 50 ms and completed only 5.
  const std::vector<Window> windows = {
      {100, 101, 0.02}, {101, 102, 0.20}, {102, 103, 0.0}, {103, 104, 0.03}};
  std::vector<TimedSample> samples;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < (w == 1 ? 5 : 20); ++i) {
      samples.push_back({100.0 + w + i * 0.04, w == 1 ? 50.0 : 1.0});
    }
  }
  EXPECT_EQ(QuietestWindows(windows, 0.5, 0.01), (std::vector<size_t>{0, 2}));
  const Pooled quiet = QuietPool(samples, windows, 0.5, 0.01);
  EXPECT_EQ(quiet.values.size(), 40u);
  EXPECT_EQ(Percentile(quiet.values, 100), 1.0);
  EXPECT_DOUBLE_EQ(quiet.seconds, 2.0);
  EXPECT_DOUBLE_EQ(quiet.worst_steal, 0.02);
  EXPECT_EQ(quiet.windows, 2u);
  // Keeping every window lets the stolen one in.
  const Pooled all = QuietPool(samples, windows, 1.0, 0.01);
  EXPECT_EQ(all.values.size(), 65u);
  EXPECT_EQ(Percentile(all.values, 95), 50.0);

  Report report;
  report.SetRate("rate", samples, windows, "test");
  report.SetLatency("lat", samples, windows);
  // Report keeps the quietest quarter here (one window, the third).
  EXPECT_DOUBLE_EQ(report.Get("rate"), 20.0);
  EXPECT_EQ(report.Get("lat_p90_ms"), 1.0);
}

TEST(QuietPoolTest, CalmWindowsAreAllKept) {
  const std::vector<Window> windows = {{0, 1, 0.004}, {1, 2, 0.2},  {2, 3, 0.01},
                                       {3, 4, 0.0},   {4, 5, 0.05}, {5, 6, 0.011}};
  // Every window at or below 1% steal, though that is more than the share.
  EXPECT_EQ(QuietestWindows(windows, 0.25, 0.01), (std::vector<size_t>{0, 2, 3}));
  // The share still applies when fewer windows are calm.
  EXPECT_EQ(QuietestWindows(windows, 0.75, 0.01), (std::vector<size_t>{0, 2, 3, 4, 5}));
  EXPECT_EQ(QuietestWindows(windows, 0.25, 0.0), (std::vector<size_t>{0, 3}));
}

TEST(QuietPoolTest, SamplesJoinTheWindowTheyCompletedIn) {
  // Two slices with a gap between them, as a phase's rounds leave them.
  const std::vector<Window> windows = {{10, 11, 0.0}, {20, 21, 0.5}};
  // A request that finished after its slice ended still belongs to it; one
  // that finished before any slice began joins the first.
  EXPECT_EQ(QuietPool({{9, 1}, {10.5, 1}, {15, 1}, {20.5, 1}}, windows, 0.5, 0.01)
                .values.size(),
            3u);
  EXPECT_TRUE(QuietPool({{10.5, 1}}, {}, 0.5, 0.01).values.empty());
  // At least one window is kept; ties go to the earlier window.
  EXPECT_EQ(QuietestWindows({{0, 1, 0.1}, {1, 2, 0.1}}, 0.1, 0.01),
            (std::vector<size_t>{0}));
}

TEST(RatioTest, CarriesItsBase) {
  const Ratio half{1, 2};
  const Ratio same{500, 1000};
  EXPECT_EQ(half.value(), same.value());
  EXPECT_EQ(half.base(), "1/2");
  EXPECT_EQ(same.base(), "500/1000");
  const Ratio empty{0, 0};
  EXPECT_EQ(empty.value(), 0.0);
  EXPECT_EQ(empty.base(), "0/0");
}

TEST(DigestTest, RejectsAOneBitFlip) {
  std::vector<double> dist = {0.0, 1.0, 2.5, 7.0, 1e300};
  const uint64_t reference = DigestOf(dist);
  EXPECT_EQ(DigestOf(dist), reference);
  for (size_t byte = 0; byte < dist.size() * sizeof(double); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<double> flipped = dist;
      reinterpret_cast<uint8_t*>(flipped.data())[byte] ^= uint8_t(1u << bit);
      EXPECT_NE(DigestOf(flipped), reference) << "byte " << byte << " bit " << bit;
    }
  }
  std::vector<uint32_t> depth = {0, 1, 2, UINT32_MAX};
  const uint64_t d = DigestOf(depth);
  depth[3] ^= 1u << 31;
  EXPECT_NE(DigestOf(depth), d);
}

TEST(DigestTest, MaxAbsDiffSeesSizeMismatch) {
  EXPECT_EQ(MaxAbsDiff({1, 2}, {1, 2.5}), 0.5);
  EXPECT_TRUE(std::isinf(MaxAbsDiff({1}, {1, 2})));
}

Span MakeSpan(uint32_t id, uint32_t parent, const char* layer, int64_t start,
              int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SpanMinusCoveredChildTime) {
  const Span parent = MakeSpan(1, 0, "loadgen", 0, 100);
  const Span a = MakeSpan(2, 1, "serve", 10, 40);
  const Span b = MakeSpan(3, 1, "serve", 30, 50);   // overlaps a: counted once
  const Span c = MakeSpan(4, 1, "core", 90, 120);   // clipped to the parent
  EXPECT_EQ(SelfNs(parent, {}), 100);
  EXPECT_EQ(SelfNs(parent, {&a}), 70);
  EXPECT_EQ(SelfNs(parent, {&a, &b}), 60);
  EXPECT_EQ(SelfNs(parent, {&a, &b, &c}), 50);
}

TEST(SelfTimeTest, SumsPerLayer) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "loadgen", 0, 1000),
      MakeSpan(2, 1, "serve", 100, 600),
      MakeSpan(3, 2, "core", 200, 400),
      MakeSpan(4, 0, "graph", 2000, 2500),
  };
  const auto self = SelfSecondsByLayer(spans);
  EXPECT_DOUBLE_EQ(self.at("loadgen"), 500e-9);
  EXPECT_DOUBLE_EQ(self.at("serve"), 300e-9);
  EXPECT_DOUBLE_EQ(self.at("core"), 200e-9);
  EXPECT_DOUBLE_EQ(self.at("graph"), 500e-9);
}

TEST(SpanRecorderTest, NestsThroughTheThreadLocalParent) {
  SpanRecorder& rec = SpanRecorder::Global();
  rec.set_enabled(true);
  {
    RequestScope request(42);
    ScopedSpan outer("loadgen", "outer");
    ScopedSpan inner("serve", "inner");
  }
  rec.set_enabled(false);
  { ScopedSpan ignored("core", "off"); }
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];  // closes first
  const Span& outer = spans[1];
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.request, 42u);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
}

TEST(PoissonScheduleTest, SeededWithExactlyTheRequestedCount) {
  const auto a = PoissonSchedule(7, 200, 50);
  EXPECT_EQ(a, PoissonSchedule(7, 200, 50));
  EXPECT_NE(a, PoissonSchedule(8, 200, 50));
  EXPECT_EQ(a.size(), 200u * 50u);
  EXPECT_EQ(PoissonSchedule(8, 200, 50).size(), a.size());
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1], a[i]);
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 50);
  // Exponential gaps: about 1 - e^-1 of them are shorter than the mean.
  size_t short_gaps = 0;
  for (size_t i = 1; i < a.size(); ++i) short_gaps += a[i] - a[i - 1] < 1.0 / 200;
  EXPECT_NEAR(short_gaps / double(a.size()), 1 - std::exp(-1.0), 0.02);
}

}  // namespace
}  // namespace perfbench
