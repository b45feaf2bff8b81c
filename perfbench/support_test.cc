#include "support.h"

#include <gtest/gtest.h>

#include <cmath>

namespace perfbench {
namespace {

TEST(QuantileTest, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 1.0), 4.0);
}

TEST(QuantileTest, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(SupportsQuantile(99, 0.9));
  EXPECT_TRUE(SupportsQuantile(100, 0.9));
  EXPECT_FALSE(SupportsQuantile(999, 0.99));
  EXPECT_TRUE(SupportsQuantile(1000, 0.99));
  EXPECT_TRUE(SupportsQuantile(20, 0.5));
  EXPECT_FALSE(SupportsQuantile(19, 0.5));

  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(19), 0.0);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(20), 0.5);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(150), 0.9);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(10000), 0.999);
}

TEST(QuantileTest, SummaryCarriesSampleCount) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 100);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.9);
  EXPECT_NEAR(s.tail, 90.1, 1e-9);
}

TEST(PoissonScheduleTest, ReproducibleFromSeed) {
  const auto a = PoissonScheduleNs(500.0, 2.0, 42);
  const auto b = PoissonScheduleNs(500.0, 2.0, 42);
  const auto c = PoissonScheduleNs(500.0, 2.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 2'000'000'000);
}

TEST(PoissonScheduleTest, MatchesRate) {
  const auto a = PoissonScheduleNs(1000.0, 20.0, 7);
  // 20000 expected arrivals; the Poisson sd is ~141.
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 700.0);
}

TEST(DrainRateTest, CountsRepliesUpToTheLast) {
  // A backlog of 320 served in batches of 32, one batch every 40 ms: the
  // replies of batch k land at 40 * (k + 1) ms, so 320 replies in 0.4 s.
  std::vector<double> completion_ms;
  for (int k = 0; k < 10; ++k) {
    completion_ms.insert(completion_ms.end(), 32, 40.0 * (k + 1));
  }
  EXPECT_DOUBLE_EQ(DrainRatePerS({completion_ms}), 800.0);
}

TEST(DrainRateTest, IgnoresReplyOrder) {
  EXPECT_DOUBLE_EQ(DrainRatePerS({{250.0, 500.0, 125.0, 500.0}}), 8.0);
}

TEST(DrainRateTest, PoolsBurstsByTime) {
  // 4 replies in 0.5 s and 4 in 1.5 s: 8 replies in 2 s, not the mean of
  // 8/s and 2.67/s.
  EXPECT_DOUBLE_EQ(DrainRatePerS({{100.0, 500.0, 300.0, 200.0},
                                  {1500.0, 10.0, 20.0, 30.0}}),
                   4.0);
}

TEST(DrainRateTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(DrainRatePerS({}), 0.0);
  EXPECT_DOUBLE_EQ(DrainRatePerS({{}, {}}), 0.0);
  EXPECT_DOUBLE_EQ(DrainRatePerS({{0.0}}), 0.0);
}

TEST(SelfTimeTest, SubtractsUnionOfDirectChildren) {
  std::vector<Span> spans = {
      {"step", 0, 100, -1, 1},
      {"forward", 10, 40, 0, 1},
      {"inner", 15, 35, 1, 1},      // grandchild: only reduces "forward"
      {"backward", 30, 70, 0, 1},   // overlaps forward: covered once
      {"late", 90, 130, 0, 1},      // clipped to the parent's end
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - (70 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 30 - 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 40);
}

TEST(SelfTimeTest, SpanLogMediansUseSelfTime) {
  SpanLog log;
  const int64_t a = log.Add("outer", 0, 1000, -1, 0);
  log.Add("inner", 100, 400, a, 0);
  const int64_t b = log.Add("outer", 2000, 4000, -1, 1);
  log.Add("inner", 2000, 2500, b, 1);
  EXPECT_EQ(log.Count("outer"), 2);
  // Self times 0.7 us and 1.5 us.
  EXPECT_DOUBLE_EQ(log.MedianSelfUs("outer"), 1.1);
  EXPECT_DOUBLE_EQ(log.MedianSelfUs("inner"), 0.4);
  EXPECT_DOUBLE_EQ(log.MedianSelfUs("missing"), 0.0);
}

}  // namespace
}  // namespace perfbench
