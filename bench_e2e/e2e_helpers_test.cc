// Tests of the end-to-end benchmark's own helpers: the percentile rule,
// the open-loop schedule, the span tracer and the self-time arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "e2e_trace.h"

namespace pafeat {
namespace e2e {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(PercentileRule, NearestRankCountsTheTailBeyond) {
  const Percentile p90 = NearestRank(OneTo(100), 0.9);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.samples, 100);
  EXPECT_EQ(p90.beyond, 10);
  EXPECT_FALSE(p90.flagged);

  const Percentile median = NearestRank(OneTo(10), 0.5);
  EXPECT_EQ(median.value, 5.0);
  EXPECT_EQ(median.beyond, 5);
  EXPECT_TRUE(median.flagged);
}

TEST(PercentileRule, FlagsFewerThanTenBeyond) {
  const Percentile p90 = NearestRank(OneTo(99), 0.9);
  EXPECT_EQ(p90.value, 90.0);  // rank ceil(89.1) = 90
  EXPECT_EQ(p90.beyond, 9);
  EXPECT_TRUE(p90.flagged);

  const Percentile empty = NearestRank({}, 0.5);
  EXPECT_TRUE(empty.flagged);
  EXPECT_EQ(empty.samples, 0);
}

TEST(PercentileRule, IgnoresInputOrder) {
  std::vector<double> values = OneTo(200);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(NearestRank(values, 0.9).value, 180.0);
  EXPECT_EQ(NearestRank(values, 0.99).value, 198.0);
}

TEST(PercentileRule, SamplesForTailIsTheFirstUnflaggedCount) {
  EXPECT_EQ(SamplesForTail(0.5), 20);
  EXPECT_EQ(SamplesForTail(0.9), 100);
  EXPECT_EQ(SamplesForTail(0.99), 1000);
  for (const double q : {0.5, 0.9, 0.99}) {
    const int n = SamplesForTail(q);
    EXPECT_FALSE(NearestRank(OneTo(n), q).flagged) << q;
    EXPECT_TRUE(NearestRank(OneTo(n - 1), q).flagged) << q;
  }
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonSchedule(7, 15.0, 500), PoissonSchedule(7, 15.0, 500));
  EXPECT_NE(PoissonSchedule(7, 15.0, 500), PoissonSchedule(8, 15.0, 500));
}

TEST(PoissonSchedule, IncreasingWithTheRequestedMeanGap) {
  const int count = 20000;
  const double rate = 40.0;
  const std::vector<double> due = PoissonSchedule(3, rate, count);
  ASSERT_EQ(static_cast<int>(due.size()), count);
  for (int i = 1; i < count; ++i) ASSERT_GT(due[i], due[i - 1]);
  EXPECT_GT(due[0], 0.0);
  EXPECT_NEAR(due.back() / count, 1.0 / rate, 0.03 / rate);
}

Span MakeSpan(std::uint64_t id, std::uint64_t parent, double start,
              double end) {
  Span span;
  span.name = "s";
  span.id = id;
  span.parent = parent;
  span.start_us = start;
  span.end_us = end;
  return span;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // Children overlap (10-30, 20-50) and one runs past the parent's end;
  // the grandchild is covered by its parent and does not count twice.
  const std::vector<Span> spans = {
      MakeSpan(4, 2, 12.0, 18.0),   // grandchild under span 2
      MakeSpan(2, 1, 10.0, 30.0),
      MakeSpan(3, 1, 20.0, 50.0),
      MakeSpan(5, 1, 90.0, 120.0),  // clipped to 90-100
      MakeSpan(1, 0, 0.0, 100.0),
  };
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[4], 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0 - 6.0);
  EXPECT_DOUBLE_EQ(self[0], 6.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
}

TEST(SelfTime, ChildWithUnknownParentIsARoot) {
  const std::vector<double> self = SelfTimesUs({MakeSpan(2, 99, 5.0, 8.0)});
  EXPECT_DOUBLE_EQ(self[0], 3.0);
}

TEST(Tracer, ScopedSpansNestAndShareTheRequestGroup) {
  Tracer tracer(true);
  {
    ScopedSpan request(&tracer, "request", 42);
    { ScopedSpan child(&tracer, "child"); }
  }
  { ScopedSpan other(&tracer, "other"); }
  const std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  const Span& child = spans[0];
  const Span& request = spans[1];
  EXPECT_EQ(std::string(child.name), "child");
  EXPECT_EQ(child.parent, request.id);
  EXPECT_EQ(child.group, 42u);
  EXPECT_EQ(request.parent, 0u);
  EXPECT_LE(request.start_us, child.start_us);
  EXPECT_GE(request.end_us, child.end_us);
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[2].group, 0u);
  EXPECT_EQ(tracer.DurationsSeconds("child").size(), 1u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(&tracer, "x"); }
  EXPECT_TRUE(tracer.Spans().empty());
}

}  // namespace
}  // namespace e2e
}  // namespace pafeat
