// Unit tests for the odtn::metrics Registry, handles, and writer.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "metrics/writer.hpp"

namespace odtn::metrics {
namespace {

TEST(Counter, IncrementsThroughHandle) {
  Registry reg;
  auto c = reg.counter("events");
  c.inc();
  c.inc(4);
  EXPECT_EQ(reg.entries().at("events").counter, 5u);
}

TEST(Counter, SameNameSharesState) {
  Registry reg;
  reg.counter("x").inc(2);
  reg.counter("x").inc(3);
  EXPECT_EQ(reg.entries().at("x").counter, 5u);
}

TEST(HistogramMetric, MomentsAndQuantileEndpoints) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  // Exact extremes at the endpoints regardless of bucketing.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(HistogramMetric, ZeroAndNegativeShareThePointBucket) {
  Histogram h;
  h.observe(0.0);
  h.observe(-2.0);
  h.observe(1.0);
  auto buckets = h.buckets();
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(buckets[0].hi, 0.0);
  EXPECT_EQ(buckets[0].count, 2u);
  // Quantiles inside the zero bucket report 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramMetric, MergeAddsBucketsAndMoments) {
  Histogram a, b;
  a.observe(1.0);
  a.observe(100.0);
  b.observe(0.5);
  b.observe(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 102.5);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  // The shared value 1.0 must land in one bucket with count 2.
  std::uint64_t ones = 0;
  for (const auto& bucket : a.buckets()) {
    if (bucket.lo <= 1.0 && 1.0 < bucket.hi) ones = bucket.count;
  }
  EXPECT_EQ(ones, 2u);
}

TEST(RegistryTest, KindConflictThrows) {
  Registry reg;
  reg.counter("n");
  EXPECT_THROW(reg.histogram("n"), std::logic_error);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), std::logic_error);
}

TEST(RegistryTest, MergeFoldsAllKinds) {
  Registry a, b;
  a.counter("c").inc(2);
  b.counter("c").inc(3);
  b.counter("only_b").inc(1);
  a.histogram("h").observe(1.0);
  b.histogram("h").observe(2.0);
  a.merge(b);
  EXPECT_EQ(a.entries().at("c").counter, 5u);
  EXPECT_EQ(a.entries().at("only_b").counter, 1u);
  EXPECT_EQ(a.entries().at("h").hist.count(), 2u);
  EXPECT_DOUBLE_EQ(a.entries().at("h").hist.sum(), 3.0);
}

TEST(NullRegistry, HandlesAreInert) {
  Registry* none = nullptr;
  auto c = metrics::counter(none, "c");
  auto h = metrics::histogram(none, "h");
  c.inc();
  h.observe(3.0);
  // Default-constructed handles are also safe.
  CounterHandle{}.inc();
  HistogramHandle{}.observe(1.0);
}

TEST(Writer, JsonlIsCanonicalAndSkipsWallMetrics) {
  Registry reg;
  reg.histogram("c.hist").observe(2.0);
  reg.counter("b.count").inc(2);
  double lo = 0.0, hi = 0.0;
  Histogram::bucket_bounds(Histogram::bucket_index(2.0), &lo, &hi);
  EXPECT_EQ(to_jsonl(reg),
            "{\"schema\":\"odtn.metrics.v1\",\"name\":\"b.count\","
            "\"kind\":\"counter\",\"value\":2}\n"
            "{\"schema\":\"odtn.metrics.v1\",\"name\":\"c.hist\","
            "\"kind\":\"histogram\",\"count\":1,\"sum\":2,\"mean\":2,"
            "\"min\":2,\"max\":2,\"p50\":2,\"p90\":2,\"p99\":2,"
            "\"buckets\":[[" +
                format_double(lo) + "," + format_double(hi) + ",1]]}\n");
}

TEST(Writer, CsvHasHeaderAndOneRowPerMetric) {
  Registry reg;
  reg.counter("n").inc(7);
  reg.histogram("d").observe(1.0);
  std::ostringstream os;
  write_csv(os, reg);
  std::string out = os.str();
  EXPECT_EQ(out.find("name,kind,value,count,sum,mean,min,max,p50,p90,p99"),
            0u);
  EXPECT_NE(out.find("\nn,counter,7,"), std::string::npos);
  EXPECT_NE(out.find("\nd,histogram,,1,"), std::string::npos);
}

TEST(Writer, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(-2.5), "-2.5");
}

}  // namespace
}  // namespace odtn::metrics
