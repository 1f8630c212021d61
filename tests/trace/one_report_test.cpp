#include <gtest/gtest.h>

#include "trace/contact_trace.hpp"
#include "support/trace_text.hpp"

namespace odtn::trace {
namespace {

using test_support::read_trace;

TEST(OneReport, UpTransitionsBecomeEvents) {
  auto t = read_trace(TraceFormat::kOneReport,
      "10.0 CONN 0 1 up\n"
      "25.0 CONN 0 1 down\n"
      "30.0 CONN 1 2 up\n",
      3);
  ASSERT_EQ(t.event_count(), 2u);
  EXPECT_EQ(t.events()[0].time, 10.0);
  EXPECT_EQ(t.events()[0].a, 0u);
  EXPECT_EQ(t.events()[1].time, 30.0);
}

TEST(OneReport, NonConnLinesIgnored) {
  auto t = read_trace(TraceFormat::kOneReport,
      "# Scenario: test\n"
      "10.0 CONN 0 1 up\n"
      "12.0 M 0 [100, 200]\n"
      "15.0 DELIVERED M3 0 1\n",
      2);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(OneReport, OutOfRangeIdsSkipped) {
  auto t = read_trace(TraceFormat::kOneReport,
                      "1.0 CONN 0 7 up\n2.0 CONN 0 1 up\n", 2);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(OneReport, CrlfLineEndingsTolerated) {
  // Without CR stripping the state field would parse as "up\r" and be
  // rejected as an unknown CONN state.
  auto t = read_trace(TraceFormat::kOneReport,
                      "10.0 CONN 0 1 up\r\n30.0 CONN 1 0 up\r\n", 2);
  EXPECT_EQ(t.event_count(), 2u);
}

TEST(OneReport, MalformedConnRejected) {
  EXPECT_THROW(read_trace(TraceFormat::kOneReport, "1.0 CONN 0 up\n", 3),
               std::invalid_argument);
  EXPECT_THROW(read_trace(TraceFormat::kOneReport,
                          "1.0 CONN 0 1 sideways\n", 3),
               std::invalid_argument);
  EXPECT_THROW(read_trace(TraceFormat::kOneReport, "1.0 CONN -1 1 up\n", 3),
               std::invalid_argument);
}

TEST(OneReport, EmptyInput) {
  EXPECT_EQ(read_trace(TraceFormat::kOneReport, "", 3).event_count(), 0u);
}

TEST(OneReport, RatesEstimableFromParsedReport) {
  auto t = read_trace(TraceFormat::kOneReport,
      "0 CONN 0 1 up\n100 CONN 0 1 down\n200 CONN 0 1 up\n", 2);
  auto rates = t.train(0.0).rates;
  EXPECT_DOUBLE_EQ(rates.rate(0, 1), 2.0 / 200.0);
}

}  // namespace
}  // namespace odtn::trace
