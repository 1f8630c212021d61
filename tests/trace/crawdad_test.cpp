#include <gtest/gtest.h>

#include "trace/contact_trace.hpp"

namespace odtn::trace {
namespace {

TEST(CrawdadParser, IntervalBecomesEventAtStart) {
  // ids are 1-based in the dataset.
  auto t = parse_crawdad_trace("1 2 100 250\n2 3 300 360\n", 3);
  ASSERT_EQ(t.event_count(), 2u);
  EXPECT_EQ(t.events()[0].time, 100.0);
  EXPECT_EQ(t.events()[0].a, 0u);
  EXPECT_EQ(t.events()[0].b, 1u);
  EXPECT_EQ(t.events()[1].time, 300.0);
}

TEST(CrawdadParser, ExtraColumnsIgnored) {
  auto t = parse_crawdad_trace("1 2 100 250 7 42\n", 2);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(CrawdadParser, ExternalDevicesSkipped) {
  // The paper: "we only consider the contacts between mobile devices" —
  // ids above node_count are stationary/external and must be dropped.
  auto t = parse_crawdad_trace("1 2 10 20\n1 99 30 40\n50 2 50 60\n", 12);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(CrawdadParser, SelfContactsSkipped) {
  auto t = parse_crawdad_trace("1 1 10 20\n1 2 30 40\n", 2);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(CrawdadParser, CommentsAndBlanksTolerated) {
  auto t = parse_crawdad_trace("# header\n\n1 2 10 20 # inline\n", 2);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(CrawdadParser, MalformedRejected) {
  EXPECT_THROW(parse_crawdad_trace("1 2 10\n", 2), std::invalid_argument);
  EXPECT_THROW(parse_crawdad_trace("0 2 10 20\n", 2), std::invalid_argument);
  EXPECT_THROW(parse_crawdad_trace("1 2 30 20\n", 2), std::invalid_argument);
}

TEST(CrawdadParser, UnparsableLinesRejectedNotSkipped) {
  // A line whose first token is not an id is malformed, not blank.
  for (const char* text : {"1 2 10 20\nx 2 30 40\n", "1 2 10 20\nnan 1 2 3\n",
                           "1 2 10 20\n\t# note\n?\n"}) {
    try {
      parse_crawdad_trace(text, 2);
      FAIL() << "expected std::invalid_argument for " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("malformed contact"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CrawdadParser, TrailingBlankAndCommentLinesTolerated) {
  auto t = parse_crawdad_trace("1 2 10 20\n\n# trailing comment\n\n", 2);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(CrawdadParser, CrlfLineEndingsTolerated) {
  auto t = parse_crawdad_trace("# header\r\n1 2 10 20\r\n2 1 30 40\r\n", 2);
  EXPECT_EQ(t.event_count(), 2u);
}

TEST(CrawdadParser, DiagnosticNamesTheLine) {
  try {
    parse_crawdad_trace("1 2 10 20\n# fine\n1 2 30\n", 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(CrawdadParser, EventsSortedAfterParse) {
  auto t = parse_crawdad_trace("1 2 500 600\n2 3 100 200\n", 3);
  EXPECT_EQ(t.events()[0].time, 100.0);
  EXPECT_EQ(t.events()[1].time, 500.0);
}

TEST(CrawdadParser, RatesEstimableFromParsedTrace) {
  auto t = parse_crawdad_trace("1 2 0 10\n1 2 100 110\n1 2 200 210\n", 2);
  auto rates = t.estimate_rates();
  EXPECT_DOUBLE_EQ(rates.rate(0, 1), 3.0 / 200.0);
}

}  // namespace
}  // namespace odtn::trace
