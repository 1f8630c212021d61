#include "trace/contact_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "util/rng.hpp"
#include "support/trace_text.hpp"

namespace odtn::trace {
namespace {

using test_support::read_trace;

std::vector<ContactEvent> sample_events() {
  return {{30.0, 0, 1}, {10.0, 1, 2}, {20.0, 0, 2}, {40.0, 1, 2}};
}

TEST(ContactTrace, EventsSortedByTime) {
  ContactTrace t(3, sample_events());
  ASSERT_EQ(t.event_count(), 4u);
  for (std::size_t i = 1; i < t.events().size(); ++i) {
    EXPECT_LE(t.events()[i - 1].time, t.events()[i].time);
  }
  EXPECT_EQ(t.start_time(), 10.0);
  EXPECT_EQ(t.end_time(), 40.0);
}

TEST(ContactTrace, Validation) {
  EXPECT_THROW(ContactTrace(1, {}), std::invalid_argument);
  EXPECT_THROW(ContactTrace(3, {{1.0, 0, 3}}), std::invalid_argument);
  EXPECT_THROW(ContactTrace(3, {{1.0, 2, 2}}), std::invalid_argument);
}

TEST(ContactTrace, NonFiniteTimeRejected) {
  for (Time t : {std::numeric_limits<Time>::quiet_NaN(),
                 std::numeric_limits<Time>::infinity(),
                 -std::numeric_limits<Time>::infinity()}) {
    try {
      ContactTrace(3, {{1.0, 0, 1}, {t, 1, 2}});
      FAIL() << "expected std::invalid_argument for time " << t;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "ContactTrace: non-finite event time");
    }
  }
}

// The constructor's order must equal std::stable_sort by time, element for
// element: ties keep their input order.
std::vector<ContactEvent> stable_sorted(std::vector<ContactEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ContactEvent& x, const ContactEvent& y) {
                     return x.time < y.time;
                   });
  return events;
}

// Events at the given times, with (a, b) numbering them in input order so
// that a misordered tie shows.
std::vector<ContactEvent> events_at(const std::vector<Time>& times) {
  std::vector<ContactEvent> events;
  for (std::size_t k = 0; k < times.size(); ++k) {
    events.push_back({times[k], static_cast<NodeId>(k % 1000),
                      static_cast<NodeId>(1000 + k / 1000)});
  }
  return events;
}

void expect_stable_sort_order(const std::vector<Time>& times) {
  std::vector<ContactEvent> events = events_at(times);
  ContactTrace t(2000, events);
  EXPECT_EQ(t.events(), stable_sorted(events));
}

TEST(ContactTraceSort, TinyInputs) {
  expect_stable_sort_order({});
  expect_stable_sort_order({5.0});
  expect_stable_sort_order({5.0, 1.0});
  expect_stable_sort_order({1.0, 5.0});
  expect_stable_sort_order({3.0, 3.0});
}

TEST(ContactTraceSort, SortedReversedAndEqual) {
  std::vector<Time> up, down, equal(500, 42.0);
  for (int k = 0; k < 500; ++k) {
    up.push_back(k * 0.5);
    down.push_back(1000.0 - k * 0.25);
  }
  expect_stable_sort_order(up);
  expect_stable_sort_order(down);
  expect_stable_sort_order(equal);
}

TEST(ContactTraceSort, RandomInputWithTies) {
  util::Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t count = 2 + rng.below(3000);
    // Even trials: an integer grid about as wide as the bucket count, so
    // most buckets hold a few tied events and take the insertion path.
    // Odd trials: ties packed at one end of a wide range, so they share
    // one large bucket and take the std::stable_sort path.
    const bool narrow = trial % 2 == 0;
    std::vector<Time> times;
    for (std::size_t k = 0; k < count; ++k) {
      const Time tie = static_cast<Time>(rng.below(narrow ? count / 2 : 50));
      times.push_back(rng.chance(narrow ? 0.8 : 0.5)
                          ? tie - 10.0
                          : rng.uniform(-10.0, narrow ? count / 2.0 : 1e6));
    }
    expect_stable_sort_order(times);
  }
}

TEST(ContactTraceSort, OneFarOutlierPacksOneBucket) {
  // 1e5 events inside [0, 1) plus one at 1e12: every other event shares
  // the first bucket, which must take the O(E log E) path, not insertion.
  util::Rng rng(23);
  std::vector<Time> times;
  for (int k = 0; k < 100000; ++k) {
    times.push_back(rng.chance(0.1) ? 0.5 : rng.uniform01());
  }
  times.insert(times.begin() + 50000, 1e12);
  const auto start = std::chrono::steady_clock::now();
  expect_stable_sort_order(times);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 1.0);
}

TEST(ContactTrace, EmptyTraceTimes) {
  ContactTrace t(2, {});
  EXPECT_EQ(t.start_time(), 0.0);
  EXPECT_EQ(t.end_time(), 0.0);
  EXPECT_EQ(t.event_count(), 0u);
}

TEST(ContactTrace, EstimateRatesMatchesCounts) {
  // duration = 40 - 10 = 30; pair (1,2) has 2 contacts -> 1/15.
  ContactTrace t(3, sample_events());
  auto g = t.train(0.0).rates;
  EXPECT_DOUBLE_EQ(g.rate(1, 2), 2.0 / 30.0);
  EXPECT_DOUBLE_EQ(g.rate(0, 1), 1.0 / 30.0);
  EXPECT_DOUBLE_EQ(g.rate(0, 2), 1.0 / 30.0);
}

// A NaN gap is malformed input: the trainer refuses it in one line, for
// ContactTrace::train, streaming ingest and odtn rates alike. An infinite
// gap caps no silence, so active time is the whole span.
TEST(ContactTrace, TrainingGapNaNRejectedInfAccepted) {
  const ContactTrace t(3, sample_events());
  try {
    t.train(std::numeric_limits<double>::quiet_NaN());
    FAIL() << "accepted a NaN training gap";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ContactTrace: training gap is NaN");
  }
  const auto s = t.train(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(s.active_duration, 30.0);
  EXPECT_DOUBLE_EQ(s.rates.rate(1, 2), 2.0 / 30.0);
}

TEST(ContactTrace, EstimateRatesEmptyTrace) {
  ContactTrace t(3, {});
  auto g = t.train(0.0).rates;
  EXPECT_EQ(g.total_rate(), 0.0);
}

TEST(ParseTrace, BasicFormat) {
  auto t = read_trace(TraceFormat::kPlain, "10 0 1\n20.5 1 2\n", 3);
  ASSERT_EQ(t.event_count(), 2u);
  EXPECT_EQ(t.events()[1].time, 20.5);
  EXPECT_EQ(t.events()[1].a, 1u);
}

TEST(ParseTrace, CommentsAndBlanksIgnored) {
  auto t = read_trace(TraceFormat::kPlain,
                      "# header\n\n10 0 1  # inline comment\n\n", 2);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(ParseTrace, MalformedRejected) {
  EXPECT_THROW(read_trace(TraceFormat::kPlain, "10 0\n", 2),
               std::invalid_argument);
  EXPECT_THROW(read_trace(TraceFormat::kPlain, "10 -1 1\n", 2),
               std::invalid_argument);
  EXPECT_THROW(read_trace(TraceFormat::kPlain, "10 0 5\n", 2),
               std::invalid_argument);
}

TEST(ParseTrace, UnparsableLinesRejectedNotSkipped) {
  // Only lines blank after comment stripping are skipped; a line whose
  // first token is not a number is malformed, not blank.
  for (const char* text : {"10 0 1\nx 0 1\n", "10 0 1\nnan 0 1\n",
                           "10 0 1\n  # note\n-\n", "10 0 1\n0x 1 0\n"}) {
    try {
      read_trace(TraceFormat::kPlain, text, 2);
      FAIL() << "expected std::invalid_argument for " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("malformed contact"),
                std::string::npos)
          << e.what();
    }
  }
  auto t = read_trace(TraceFormat::kPlain,
                      " \t \n\t# only a comment\n10 0 1\n", 2);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(ParseTrace, TrailingBlankAndCommentLines) {
  // Trailing blank lines and comment lines (even several of them, even
  // without a final newline) are not "malformed".
  auto t = read_trace(TraceFormat::kPlain,
                      "10 0 1\n20 1 0\n\n\n# done\n   \n", 2);
  EXPECT_EQ(t.event_count(), 2u);
  auto u = read_trace(TraceFormat::kPlain, "10 0 1\n#no final newline", 2);
  EXPECT_EQ(u.event_count(), 1u);
}

TEST(ParseTrace, CrlfLineEndingsTolerated) {
  auto t = read_trace(TraceFormat::kPlain,
                      "# windows file\r\n10 0 1\r\n20.5 1 0\r\n\r\n", 2);
  ASSERT_EQ(t.event_count(), 2u);
  EXPECT_EQ(t.events()[1].time, 20.5);
}

TEST(ParseTrace, DiagnosticNamesTheLine) {
  try {
    read_trace(TraceFormat::kPlain, "10 0 1\n20 1\n", 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(TraceFile, LoadDiagnosticNamesFileAndLine) {
  std::string path =
      (std::filesystem::temp_directory_path() / "odtn_trace_bad.txt").string();
  {
    std::ofstream out(path);
    out << "10 0 1\n20 1\n";
  }
  try {
    load_trace_file(path, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(FormatTrace, RoundTrip) {
  ContactTrace t(3, sample_events());
  auto t2 = read_trace(TraceFormat::kPlain, format_trace(t), 3);
  EXPECT_EQ(t2.events(), t.events());
}

TEST(TraceFile, SaveAndLoad) {
  ContactTrace t(3, sample_events());
  std::string path =
      (std::filesystem::temp_directory_path() / "odtn_trace_test.txt").string();
  save_trace_file(t, path);
  auto loaded = load_trace_file(path, 3);
  EXPECT_EQ(loaded.events(), t.events());
  std::remove(path.c_str());
}

TEST(TraceFile, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace_file("/nonexistent/odtn.txt", 3),
               std::runtime_error);
}

}  // namespace
}  // namespace odtn::trace
