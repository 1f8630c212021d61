// Streaming-vs-in-memory trace parity: the reader must see exactly the
// records the in-memory parsers materialize (same skip rules, same
// diagnostics), and one-pass sparse ingestion must train rates bitwise
// equal to ContactTrace::train on the same input.
#include "trace/trace_reader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "trace/contact_trace.hpp"
#include "trace/synthetic.hpp"
#include "support/trace_text.hpp"

namespace odtn::trace {
namespace {

using test_support::read_trace;

std::vector<ContactEvent> drain(TraceReader& reader) {
  std::vector<ContactEvent> out;
  ContactEvent rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

TEST(TraceReader, PlainMatchesParserWithCommentsAndCrlf) {
  // CRLF line endings, comments, blank lines and trailing junk-free floats.
  std::string text =
      "# header comment\r\n"
      "\r\n"
      "10.5 0 1\r\n"
      "  # indented comment\n"
      "12 1 2\n"
      "\n"
      "15.25 0 2\r\n";
  std::istringstream in(text);
  TraceReader reader(in, TraceFormat::kPlain, 3);
  auto records = drain(reader);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].time, 10.5);
  EXPECT_EQ(records[0].a, 0u);
  EXPECT_EQ(records[0].b, 1u);
  EXPECT_EQ(records[2].time, 15.25);

  auto trace = read_trace(TraceFormat::kPlain, text, 3);
  ASSERT_EQ(trace.event_count(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(trace.events()[k].time, records[k].time);
    EXPECT_EQ(trace.events()[k].a, records[k].a);
    EXPECT_EQ(trace.events()[k].b, records[k].b);
  }
}

TEST(TraceReader, PlainDiagnosticsMatchLegacy) {
  {
    std::istringstream in("10 0\n");
    TraceReader reader(in, TraceFormat::kPlain, 3);
    ContactEvent rec;
    try {
      reader.next(rec);
      FAIL() << "expected malformed-contact throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "line 1: malformed contact (expected 'time a b')");
    }
  }
  {
    std::istringstream in("5 0 1\n7 -1 2\n");
    TraceReader reader(in, TraceFormat::kPlain, 3);
    ContactEvent rec;
    ASSERT_TRUE(reader.next(rec));
    try {
      reader.next(rec);
      FAIL() << "expected negative-id throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "line 2: negative node id");
    }
  }
}

TEST(TraceReader, CrawdadSkipsExternalIdsAndSelfContacts) {
  // 1-based ids; id 4 is external for node_count = 3; interval expands to
  // two endpoint events in the legacy parser — the reader must agree.
  std::string text =
      "1 2 100 200\n"
      "1 4 100 200\n"  // external device: dropped
      "2 2 100 200\n"  // self-contact: dropped
      "3 1 50 60\n";
  std::istringstream sin(text);
  TraceReader reader(sin, TraceFormat::kCrawdad, 3);
  auto records = drain(reader);

  auto trace = read_trace(TraceFormat::kCrawdad, text, 3);
  ASSERT_EQ(records.size(), trace.event_count());
  // ContactTrace sorts; compare as multisets via sorted copies.
  std::vector<ContactEvent> sorted = records;
  std::sort(sorted.begin(), sorted.end(), [](const auto& x, const auto& y) {
    return x.time < y.time;
  });
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    EXPECT_EQ(trace.events()[k].time, sorted[k].time);
  }

  std::istringstream bad("0 2 100 200\n");
  TraceReader breader(bad, TraceFormat::kCrawdad, 3);
  ContactEvent rec;
  try {
    breader.next(rec);
    FAIL() << "expected 1-based-id throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "line 1: crawdad ids are 1-based");
  }
}

TEST(TraceReader, OneReportKeepsUpTransitionsOnly) {
  std::string text =
      "10.0 CONN 0 1 up\n"
      "12.0 CONN 0 1 down\n"
      "13.0 HELLO 0 1 up\n"  // non-CONN: dropped
      "14.0 CONN 2 5 up\n"   // out-of-range id for n=3: dropped
      "15.0 CONN 1 2 up\n";
  std::istringstream sin(text);
  TraceReader reader(sin, TraceFormat::kOneReport, 3);
  auto records = drain(reader);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].time, 10.0);
  EXPECT_EQ(records[1].time, 15.0);

  auto trace = read_trace(TraceFormat::kOneReport, text, 3);
  ASSERT_EQ(trace.event_count(), 2u);

  std::istringstream bad("10 CONN 0 1 sideways\n");
  TraceReader breader(bad, TraceFormat::kOneReport, 3);
  ContactEvent rec;
  try {
    breader.next(rec);
    FAIL() << "expected CONN-state throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "line 1: CONN state must be up or down");
  }
}

TEST(TraceReader, ParseTraceFormatNames) {
  EXPECT_EQ(parse_trace_format("plain"), TraceFormat::kPlain);
  EXPECT_EQ(parse_trace_format("crawdad"), TraceFormat::kCrawdad);
  EXPECT_EQ(parse_trace_format("one"), TraceFormat::kOneReport);
  EXPECT_THROW(parse_trace_format("csv"), std::invalid_argument);
}

TEST(SparseIngest, RatesBitwiseEqualActiveTraining) {
  // A realistic synthetic trace: the streamed one-pass rates must equal the
  // in-memory active-time estimator bit for bit.
  auto trace = make_cambridge_like(17);
  std::string text = format_trace(trace);
  const Time gap = 1800.0;

  std::istringstream in(text);
  TraceReader reader(in, TraceFormat::kPlain, trace.node_count());
  auto summary = ingest_sparse_trace(reader, trace.node_count(), gap);

  auto trained = trace.train(gap);
  auto dense = graph::dense_from_sparse(trained.rates);
  EXPECT_EQ(summary.node_count, trace.node_count());
  EXPECT_EQ(summary.event_count, trace.event_count());
  EXPECT_EQ(summary.start_time, trace.start_time());
  EXPECT_EQ(summary.end_time, trace.end_time());
  EXPECT_EQ(summary.active_duration, trained.active_duration);
  for (NodeId i = 0; i < trace.node_count(); ++i) {
    for (NodeId j = i + 1; j < trace.node_count(); ++j) {
      EXPECT_EQ(summary.rates.rate(i, j), dense.rate(i, j));
    }
  }
}

TEST(SparseIngest, WallClockRatesWhenGapDisabled) {
  auto trace = make_cambridge_like(23);
  std::string text = format_trace(trace);

  std::istringstream in(text);
  TraceReader reader(in, TraceFormat::kPlain, trace.node_count());
  auto summary = ingest_sparse_trace(reader, trace.node_count(), 0.0);

  auto dense = graph::dense_from_sparse(trace.train(0.0).rates);
  for (NodeId i = 0; i < trace.node_count(); ++i) {
    for (NodeId j = i + 1; j < trace.node_count(); ++j) {
      EXPECT_EQ(summary.rates.rate(i, j), dense.rate(i, j));
    }
  }
}

TEST(SparseIngest, ValidationMatchesContactTrace) {
  {
    std::istringstream in("5 0 7\n");
    TraceReader reader(in, TraceFormat::kPlain, 3);
    try {
      ingest_sparse_trace(reader, 3, 0.0);
      FAIL() << "expected unknown-node throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "ContactTrace: event references unknown node");
    }
  }
  {
    std::istringstream in("5 1 1\n");
    TraceReader reader(in, TraceFormat::kPlain, 3);
    try {
      ingest_sparse_trace(reader, 3, 0.0);
      FAIL() << "expected self-contact throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "ContactTrace: self-contact event");
    }
  }
  {
    // Active-time training needs sorted input; wall-clock mode does not.
    std::istringstream in("10 0 1\n5 1 2\n");
    TraceReader reader(in, TraceFormat::kPlain, 3);
    EXPECT_THROW(ingest_sparse_trace(reader, 3, 100.0), std::invalid_argument);
  }
}

TEST(SparseIngest, NonFiniteTimeRejectedLikeContactTrace) {
  for (Time t : {std::numeric_limits<Time>::quiet_NaN(),
                 std::numeric_limits<Time>::infinity(),
                 -std::numeric_limits<Time>::infinity()}) {
    for (Time gap : {0.0, 100.0}) {
      // Fed to the trainer directly: no text reader yields these times.
      try {
        RateTrainer trainer(3, gap);
        for (const ContactEvent& e : {ContactEvent{1.0, 0, 1}, {t, 1, 2}}) {
          trainer.add(e);
        }
        FAIL() << "expected non-finite throw for time " << t;
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "ContactTrace: non-finite event time");
      }
    }
  }
}

TEST(SparseIngest, FileVariantPrefixesPath) {
  try {
    ingest_sparse_trace_file("/nonexistent/trace.txt", TraceFormat::kPlain, 3,
                             0.0);
    FAIL() << "expected open throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "open_trace_reader: cannot open /nonexistent/trace.txt");
  }
}

}  // namespace
}  // namespace odtn::trace
