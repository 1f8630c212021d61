// Robustness: the trace and graph parsers must either parse or throw
// std::invalid_argument — never crash or accept garbage silently.
#include <gtest/gtest.h>

#include <string>

#include "graph/graph_io.hpp"
#include "trace/contact_trace.hpp"
#include "util/rng.hpp"
#include "support/trace_text.hpp"

namespace odtn::trace {
namespace {

using test_support::read_trace;

std::string random_text(util::Rng& rng, std::size_t max_len) {
  static const char alphabet[] =
      "0123456789 .-\n\t#abcdefghijklmnop\xff\x80";
  std::string s;
  std::size_t len = rng.below(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
  }
  return s;
}

TEST(ParserFuzz, TraceParserNeverCrashes) {
  util::Rng rng(1);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = random_text(rng, 120);
    try {
      auto t = read_trace(TraceFormat::kPlain, text, 10);
      (void)t;
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed + rejected, 0);
}

TEST(ParserFuzz, CrawdadParserNeverCrashes) {
  util::Rng rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = random_text(rng, 120);
    try {
      auto t = read_trace(TraceFormat::kCrawdad, text, 12);
      (void)t;
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(ParserFuzz, GraphParserNeverCrashes) {
  util::Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = "odtn-graph 1 5\n" + random_text(rng, 100);
    try {
      auto g = graph::parse_graph(text);
      (void)g;
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
      // set_rate range errors surface as out_of_range; acceptable rejection.
    }
  }
}

TEST(ParserFuzz, RoundTripStableUnderRandomValidTraces) {
  util::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<ContactEvent> events;
    std::size_t n = 3 + rng.below(8);
    std::size_t count = rng.below(50);
    for (std::size_t i = 0; i < count; ++i) {
      NodeId a = static_cast<NodeId>(rng.below(n));
      NodeId b = static_cast<NodeId>(rng.below(n - 1));
      if (b >= a) ++b;
      events.push_back({rng.uniform(0.0, 1e6), a, b});
    }
    ContactTrace t(n, std::move(events));
    auto t2 = read_trace(TraceFormat::kPlain, format_trace(t), n);
    ASSERT_EQ(t2.event_count(), t.event_count());
    for (std::size_t i = 0; i < t.event_count(); ++i) {
      EXPECT_EQ(t2.events()[i].a, t.events()[i].a);
      EXPECT_EQ(t2.events()[i].b, t.events()[i].b);
      EXPECT_NEAR(t2.events()[i].time, t.events()[i].time,
                  1e-6 * (1.0 + t.events()[i].time));
    }
  }
}

}  // namespace
}  // namespace odtn::trace
