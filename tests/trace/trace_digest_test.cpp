// Pins what the trace pipeline produces, as FNV-1a digests: the events each
// reader format yields on fixed texts, the rates trained in memory from two
// synthetic traces, the summaries the streamed trainer emits for the same
// traces, and the text of every trace diagnostic. A refactor of src/trace
// must leave every digest unchanged; only the helpers below may change
// with the API they call.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "trace/contact_trace.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_reader.hpp"

namespace odtn::trace {
namespace {

struct Digest {
  std::uint64_t h = 1469598103934665603ULL;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void event(const ContactEvent& e) {
    f64(e.time);
    u64(e.a);
    u64(e.b);
  }
};

// --- The API-facing helpers. ---

// Every event one reader yields on `text`, in stream order.
std::vector<ContactEvent> read_all(const std::string& text, TraceFormat format,
                                   std::size_t node_count) {
  std::istringstream in(text);
  TraceReader reader(in, format, node_count);
  std::vector<ContactEvent> out;
  ContactEvent e;
  while (reader.next(e)) out.push_back(e);
  return out;
}

// In-memory training at `gap` (<= 0: wall clock): the rates of every pair
// i < j, then the duration they divide by.
void fold_trained(Digest& d, const ContactTrace& t, Time gap) {
  const SparseTraceSummary s = t.train(gap);
  const graph::ContactGraph g = graph::dense_from_sparse(s.rates);
  for (NodeId i = 0; i < t.node_count(); ++i) {
    for (NodeId j = i + 1; j < t.node_count(); ++j) d.f64(g.rate(i, j));
  }
  d.f64(s.active_duration);
}

// The duration a streamed summary's rates divide by: at gap <= 0, the
// wall-clock duration.
Time summary_duration(const SparseTraceSummary& s, Time) {
  return s.active_duration;
}

// Streams `events` straight into the trainer, bypassing every text reader.
SparseTraceSummary ingest_events(std::vector<ContactEvent> events,
                                 std::size_t node_count, Time gap) {
  RateTrainer trainer(node_count, gap);
  for (const ContactEvent& e : events) trainer.add(e);
  return std::move(trainer).finish();
}

// --- Fixed inputs. ---

const char* const kPlain =
    "# header\r\n"
    "\r\n"
    "10.5 0 1\r\n"
    "  # indented comment\n"
    "12 1 2 # inline\n"
    "\n"
    "\t \n"
    "15.25 2 0\r\n"
    "7 1 1\n"      // self-contact: the plain reader yields it
    "3e2 3 9\n"    // any id: the plain reader does no range check
    "0.1 0 2";     // no final newline

const char* const kCrawdad =
    "# crawdad header\r\n"
    "1 2 100 250 7 42\r\n"
    "\r\n"
    "1 9 10 20\n"  // external id for n = 4: dropped
    "5 2 30 40\n"  // external id: dropped
    "3 3 50 60\n"  // self-contact: dropped
    "4 1 5 5 # inline\n"
    "2 4 300.5 301\r\n"
    "3 2 0.25 1\n";

const char* const kOne =
    "# ONE report\r\n"
    "10.0 CONN 0 1 up\r\n"
    "12.0 CONN 0 1 down\n"   // down: dropped
    "13.0 HELLO 0 1 up\n"    // non-CONN: dropped
    "14.0 CONN 2 5 up\n"     // out of range for n = 4: dropped
    "14.5 CONN 2 2 up\n"     // self-contact: dropped
    "\n"
    "   \n"
    "15.0 CONN 1 3 up # note\r\n"
    "16 CONN 3 1 down\r\n"
    "not a report line\n"
    "20 CONN 3 0 up\n";

std::string error_of(const std::function<void()>& body) {
  try {
    body();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(TraceDigest, ReaderRecordsPinned) {
  Digest d;
  for (const auto& [text, format] :
       {std::pair{kPlain, TraceFormat::kPlain},
        std::pair{kCrawdad, TraceFormat::kCrawdad},
        std::pair{kOne, TraceFormat::kOneReport}}) {
    const std::vector<ContactEvent> events = read_all(text, format, 4);
    d.u64(events.size());
    for (const ContactEvent& e : events) d.event(e);
  }
  EXPECT_EQ(d.h, 11670161040717257473ULL) << "digest " << d.h;
}

TEST(TraceDigest, TrainedRatesPinned) {
  Digest d;
  for (const ContactTrace& t : {make_cambridge_like(17), make_infocom_like(5)}) {
    d.u64(t.event_count());
    d.f64(t.start_time());
    d.f64(t.end_time());
    for (Time gap : {0.0, 1800.0}) fold_trained(d, t, gap);
  }
  EXPECT_EQ(d.h, 6609841369039487593ULL) << "digest " << d.h;
}

TEST(TraceDigest, StreamedSummariesPinned) {
  Digest d;
  for (const ContactTrace& t : {make_cambridge_like(17), make_infocom_like(5)}) {
    for (Time gap : {0.0, 1800.0}) {
      std::istringstream in(format_trace(t));
      TraceReader reader(in, TraceFormat::kPlain, t.node_count());
      const SparseTraceSummary s =
          ingest_sparse_trace(reader, t.node_count(), gap);
      d.u64(s.node_count);
      d.u64(s.event_count);
      d.f64(s.start_time);
      d.f64(s.end_time);
      d.f64(summary_duration(s, gap));
      for (NodeId i = 0; i < s.node_count; ++i) {
        for (NodeId j : s.rates.neighbor_ids(i)) d.u64(j);
        for (double r : s.rates.neighbor_rates(i)) d.f64(r);
      }
    }
  }
  EXPECT_EQ(d.h, 14889782183810380362ULL) << "digest " << d.h;
}

TEST(TraceDigest, DiagnosticsPinned) {
  std::vector<std::string> errors;
  const auto parse = [&](TraceFormat format, const char* text) {
    errors.push_back(error_of([&] { read_all(text, format, 4); }));
  };
  parse(TraceFormat::kPlain, "10 0\n");
  parse(TraceFormat::kPlain, "5 0 1\n7 -1 2\n");
  parse(TraceFormat::kPlain, "10 0 1\nx 0 1\n");
  parse(TraceFormat::kPlain, "10 0 1\nnan 0 1\n");
  parse(TraceFormat::kCrawdad, "1 2 10\n");
  parse(TraceFormat::kCrawdad, "# c\n0 2 10 20\n");
  parse(TraceFormat::kCrawdad, "1 2 30 20\n");
  parse(TraceFormat::kOneReport, "1.0 CONN 0 up\n");
  parse(TraceFormat::kOneReport, "1.0 CONN 0 1 sideways\n");
  parse(TraceFormat::kOneReport, "\n1.0 CONN -1 1 up\n");

  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  const Time inf = std::numeric_limits<Time>::infinity();
  const std::vector<std::vector<ContactEvent>> bad_events = {
      {{1.0, 0, 3}}, {{1.0, 2, 2}}, {{1.0, 0, 1}, {nan, 1, 2}},
      {{1.0, 0, 1}, {inf, 1, 2}}, {{1.0, 0, 1}, {-inf, 1, 2}}};
  errors.push_back(error_of([] { ContactTrace(1, {}); }));
  for (const auto& events : bad_events) {
    errors.push_back(error_of([&] { ContactTrace(3, events); }));
    for (Time gap : {0.0, 100.0}) {
      errors.push_back(error_of([&] { ingest_events(events, 3, gap); }));
    }
  }
  errors.push_back(error_of([] { ingest_events({}, 1, 0.0); }));
  errors.push_back(
      error_of([] { ingest_events({{10, 0, 1}, {5, 1, 2}}, 3, 100.0); }));

  errors.push_back(
      error_of([] { load_trace_file("/nonexistent/odtn-pin.txt", 3); }));
  errors.push_back(error_of([] {
    ingest_sparse_trace_file("/nonexistent/odtn-pin.txt", TraceFormat::kPlain,
                             3, 0.0);
  }));
  // File diagnostics name the file: fold the text after the path.
  const std::string path =
      (std::filesystem::temp_directory_path() / "odtn_trace_digest.txt")
          .string();
  {
    std::ofstream out(path);
    out << "10 0 1\n20 1\n";
  }
  for (const std::string& e :
       {error_of([&] { load_trace_file(path, 3); }),
        error_of([&] {
          ingest_sparse_trace_file(path, TraceFormat::kPlain, 3, 0.0);
        }),
        error_of([&] {
          ingest_sparse_trace_file(path, TraceFormat::kCrawdad, 3, 0.0);
        })}) {
    ASSERT_EQ(e.compare(0, path.size(), path), 0) << e;
    errors.push_back(e.substr(path.size()));
  }
  std::filesystem::remove(path);

  Digest d;
  for (const std::string& e : errors) d.str(e);
  EXPECT_EQ(d.h, 4656861600480845044ULL) << "digest " << d.h;
}

}  // namespace
}  // namespace odtn::trace
