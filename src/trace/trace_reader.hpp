// Streaming (pull-based) trace readers.
//
// The historical parsers slurped a whole trace file into one std::string
// and materialized every event before training, so peak memory was
// O(file size + events) — a dead end for multi-GB CRAWDAD logs. TraceReader
// is the redesigned ingestion surface: open a stream, pull one TraceRecord
// at a time, stop at eof. The in-memory parsers in contact_trace.hpp are now
// thin wrappers (read every record, hand the vector to ContactTrace), and
// the sparse ingest below consumes a reader in ONE bounded-memory pass,
// emitting the trained SparseContactGraph directly — memory proportional to
// the number of distinct contact *pairs*, never to file size or event count.
//
// Each concrete reader keeps its legacy parser's exact semantics: the same
// "line N: ..." diagnostics, the same skip rules (crawdad drops 1-based ids
// above node_count and self-contacts; the ONE reader drops non-CONN lines,
// "down" transitions and out-of-range ids; the plain reader skips nothing —
// range checking is its consumer's job), and the same comment/CRLF handling.
#pragma once

#include <cstddef>
#include <istream>
#include <memory>
#include <string>

#include "graph/sparse_contact_graph.hpp"
#include "util/ids.hpp"

namespace odtn::trace {

/// One contact event as read from a trace stream.
struct TraceRecord {
  Time time;
  NodeId a;
  NodeId b;
};

/// Trace file formats understood by the readers (see contact_trace.hpp for
/// the format descriptions).
enum class TraceFormat { kPlain, kCrawdad, kOneReport };

/// Parses `name` ("plain", "crawdad", "one"); throws std::invalid_argument
/// on anything else.
TraceFormat parse_trace_format(const std::string& name);

class TraceReader {
 public:
  virtual ~TraceReader() = default;

  /// Pulls the next contact event into `out`. Returns false at end of
  /// stream. Throws std::invalid_argument with a "line N: ..." diagnostic
  /// on malformed input (identical messages to the legacy parsers).
  virtual bool next_record(TraceRecord& out) = 0;
};

/// `time a b` lines; '#' comments; blank lines skipped, and any other line
/// that does not parse throws. Emits every parsed record (no range
/// filtering — ContactTrace / the ingester validate).
class PlainTraceReader final : public TraceReader {
 public:
  /// The stream must outlive the reader.
  explicit PlainTraceReader(std::istream& in) : in_(&in) {}
  bool next_record(TraceRecord& out) override;

 private:
  std::istream* in_;
  std::string line_;
  std::size_t line_no_ = 0;
};

/// CRAWDAD cambridge/haggle `id1 id2 start end` intervals, 1-based ids;
/// drops ids above node_count (external devices) and self-contacts. Blank
/// lines are skipped; any other line that does not parse throws.
class CrawdadTraceReader final : public TraceReader {
 public:
  CrawdadTraceReader(std::istream& in, std::size_t node_count)
      : in_(&in), node_count_(node_count) {}
  bool next_record(TraceRecord& out) override;

 private:
  std::istream* in_;
  std::size_t node_count_;
  std::string line_;
  std::size_t line_no_ = 0;
};

/// ONE simulator connection reports: `time CONN a b up|down`, 0-based ids;
/// emits "up" transitions, drops out-of-range ids and self-contacts.
class OneReportTraceReader final : public TraceReader {
 public:
  OneReportTraceReader(std::istream& in, std::size_t node_count)
      : in_(&in), node_count_(node_count) {}
  bool next_record(TraceRecord& out) override;

 private:
  std::istream* in_;
  std::size_t node_count_;
  std::string line_;
  std::size_t line_no_ = 0;
};

/// Reader over a caller-owned stream. The stream must outlive the reader.
std::unique_ptr<TraceReader> make_trace_reader(std::istream& in,
                                               TraceFormat format,
                                               std::size_t node_count);

/// Reader that owns the opened file. Throws std::runtime_error
/// ("open_trace_reader: cannot open <path>") on IO failure.
std::unique_ptr<TraceReader> open_trace_reader(const std::string& path,
                                               TraceFormat format,
                                               std::size_t node_count);

/// Result of one streaming training pass: the trace's envelope plus the
/// trained sparse contact-rate graph.
struct SparseTraceSummary {
  std::size_t node_count = 0;
  std::size_t event_count = 0;
  Time start_time = 0.0;
  Time end_time = 0.0;
  /// Wall-clock duration with silent gaps capped at max_idle_gap
  /// (== ContactTrace::active_duration); 0 when < 2 events or gap <= 0.
  Time active_duration = 0.0;
  graph::SparseContactGraph rates{2};  // replaced by ingest; min legal size
};

/// Trains contact rates in ONE pass over `reader`: counts contacts per
/// distinct pair in a hash map, tracks the time envelope, and emits the CSR
/// graph. With max_idle_gap > 0 the rates are active-time rescaled exactly
/// as ContactTrace::estimate_rates_active computes them (same two-step
/// count/wall * wall/active arithmetic, so the values are bit-identical);
/// with max_idle_gap <= 0 they are plain wall-clock MLE rates
/// (estimate_rates). Active-time training requires time-sorted input —
/// a decreasing timestamp throws std::invalid_argument.
///
/// Validation matches ContactTrace's constructor: node ids >= node_count
/// ("event references unknown node"), self-contacts ("self-contact
/// event") and NaN or infinite times ("non-finite event time") throw
/// std::invalid_argument.
SparseTraceSummary ingest_sparse_trace(TraceReader& reader,
                                       std::size_t node_count,
                                       Time max_idle_gap);

/// Convenience: open + ingest. IO errors throw std::runtime_error; parse
/// and validation errors are re-thrown as "<path>: <original message>".
SparseTraceSummary ingest_sparse_trace_file(const std::string& path,
                                            TraceFormat format,
                                            std::size_t node_count,
                                            Time max_idle_gap);

}  // namespace odtn::trace
