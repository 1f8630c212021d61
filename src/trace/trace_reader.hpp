// Streaming trace reader: one reader for the three text formats.
//
// TraceReader pulls one ContactEvent at a time off a stream, so a trace is
// never held as a whole-file string. Its one line loop strips CRLF endings
// and '#' comments and skips blank lines; a per-format line parser does the
// rest: "line N: ..." diagnostics for malformed lines, and the skip rules
// (crawdad drops 1-based ids above node_count and self-contacts; the ONE
// reader drops non-CONN lines, "down" transitions, out-of-range ids and
// self-contacts; the plain reader drops nothing — range checking is its
// consumer's job). The rate training its events feed is in
// contact_trace.hpp.
#pragma once

#include <cstddef>
#include <fstream>
#include <istream>
#include <string>

#include "util/ids.hpp"

namespace odtn::trace {

/// One instantaneous contact between nodes a and b (the paper assumes
/// every contact lasts long enough to transfer a whole message).
struct ContactEvent {
  Time time;
  NodeId a;
  NodeId b;

  friend bool operator==(const ContactEvent&, const ContactEvent&) = default;
};

/// Trace file formats.
enum class TraceFormat {
  /// One event per line, `time a b`, whitespace-separated, ids 0-based
  /// (format_trace writes it; the CRAWDAD imote logs convert to it easily).
  kPlain,
  /// The CRAWDAD cambridge/haggle contact format: one *interval* per line,
  /// `id1 id2 start end [...extra columns ignored]`, ids 1-based as in the
  /// published dataset. Each interval becomes one contact event at its
  /// start time (the paper's model: a contact is long enough to transfer a
  /// whole message). Ids above node_count (the dataset's
  /// stationary/external devices) are skipped, mirroring the paper's
  /// preprocessing ("we only consider the contacts between mobile
  /// devices").
  kCrawdad,
  /// The ONE simulator's connection report: one line per link transition,
  /// `time CONN a b up|down` (ids 0-based). Each `up` transition becomes a
  /// contact event; `down` lines and other report lines are ignored, and
  /// ids >= node_count are skipped.
  kOneReport,
};

/// Parses `name` ("plain", "crawdad", "one"); throws std::invalid_argument
/// on anything else.
TraceFormat parse_trace_format(const std::string& name);

class TraceReader {
 public:
  /// Reads a caller-owned stream, which must outlive the reader.
  TraceReader(std::istream& in, TraceFormat format, std::size_t node_count);
  /// Opens and owns the file at `path`. Throws std::runtime_error
  /// ("open_trace_reader: cannot open <path>") on IO failure.
  TraceReader(const std::string& path, TraceFormat format,
              std::size_t node_count);
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Pulls the next contact event into `out`. Returns false at end of
  /// stream. Throws std::invalid_argument with a "line N: ..." diagnostic
  /// on malformed input.
  bool next(ContactEvent& out);

 private:
  std::ifstream file_;
  std::istream* in_;
  TraceFormat format_;
  std::size_t node_count_;
  std::string line_;
  std::size_t line_no_ = 0;
};

}  // namespace odtn::trace
