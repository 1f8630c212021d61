#include "trace/trace_reader.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace odtn::trace {

namespace {

[[noreturn]] void malformed(std::size_t line_no, const char* what) {
  throw std::invalid_argument("line " + std::to_string(line_no) + ": " +
                              what);
}

// The per-format line parsers. Each reads one line that is not blank once
// its comment is cut off, and either fills `out` (true), skips the line
// (false) or throws its diagnostic.

bool plain_line(std::istringstream& ls, std::size_t line_no,
                ContactEvent& out) {
  double t;
  long a, b;
  if (!(ls >> t >> a >> b)) {
    malformed(line_no, "malformed contact (expected 'time a b')");
  }
  if (a < 0 || b < 0) malformed(line_no, "negative node id");
  out = {t, static_cast<NodeId>(a), static_cast<NodeId>(b)};
  return true;
}

bool crawdad_line(std::istringstream& ls, std::size_t node_count,
                  std::size_t line_no, ContactEvent& out) {
  long id1, id2;
  double start, end;
  if (!(ls >> id1 >> id2 >> start >> end)) {
    malformed(line_no, "malformed contact (expected 'id1 id2 start end')");
  }
  if (id1 < 1 || id2 < 1) malformed(line_no, "crawdad ids are 1-based");
  if (end < start) malformed(line_no, "contact end < start");
  // Drop external/stationary devices, as the paper does, and self-contacts.
  if (static_cast<std::size_t>(id1) > node_count ||
      static_cast<std::size_t>(id2) > node_count || id1 == id2) {
    return false;
  }
  out = {start, static_cast<NodeId>(id1 - 1), static_cast<NodeId>(id2 - 1)};
  return true;
}

bool one_report_line(std::istringstream& ls, std::size_t node_count,
                     std::size_t line_no, ContactEvent& out) {
  double t;
  std::string tag;
  if (!(ls >> t >> tag) || tag != "CONN") return false;  // non-report line
  long a, b;
  std::string state;
  if (!(ls >> a >> b >> state)) malformed(line_no, "malformed CONN event");
  if (state != "up" && state != "down") {
    malformed(line_no, "CONN state must be up or down");
  }
  if (state != "up") return false;
  if (a < 0 || b < 0) malformed(line_no, "negative node id");
  if (static_cast<std::size_t>(a) >= node_count ||
      static_cast<std::size_t>(b) >= node_count || a == b) {
    return false;
  }
  out = {t, static_cast<NodeId>(a), static_cast<NodeId>(b)};
  return true;
}

}  // namespace

TraceFormat parse_trace_format(const std::string& name) {
  if (name == "plain") return TraceFormat::kPlain;
  if (name == "crawdad") return TraceFormat::kCrawdad;
  if (name == "one") return TraceFormat::kOneReport;
  throw std::invalid_argument("unknown trace format '" + name +
                              "' (expected plain, crawdad or one)");
}

TraceReader::TraceReader(std::istream& in, TraceFormat format,
                         std::size_t node_count)
    : in_(&in), format_(format), node_count_(node_count) {}

TraceReader::TraceReader(const std::string& path, TraceFormat format,
                         std::size_t node_count)
    : file_(path), in_(&file_), format_(format), node_count_(node_count) {
  if (!file_) {
    throw std::runtime_error("open_trace_reader: cannot open " + path);
  }
}

bool TraceReader::next(ContactEvent& out) {
  while (std::getline(*in_, line_)) {
    ++line_no_;
    // getline leaves the '\r' of a CRLF line ending in place; strip it so
    // Windows-authored files parse and the ONE report's "up"/"down" field
    // does not capture it.
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    line_.resize(std::min(line_.size(), line_.find('#')));
    // Only lines left blank once their comment is cut off are skipped; any
    // other line parses or throws, so a malformed contact never vanishes.
    if (line_.find_first_not_of(" \t\n\v\f\r") == std::string::npos) continue;
    std::istringstream ls(line_);
    const bool event =
        format_ == TraceFormat::kPlain ? plain_line(ls, line_no_, out)
        : format_ == TraceFormat::kCrawdad
            ? crawdad_line(ls, node_count_, line_no_, out)
            : one_report_line(ls, node_count_, line_no_, out);
    if (event) return true;
  }
  return false;
}

}  // namespace odtn::trace
