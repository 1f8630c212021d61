#include "trace/trace_reader.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace odtn::trace {

namespace {

// getline leaves the '\r' of a CRLF line ending in place; strip it so
// Windows-authored trace files parse, and so string fields (e.g. the ONE
// report's "up"/"down") don't capture a stray carriage return.
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

// Only lines left blank once their comment is cut off are skipped; any
// other line parses or throws, so a malformed contact never vanishes.
bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\n\v\f\r") == std::string::npos;
}

}  // namespace

TraceFormat parse_trace_format(const std::string& name) {
  if (name == "plain") return TraceFormat::kPlain;
  if (name == "crawdad") return TraceFormat::kCrawdad;
  if (name == "one") return TraceFormat::kOneReport;
  throw std::invalid_argument("unknown trace format '" + name +
                              "' (expected plain, crawdad or one)");
}

bool PlainTraceReader::next_record(TraceRecord& out) {
  while (std::getline(*in_, line_)) {
    ++line_no_;
    strip_cr(line_);
    auto hash = line_.find('#');
    if (hash != std::string::npos) line_.resize(hash);
    if (blank(line_)) continue;
    std::istringstream ls(line_);
    double t;
    long a, b;
    if (!(ls >> t >> a >> b)) {
      throw std::invalid_argument("line " + std::to_string(line_no_) +
                                  ": malformed contact (expected 'time a b')");
    }
    if (a < 0 || b < 0) {
      throw std::invalid_argument("line " + std::to_string(line_no_) +
                                  ": negative node id");
    }
    out = {t, static_cast<NodeId>(a), static_cast<NodeId>(b)};
    return true;
  }
  return false;
}

bool CrawdadTraceReader::next_record(TraceRecord& out) {
  while (std::getline(*in_, line_)) {
    ++line_no_;
    strip_cr(line_);
    auto hash = line_.find('#');
    if (hash != std::string::npos) line_.resize(hash);
    if (blank(line_)) continue;
    std::istringstream ls(line_);
    long id1, id2;
    double start, end;
    if (!(ls >> id1 >> id2 >> start >> end)) {
      throw std::invalid_argument(
          "line " + std::to_string(line_no_) +
          ": malformed contact (expected 'id1 id2 start end')");
    }
    if (id1 < 1 || id2 < 1) {
      throw std::invalid_argument("line " + std::to_string(line_no_) +
                                  ": crawdad ids are 1-based");
    }
    if (end < start) {
      throw std::invalid_argument("line " + std::to_string(line_no_) +
                                  ": contact end < start");
    }
    // Drop external/stationary devices, as the paper does.
    if (static_cast<std::size_t>(id1) > node_count_ ||
        static_cast<std::size_t>(id2) > node_count_) {
      continue;
    }
    if (id1 == id2) continue;
    out = {start, static_cast<NodeId>(id1 - 1), static_cast<NodeId>(id2 - 1)};
    return true;
  }
  return false;
}

bool OneReportTraceReader::next_record(TraceRecord& out) {
  while (std::getline(*in_, line_)) {
    ++line_no_;
    strip_cr(line_);
    auto hash = line_.find('#');
    if (hash != std::string::npos) line_.resize(hash);
    std::istringstream ls(line_);
    double t;
    std::string tag;
    if (!(ls >> t >> tag)) continue;  // blank or non-report line
    if (tag != "CONN") continue;
    long a, b;
    std::string state;
    if (!(ls >> a >> b >> state)) {
      throw std::invalid_argument("line " + std::to_string(line_no_) +
                                  ": malformed CONN event");
    }
    if (state != "up" && state != "down") {
      throw std::invalid_argument("line " + std::to_string(line_no_) +
                                  ": CONN state must be up or down");
    }
    if (state != "up") continue;
    if (a < 0 || b < 0) {
      throw std::invalid_argument("line " + std::to_string(line_no_) +
                                  ": negative node id");
    }
    if (static_cast<std::size_t>(a) >= node_count_ ||
        static_cast<std::size_t>(b) >= node_count_ || a == b) {
      continue;
    }
    out = {t, static_cast<NodeId>(a), static_cast<NodeId>(b)};
    return true;
  }
  return false;
}

std::unique_ptr<TraceReader> make_trace_reader(std::istream& in,
                                               TraceFormat format,
                                               std::size_t node_count) {
  switch (format) {
    case TraceFormat::kPlain:
      return std::make_unique<PlainTraceReader>(in);
    case TraceFormat::kCrawdad:
      return std::make_unique<CrawdadTraceReader>(in, node_count);
    case TraceFormat::kOneReport:
      return std::make_unique<OneReportTraceReader>(in, node_count);
  }
  throw std::invalid_argument("make_trace_reader: unknown format");
}

namespace {

/// A TraceReader that owns its file stream.
class OwningFileReader final : public TraceReader {
 public:
  OwningFileReader(std::ifstream in, TraceFormat format, std::size_t node_count)
      : in_(std::move(in)), reader_(make_trace_reader(in_, format, node_count)) {}
  bool next_record(TraceRecord& out) override {
    return reader_->next_record(out);
  }

 private:
  std::ifstream in_;
  std::unique_ptr<TraceReader> reader_;
};

}  // namespace

std::unique_ptr<TraceReader> open_trace_reader(const std::string& path,
                                               TraceFormat format,
                                               std::size_t node_count) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("open_trace_reader: cannot open " + path);
  }
  return std::make_unique<OwningFileReader>(std::move(in), format, node_count);
}

SparseTraceSummary ingest_sparse_trace(TraceReader& reader,
                                       std::size_t node_count,
                                       Time max_idle_gap) {
  if (node_count < 2) {
    throw std::invalid_argument("ContactTrace: need >= 2 nodes");
  }

  // Distinct-pair contact counts: the only state proportional to trace
  // content, and it grows with the contact *graph* (pairs that ever meet),
  // not with the event count or file size.
  std::unordered_map<std::uint64_t, std::uint64_t> counts;

  SparseTraceSummary s;
  s.node_count = node_count;

  TraceRecord rec;
  bool any = false;
  Time prev = 0.0;
  Time lo = 0.0, hi = 0.0;
  Time active = 0.0;
  while (reader.next_record(rec)) {
    if (rec.a >= node_count || rec.b >= node_count) {
      throw std::invalid_argument("ContactTrace: event references unknown node");
    }
    if (rec.a == rec.b) {
      throw std::invalid_argument("ContactTrace: self-contact event");
    }
    if (!std::isfinite(rec.time)) {
      throw std::invalid_argument("ContactTrace: non-finite event time");
    }
    if (!any) {
      any = true;
      lo = hi = rec.time;
    } else {
      if (max_idle_gap > 0.0) {
        if (rec.time < prev) {
          throw std::invalid_argument(
              "ingest_sparse_trace: active-time training requires a "
              "time-sorted trace");
        }
        // Same per-gap accumulation order as ContactTrace::active_duration
        // over the (already sorted) event sequence.
        active += std::min(rec.time - prev, max_idle_gap);
      }
      lo = std::min(lo, rec.time);
      hi = std::max(hi, rec.time);
    }
    prev = rec.time;
    ++s.event_count;
    const NodeId pa = std::min(rec.a, rec.b);
    const NodeId pb = std::max(rec.a, rec.b);
    ++counts[(static_cast<std::uint64_t>(pa) << 32) | pb];
  }

  if (any) {
    s.start_time = lo;
    s.end_time = hi;
  }
  if (s.event_count >= 2 && max_idle_gap > 0.0) s.active_duration = active;

  graph::SparseContactGraph::Builder b(node_count);
  const double wall = s.end_time - s.start_time;
  if (wall > 0.0) {
    // Two-step arithmetic (count/wall, then * wall/active) reproduces
    // estimate_rates_active's values bit-for-bit; single-step count/active
    // would round differently.
    const bool rescale = max_idle_gap > 0.0 && s.active_duration > 0.0;
    const double factor = rescale ? wall / s.active_duration : 1.0;
    // odtn-lint: allow(unordered-iter) — each distinct pair adds one edge
    // with its own independently computed rate, and the CSR Builder sorts
    // adjacency by id before building, so insertion order cannot reach the
    // final structure.
    for (const auto& [key, count] : counts) {
      const NodeId i = static_cast<NodeId>(key >> 32);
      const NodeId j = static_cast<NodeId>(key & 0xffffffffu);
      double r = static_cast<double>(count) / wall;
      if (rescale) r *= factor;
      b.add_edge(i, j, r);
    }
  }
  s.rates = std::move(b).build();
  return s;
}

SparseTraceSummary ingest_sparse_trace_file(const std::string& path,
                                            TraceFormat format,
                                            std::size_t node_count,
                                            Time max_idle_gap) {
  auto reader = open_trace_reader(path, format, node_count);
  try {
    return ingest_sparse_trace(*reader, node_count, max_idle_gap);
  } catch (const std::invalid_argument& e) {
    // Re-point the parser's "line N: ..." diagnostic at the file it came
    // from, giving callers a one-line file:line message.
    throw std::invalid_argument(path + ": " + e.what());
  }
}

}  // namespace odtn::trace
