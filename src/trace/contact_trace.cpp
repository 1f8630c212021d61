#include "trace/contact_trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "trace/trace_reader.hpp"

namespace odtn::trace {

namespace {

// The in-memory parsers are thin wrappers over the streaming readers
// (trace_reader.hpp): drain the reader into a vector, hand it to the
// ContactTrace constructor. All format quirks, skip rules and "line N: ..."
// diagnostics live in one place — the readers.
std::vector<ContactEvent> drain(TraceReader& reader) {
  std::vector<ContactEvent> events;
  TraceRecord rec;
  while (reader.next_record(rec)) {
    events.push_back({rec.time, rec.a, rec.b});
  }
  return events;
}

// Stable sort by time of events whose times lie in [lo, hi]. The result
// equals std::stable_sort's element for element: a stable counting sort
// into ~E/2 time buckets, then a stable insertion sort inside each bucket.
// The bucket index is monotone in time, so events in different buckets are
// already in order. A bucket above kMaxInsertion events is handed to
// std::stable_sort, so no input costs more than O(E log E).
void sort_by_time(std::vector<ContactEvent>& events, Time lo, Time hi) {
  constexpr std::size_t kMaxInsertion = 32;
  const auto by_time = [](const ContactEvent& x, const ContactEvent& y) {
    return x.time < y.time;
  };
  const std::size_t buckets = std::max<std::size_t>(1, events.size() / 2);
  const double span = hi - lo;
  const double scale = static_cast<double>(buckets) / span;
  if (!std::isfinite(span) || !std::isfinite(scale)) {
    std::stable_sort(events.begin(), events.end(), by_time);
    return;
  }
  // t <= hi gives t - lo <= span after rounding, so the product is finite.
  const auto bucket_of = [&](Time t) {
    return std::min(buckets - 1, static_cast<std::size_t>((t - lo) * scale));
  };
  // end[b] counts bucket b - 1, then holds bucket b's first slot, and after
  // the scatter bucket b's end.
  std::vector<std::size_t> end(buckets + 1, 0);
  for (const ContactEvent& e : events) ++end[bucket_of(e.time) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) end[b] += end[b - 1];
  std::vector<ContactEvent> out(events.size());
  for (const ContactEvent& e : events) out[end[bucket_of(e.time)]++] = e;

  std::size_t begin = 0;
  for (std::size_t b = 0; b < buckets; begin = end[b++]) {
    if (end[b] - begin > kMaxInsertion) {
      std::stable_sort(out.begin() + begin, out.begin() + end[b], by_time);
      continue;
    }
    for (std::size_t i = begin + 1; i < end[b]; ++i) {
      const ContactEvent e = out[i];
      std::size_t k = i;
      for (; k > begin && e.time < out[k - 1].time; --k) out[k] = out[k - 1];
      out[k] = e;
    }
  }
  events.swap(out);
}

}  // namespace

ContactTrace::ContactTrace(std::size_t node_count,
                           std::vector<ContactEvent> events)
    : node_count_(node_count), events_(std::move(events)) {
  if (node_count < 2) {
    throw std::invalid_argument("ContactTrace: need >= 2 nodes");
  }
  // One pass validates every event and finds the time range and whether
  // the input is already in order (parsed real traces usually are). Keep
  // the checks in step with ingest_sparse_trace's.
  bool sorted = true;
  Time lo = events_.empty() ? 0.0 : events_.front().time;
  Time hi = lo;
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const ContactEvent& e = events_[k];
    if (e.a >= node_count || e.b >= node_count) {
      throw std::invalid_argument("ContactTrace: event references unknown node");
    }
    if (e.a == e.b) {
      throw std::invalid_argument("ContactTrace: self-contact event");
    }
    if (!std::isfinite(e.time)) {
      throw std::invalid_argument("ContactTrace: non-finite event time");
    }
    if (k > 0 && e.time < events_[k - 1].time) sorted = false;
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
  }
  if (!sorted) sort_by_time(events_, lo, hi);
}

Time ContactTrace::start_time() const {
  return events_.empty() ? 0.0 : events_.front().time;
}

Time ContactTrace::end_time() const {
  return events_.empty() ? 0.0 : events_.back().time;
}

Time ContactTrace::active_duration(Time max_idle_gap) const {
  if (!(max_idle_gap > 0.0)) {
    throw std::invalid_argument("active_duration: max_idle_gap must be > 0");
  }
  if (events_.size() < 2) return 0.0;
  Time active = 0.0;
  for (std::size_t i = 1; i < events_.size(); ++i) {
    active += std::min(events_[i].time - events_[i - 1].time, max_idle_gap);
  }
  return active;
}

graph::ContactGraph ContactTrace::estimate_rates_active(
    Time max_idle_gap) const {
  graph::ContactGraph g = estimate_rates();
  double wall = end_time() - start_time();
  double active = active_duration(max_idle_gap);
  if (wall <= 0.0 || active <= 0.0) return g;
  // Rescale wall-clock rates to active-time rates.
  double factor = wall / active;
  for (NodeId i = 0; i < node_count_; ++i) {
    for (NodeId j = i + 1; j < node_count_; ++j) {
      double r = g.rate(i, j);
      if (r > 0.0) g.set_rate(i, j, r * factor);
    }
  }
  return g;
}

graph::ContactGraph ContactTrace::estimate_rates() const {
  graph::ContactGraph g(node_count_);
  double duration = end_time() - start_time();
  if (duration <= 0.0) return g;
  // Count contacts per distinct pair. A hash map keyed on the (lo, hi) pair
  // keeps training memory proportional to the observed contact graph, not
  // O(n²) — real traces touch a tiny fraction of all pairs.
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (const auto& e : events_) {
    const NodeId lo = std::min(e.a, e.b);
    const NodeId hi = std::max(e.a, e.b);
    ++counts[(static_cast<std::uint64_t>(lo) << 32) | hi];
  }
  // odtn-lint: allow(unordered-iter) — each distinct pair writes its own
  // dense-matrix slot exactly once; no fold, RNG, or export order involved.
  for (const auto& [key, count] : counts) {
    const NodeId i = static_cast<NodeId>(key >> 32);
    const NodeId j = static_cast<NodeId>(key & 0xffffffffu);
    g.set_rate(i, j, static_cast<double>(count) / duration);
  }
  return g;
}

ContactTrace parse_trace(const std::string& text, std::size_t node_count) {
  std::istringstream is(text);
  PlainTraceReader reader(is);
  return ContactTrace(node_count, drain(reader));
}

ContactTrace parse_crawdad_trace(const std::string& text,
                                 std::size_t node_count) {
  std::istringstream is(text);
  CrawdadTraceReader reader(is, node_count);
  return ContactTrace(node_count, drain(reader));
}

ContactTrace parse_one_report(const std::string& text,
                              std::size_t node_count) {
  std::istringstream is(text);
  OneReportTraceReader reader(is, node_count);
  return ContactTrace(node_count, drain(reader));
}

ContactTrace load_trace_file(const std::string& path, std::size_t node_count) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace_file: cannot open " + path);
  // Stream straight off disk — no whole-file string buffer.
  PlainTraceReader reader(in);
  try {
    return ContactTrace(node_count, drain(reader));
  } catch (const std::invalid_argument& e) {
    // Re-point the parser's "line N: ..." diagnostic at the file it came
    // from, giving callers a one-line file:line message.
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::string format_trace(const ContactTrace& trace) {
  std::ostringstream os;
  os.precision(17);  // lossless double round-trip
  os << "# odtn contact trace: nodes=" << trace.node_count()
     << " events=" << trace.event_count() << "\n";
  for (const auto& e : trace.events()) {
    os << e.time << ' ' << e.a << ' ' << e.b << '\n';
  }
  return os.str();
}

void save_trace_file(const ContactTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace_file: cannot open " + path);
  out << format_trace(trace);
}

}  // namespace odtn::trace
