#include "trace/contact_trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace odtn::trace {

namespace {

// The one event check of the ContactTrace constructor and the trainer.
void check_event(const ContactEvent& e, std::size_t node_count) {
  if (e.a >= node_count || e.b >= node_count) {
    throw std::invalid_argument("ContactTrace: event references unknown node");
  }
  if (e.a == e.b) {
    throw std::invalid_argument("ContactTrace: self-contact event");
  }
  if (!std::isfinite(e.time)) {
    throw std::invalid_argument("ContactTrace: non-finite event time");
  }
}

// Returns `body()`, re-throwing its std::invalid_argument as "<path>:
// <message>": a reader's "line N: ..." diagnostic then names the file it
// came from in one line.
template <typename F>
auto rethrow_at_path(const std::string& path, F&& body) -> decltype(body()) {
  try {
    return body();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

// The in-memory parsers drain a TraceReader into a vector and hand it to
// the ContactTrace constructor: every format quirk, skip rule and "line N:
// ..." diagnostic lives in the reader.
ContactTrace drain(std::size_t node_count, TraceReader& reader) {
  std::vector<ContactEvent> events;
  ContactEvent e;
  while (reader.next(e)) events.push_back(e);
  return ContactTrace(node_count, std::move(events));
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
  // the input is already in order (parsed real traces usually are).
  bool sorted = true;
  Time lo = events_.empty() ? 0.0 : events_.front().time;
  Time hi = lo;
  for (std::size_t k = 0; k < events_.size(); ++k) {
    const ContactEvent& e = events_[k];
    check_event(e, node_count);
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

SparseTraceSummary ContactTrace::train(Time max_idle_gap) const {
  RateTrainer trainer(node_count_, max_idle_gap);
  for (const ContactEvent& e : events_) trainer.add(e);
  return std::move(trainer).finish();
}

RateTrainer::RateTrainer(std::size_t node_count, Time max_idle_gap)
    : node_count_(node_count), max_idle_gap_(max_idle_gap) {
  if (node_count < 2) {
    throw std::invalid_argument("ContactTrace: need >= 2 nodes");
  }
  if (std::isnan(max_idle_gap)) {
    throw std::invalid_argument("ContactTrace: training gap is NaN");
  }
}

void RateTrainer::add(const ContactEvent& e) {
  check_event(e, node_count_);
  if (event_count_ == 0) {
    lo_ = hi_ = e.time;
  } else {
    if (max_idle_gap_ > 0.0) {
      // Sorted input keeps hi_ the previous event's time.
      if (e.time < hi_) {
        throw std::invalid_argument(
            "ingest_sparse_trace: active-time training requires a "
            "time-sorted trace");
      }
      active_ += std::min(e.time - hi_, max_idle_gap_);
    }
    lo_ = std::min(lo_, e.time);
    hi_ = std::max(hi_, e.time);
  }
  ++event_count_;
  const NodeId lo = std::min(e.a, e.b);
  const NodeId hi = std::max(e.a, e.b);
  ++counts_[(static_cast<std::uint64_t>(lo) << 32) | hi];
}

SparseTraceSummary RateTrainer::finish() && {
  SparseTraceSummary s;
  s.node_count = node_count_;
  s.event_count = event_count_;
  s.start_time = lo_;
  s.end_time = hi_;
  const double wall = hi_ - lo_;
  s.active_duration = max_idle_gap_ > 0.0 ? active_ : wall;
  graph::SparseContactGraph::Builder b(node_count_);
  if (wall > 0.0) {
    // Active-time rates are the wall-clock rate count/wall times
    // wall/active, in that order.
    const double factor = max_idle_gap_ > 0.0 ? wall / active_ : 1.0;
    // odtn-lint: allow(unordered-iter) — each distinct pair adds one edge
    // with its own independently computed rate, and the CSR Builder sorts
    // adjacency by id before building, so insertion order cannot reach the
    // final structure.
    for (const auto& [key, count] : counts_) {
      const NodeId i = static_cast<NodeId>(key >> 32);
      const NodeId j = static_cast<NodeId>(key & 0xffffffffu);
      b.add_edge(i, j, static_cast<double>(count) / wall * factor);
    }
  }
  s.rates = std::move(b).build();
  return s;
}

SparseTraceSummary ingest_sparse_trace(TraceReader& reader,
                                       std::size_t node_count,
                                       Time max_idle_gap) {
  RateTrainer trainer(node_count, max_idle_gap);
  ContactEvent e;
  while (reader.next(e)) trainer.add(e);
  return std::move(trainer).finish();
}

SparseTraceSummary ingest_sparse_trace_file(const std::string& path,
                                            TraceFormat format,
                                            std::size_t node_count,
                                            Time max_idle_gap) {
  TraceReader reader(path, format, node_count);
  return rethrow_at_path(path, [&] {
    return ingest_sparse_trace(reader, node_count, max_idle_gap);
  });
}

ContactTrace load_trace_file(const std::string& path, std::size_t node_count) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace_file: cannot open " + path);
  // Stream straight off disk — no whole-file string buffer.
  TraceReader reader(in, TraceFormat::kPlain, node_count);
  return rethrow_at_path(path, [&] { return drain(node_count, reader); });
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
