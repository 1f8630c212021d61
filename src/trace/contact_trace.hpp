// Contact traces: recorded (or synthesized) pairwise contact events.
//
// The paper's real-trace experiments replay CRAWDAD cambridge/haggle
// contact logs. A trace here is a time-sorted list of instantaneous contact
// events (the paper assumes every contact lasts long enough to transfer a
// whole message).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/sparse_contact_graph.hpp"
#include "trace/trace_reader.hpp"
#include "util/ids.hpp"

namespace odtn::trace {

/// Result of one training pass: the trace's envelope plus the trained
/// sparse contact-rate graph.
struct SparseTraceSummary {
  std::size_t node_count = 0;
  std::size_t event_count = 0;
  Time start_time = 0.0;
  Time end_time = 0.0;
  /// The time the rates are per: the wall-clock duration with every silent
  /// gap capped at max_idle_gap, or the plain wall-clock duration when
  /// max_idle_gap <= 0; 0 with fewer than 2 events.
  Time active_duration = 0.0;
  graph::SparseContactGraph rates{2};  // replaced by finish(); min legal size
};

/// Maximum-likelihood contact rates, lambda_ij = count_ij / duration, fed
/// one event at a time. With max_idle_gap > 0 the duration is active time:
/// real contact logs have long off-business-hour gaps during which the
/// exponential contact model is meaningless, and dividing counts by active
/// time instead of wall time is the training that makes the model track
/// business-hour delivery (Sec. V-D). With max_idle_gap <= 0 it is
/// wall-clock time.
class RateTrainer {
 public:
  /// Throws std::invalid_argument if node_count < 2 or the gap is NaN
  /// (an infinite gap is active time with no cap).
  RateTrainer(std::size_t node_count, Time max_idle_gap);

  /// Checks `e` as the ContactTrace constructor does, then counts it.
  /// Active-time training needs time-sorted events: a decreasing time
  /// throws std::invalid_argument.
  void add(const ContactEvent& e);

  /// The envelope and the rates of every pair that met, in CSR form.
  SparseTraceSummary finish() &&;

 private:
  std::size_t node_count_;
  Time max_idle_gap_;
  // Keyed on (lo << 32 | hi): grows with the pairs that ever meet.
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;
  std::size_t event_count_ = 0;
  Time lo_ = 0.0;
  Time hi_ = 0.0;
  Time active_ = 0.0;
};

class ContactTrace {
 public:
  /// Builds a trace over `node_count` nodes; events are sorted by time,
  /// stably (the order equals std::stable_sort's). Throws
  /// std::invalid_argument if node_count < 2, or on an event that
  /// references a node >= node_count, joins a node to itself or has a
  /// non-finite time.
  ContactTrace(std::size_t node_count, std::vector<ContactEvent> events);

  std::size_t node_count() const { return node_count_; }
  std::size_t event_count() const { return events_.size(); }
  const std::vector<ContactEvent>& events() const { return events_; }

  /// First and last event times (0 if the trace is empty).
  Time start_time() const;
  Time end_time() const;

  /// Trains per-pair contact rates over the trace with one RateTrainer
  /// pass over its sorted events: active-time rates when max_idle_gap > 0,
  /// wall-clock rates otherwise (see RateTrainer). This is the "training"
  /// step the paper mentions for fitting the analytical model to a real
  /// trace.
  SparseTraceSummary train(Time max_idle_gap) const;

 private:
  std::size_t node_count_;
  std::vector<ContactEvent> events_;
};

/// Drains `reader` into a RateTrainer: one bounded-memory pass.
SparseTraceSummary ingest_sparse_trace(TraceReader& reader,
                                       std::size_t node_count,
                                       Time max_idle_gap);

/// Open + ingest. IO errors throw std::runtime_error; parse and validation
/// errors are re-thrown as "<path>: <message>".
SparseTraceSummary ingest_sparse_trace_file(const std::string& path,
                                            TraceFormat format,
                                            std::size_t node_count,
                                            Time max_idle_gap);

/// Reads a plain-format trace file from disk. Throws std::runtime_error on
/// IO failure.
ContactTrace load_trace_file(const std::string& path, std::size_t node_count);

/// Serializes a trace in the plain format.
std::string format_trace(const ContactTrace& trace);

/// Writes a trace to disk.
void save_trace_file(const ContactTrace& trace, const std::string& path);

}  // namespace odtn::trace
