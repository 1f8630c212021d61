// Contact traces: recorded (or synthesized) pairwise contact events.
//
// The paper's real-trace experiments replay CRAWDAD cambridge/haggle
// contact logs. A trace here is a time-sorted list of instantaneous contact
// events (the paper assumes every contact lasts long enough to transfer a
// whole message).
#pragma once

#include <string>
#include <vector>

#include "graph/contact_graph.hpp"
#include "util/ids.hpp"

namespace odtn::trace {

struct ContactEvent {
  Time time;
  NodeId a;
  NodeId b;

  friend bool operator==(const ContactEvent&, const ContactEvent&) = default;
};

class ContactTrace {
 public:
  /// Builds a trace over `node_count` nodes; events are sorted by time,
  /// stably (the order equals std::stable_sort's). Throws
  /// std::invalid_argument on events referencing nodes >= node_count,
  /// a == b, or a non-finite time.
  ContactTrace(std::size_t node_count, std::vector<ContactEvent> events);

  std::size_t node_count() const { return node_count_; }
  std::size_t event_count() const { return events_.size(); }
  const std::vector<ContactEvent>& events() const { return events_; }

  /// First and last event times (0 if the trace is empty).
  Time start_time() const;
  Time end_time() const;

  /// Maximum-likelihood contact-rate estimate over the trace duration:
  /// lambda_ij = (#contacts between i and j) / duration. This is the
  /// "training" step the paper mentions for fitting the analytical model
  /// to a real trace.
  graph::ContactGraph estimate_rates() const;

  /// Active time covered by the trace: the wall-clock duration with every
  /// network-wide silent gap capped at `max_idle_gap`. Real contact logs
  /// have long off-business-hour gaps during which the exponential contact
  /// model is meaningless; dividing counts by active time instead of wall
  /// time is the "training" that makes the model track business-hour
  /// message delivery (Sec. V-D of the paper).
  Time active_duration(Time max_idle_gap) const;

  /// Rate estimate over active time: lambda_ij = count_ij /
  /// active_duration(max_idle_gap).
  graph::ContactGraph estimate_rates_active(Time max_idle_gap) const;

 private:
  std::size_t node_count_;
  std::vector<ContactEvent> events_;
};

/// Parses the plain-text trace format: one event per line, `time a b`,
/// whitespace-separated; '#' starts a comment; blank lines ignored.
/// (The CRAWDAD imote logs are easily converted to this format.)
ContactTrace parse_trace(const std::string& text, std::size_t node_count);

/// Parses the CRAWDAD cambridge/haggle contact format: one *interval* per
/// line, `id1 id2 start end [...extra columns ignored]`, ids 1-based as in
/// the published dataset. Each interval becomes one contact event at its
/// start time (the paper's model: a contact is long enough to transfer a
/// whole message). Lines mentioning ids above `node_count` (the dataset's
/// stationary/external devices) are skipped, mirroring the paper's
/// preprocessing ("we only consider the contacts between mobile devices").
ContactTrace parse_crawdad_trace(const std::string& text,
                                 std::size_t node_count);

/// Reads a trace file from disk. Throws std::runtime_error on IO failure.
ContactTrace load_trace_file(const std::string& path, std::size_t node_count);

/// Parses the ONE simulator's connection report format: one line per link
/// transition, `time CONN a b up|down` (ids 0-based). Each `up` transition
/// becomes a contact event; `down` lines and other report lines are
/// ignored. Ids >= node_count are skipped.
ContactTrace parse_one_report(const std::string& text,
                              std::size_t node_count);

/// Serializes a trace in the same format.
std::string format_trace(const ContactTrace& trace);

/// Writes a trace to disk.
void save_trace_file(const ContactTrace& trace, const std::string& path);

}  // namespace odtn::trace
