// Random-waypoint mobility: contact traces from simulated node movement.
//
// DTN evaluations (e.g. with the ONE simulator) commonly generate contact
// traces from geometric mobility rather than sampling inter-contact times
// directly. This module provides the classic random-waypoint model: each
// node repeatedly picks a uniform waypoint in a rectangle, moves toward it
// at a uniform-random speed, pauses, and repeats. A contact event is
// emitted whenever two nodes move into radio range.
//
// This closes the modeling loop of the paper: Table II *assumes*
// exponential inter-contact times; random-waypoint mobility lets the
// library test that assumption from first principles
// (bench/ablation_mobility).
#pragma once

#include <utility>
#include <vector>

#include "trace/contact_trace.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace odtn::mobility {

struct RandomWaypointParams {
  std::size_t nodes = 40;
  double width = 1000.0;    // area, meters
  double height = 1000.0;
  double min_speed = 0.5;   // m/s (> 0: avoids the RWP speed-decay pathology)
  double max_speed = 1.5;
  double min_pause = 0.0;   // s at each waypoint
  double max_pause = 120.0;
  double range = 50.0;      // radio range, meters
  double duration = 43200.0;  // simulated seconds
  double tick = 1.0;        // movement/contact sampling interval, s
};

/// Steppable movement model (exposed for tests; the trace generator below
/// is the typical entry point).
class RandomWaypointModel {
 public:
  RandomWaypointModel(const RandomWaypointParams& params, util::Rng& rng);

  /// Advances all nodes by one tick.
  void step();

  double time() const { return time_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::pair<double, double> position(NodeId v) const;

  /// Pairs currently within radio range (i < j).
  std::vector<std::pair<NodeId, NodeId>> pairs_in_range() const;

 private:
  struct NodeState {
    double x, y;          // current position
    double wx, wy;        // waypoint
    double speed;         // current leg speed, m/s
    double pause_until;   // absolute time the pause ends
  };

  void pick_waypoint(NodeState& n);

  RandomWaypointParams params_;
  util::Rng* rng_;
  std::vector<NodeState> nodes_;
  double time_ = 0.0;
};

/// Runs the model for `params.duration` and records a contact event each
/// time a pair *enters* radio range (the paper's model: one contact event
/// per meeting, long enough to transfer a message).
trace::ContactTrace random_waypoint_trace(const RandomWaypointParams& params,
                                          util::Rng& rng);

}  // namespace odtn::mobility
