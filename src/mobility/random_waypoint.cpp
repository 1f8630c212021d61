#include "mobility/random_waypoint.hpp"

#include <cmath>
#include <stdexcept>

namespace odtn::mobility {

namespace {

void validate(const RandomWaypointParams& p) {
  if (p.nodes < 2) throw std::invalid_argument("rwp: nodes < 2");
  if (!(p.width > 0.0) || !(p.height > 0.0)) {
    throw std::invalid_argument("rwp: non-positive area");
  }
  if (!(p.min_speed > 0.0) || p.max_speed < p.min_speed) {
    throw std::invalid_argument("rwp: bad speed range (min must be > 0)");
  }
  if (p.min_pause < 0.0 || p.max_pause < p.min_pause) {
    throw std::invalid_argument("rwp: bad pause range");
  }
  if (!(p.range > 0.0)) throw std::invalid_argument("rwp: bad radio range");
  if (!(p.duration > 0.0) || !(p.tick > 0.0)) {
    throw std::invalid_argument("rwp: bad duration/tick");
  }
}

double sq(double v) { return v * v; }

}  // namespace

RandomWaypointModel::RandomWaypointModel(const RandomWaypointParams& params,
                                         util::Rng& rng)
    : params_(params), rng_(&rng) {
  validate(params_);
  nodes_.resize(params_.nodes);
  for (auto& n : nodes_) {
    n.pause_until = 0.0;
    pick_waypoint(n);
    n.x = rng_->uniform(0.0, params_.width);
    n.y = rng_->uniform(0.0, params_.height);
  }
}

void RandomWaypointModel::pick_waypoint(NodeState& n) {
  n.wx = rng_->uniform(0.0, params_.width);
  n.wy = rng_->uniform(0.0, params_.height);
  n.speed = rng_->uniform(params_.min_speed, params_.max_speed);
}

void RandomWaypointModel::step() {
  time_ += params_.tick;
  for (auto& n : nodes_) {
    if (time_ < n.pause_until) continue;
    double dx = n.wx - n.x;
    double dy = n.wy - n.y;
    double dist = std::sqrt(dx * dx + dy * dy);
    double stride = n.speed * params_.tick;
    if (dist <= stride) {
      // Arrived: pause, then head for a new waypoint.
      n.x = n.wx;
      n.y = n.wy;
      n.pause_until =
          time_ + rng_->uniform(params_.min_pause, params_.max_pause);
      pick_waypoint(n);
    } else {
      n.x += dx / dist * stride;
      n.y += dy / dist * stride;
    }
  }
}

std::pair<double, double> RandomWaypointModel::position(NodeId v) const {
  if (v >= nodes_.size()) {
    throw std::out_of_range("RandomWaypointModel::position");
  }
  return {nodes_[v].x, nodes_[v].y};
}

std::vector<std::pair<NodeId, NodeId>> RandomWaypointModel::pairs_in_range()
    const {
  std::vector<std::pair<NodeId, NodeId>> out;
  double r2 = sq(params_.range);
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    for (NodeId j = i + 1; j < nodes_.size(); ++j) {
      if (sq(nodes_[i].x - nodes_[j].x) + sq(nodes_[i].y - nodes_[j].y) <=
          r2) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

namespace {

// Runs the model to `duration`, emitting one event per range *entry*.
trace::ContactTrace collect_entry_events(RandomWaypointModel& model,
                                         std::size_t n, double duration) {
  std::vector<trace::ContactEvent> events;
  std::vector<bool> in_range(n * n, false);
  auto idx = [n](NodeId i, NodeId j) { return std::size_t{i} * n + j; };

  while (model.time() < duration) {
    model.step();
    auto now_pairs = model.pairs_in_range();
    std::vector<bool> now(n * n, false);
    for (auto [i, j] : now_pairs) {
      now[idx(i, j)] = true;
      if (!in_range[idx(i, j)]) {
        events.push_back({model.time(), i, j});
      }
    }
    in_range.swap(now);
  }
  return trace::ContactTrace(n, std::move(events));
}

}  // namespace

trace::ContactTrace random_waypoint_trace(const RandomWaypointParams& params,
                                          util::Rng& rng) {
  RandomWaypointModel model(params, rng);
  return collect_entry_events(model, params.nodes, params.duration);
}

}  // namespace odtn::mobility
