#include "traffic/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace odtn::traffic {

const char* arrival_name(Arrival arrival) {
  switch (arrival) {
    case Arrival::kPoisson: return "poisson";
    case Arrival::kDeterministic: return "deterministic";
    case Arrival::kMmpp: return "mmpp";
  }
  return "?";
}

Arrival parse_arrival(const std::string& name) {
  if (name == "poisson") return Arrival::kPoisson;
  if (name == "deterministic") return Arrival::kDeterministic;
  if (name == "mmpp") return Arrival::kMmpp;
  throw std::invalid_argument("traffic: unknown arrival process '" + name +
                              "' (poisson|deterministic|mmpp)");
}

double TrafficConfig::offered_rate() const {
  double total = 0.0;
  for (const auto& f : flows) total += f.rate;
  return total;
}

namespace {

// Resolved half-open endpoint range: [lo, hi) with the 0,0 = whole-network
// default applied.
struct Range {
  NodeId lo;
  NodeId hi;
  std::size_t size() const { return hi - lo; }
  bool contains(NodeId v) const { return v >= lo && v < hi; }
};

Range resolve(NodeId lo, NodeId hi, std::size_t nodes) {
  if (lo == 0 && hi == 0) return {0, static_cast<NodeId>(nodes)};
  return {lo, hi};
}

void validate_flow(const FlowConfig& f, std::size_t flow, std::size_t nodes) {
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("traffic: flow " + std::to_string(flow) +
                                ": " + what);
  };
  if (!(f.rate > 0.0)) fail("rate must be > 0");
  if (!(f.ttl > 0.0)) fail("ttl must be > 0");
  if (f.copies == 0) fail("copies must be >= 1");
  auto check_range = [&](NodeId lo, NodeId hi, const char* which) {
    if (lo == 0 && hi == 0) return;
    if (hi <= lo) fail(std::string(which) + " range is empty");
    if (hi > nodes) fail(std::string(which) + " range exceeds node count");
  };
  check_range(f.src_lo, f.src_hi, "src");
  check_range(f.dst_lo, f.dst_hi, "dst");
  Range src = resolve(f.src_lo, f.src_hi, nodes);
  Range dst = resolve(f.dst_lo, f.dst_hi, nodes);
  if (src.size() == 1 && dst.size() == 1 && src.lo == dst.lo) {
    fail("src and dst ranges pin the same single node");
  }
  if (f.arrival == Arrival::kMmpp) {
    if (!(f.mean_burst > 0.0) || !(f.mean_idle > 0.0)) {
      fail("mmpp dwell times must be > 0");
    }
    const double max_factor = (f.mean_burst + f.mean_idle) / f.mean_burst;
    if (!(1.0 <= f.burst_factor && f.burst_factor <= max_factor)) {
      fail("mmpp burst_factor must be in [1, (mean_burst+mean_idle)/"
           "mean_burst]");
    }
  }
}

// Draws a destination in `dst`, never equal to src. When src lies inside
// the range, draw from the range minus one slot and shift past src — one
// uniform draw, no rejection loop.
NodeId draw_dst(const Range& dst, NodeId src, util::Rng& rng) {
  if (dst.contains(src)) {
    NodeId d = dst.lo + static_cast<NodeId>(rng.below(dst.size() - 1));
    if (d >= src) ++d;
    return d;
  }
  return dst.lo + static_cast<NodeId>(rng.below(dst.size()));
}

// Emits one flow's arrivals on [0, horizon) into `out`.
void generate_flow(const FlowConfig& f, std::uint32_t flow, std::size_t nodes,
                   Time horizon, util::Rng& rng,
                   std::vector<TrafficMessage>& out) {
  const Range src = resolve(f.src_lo, f.src_hi, nodes);
  const Range dst = resolve(f.dst_lo, f.dst_hi, nodes);

  auto emit = [&](Time t) {
    TrafficMessage msg;
    msg.spec.src = src.lo + static_cast<NodeId>(rng.below(src.size()));
    msg.spec.dst = draw_dst(dst, msg.spec.src, rng);
    msg.spec.start = t;
    msg.spec.ttl = f.ttl;
    msg.spec.num_relays = f.num_relays;
    msg.spec.copies = f.copies;
    msg.priority = f.priority;
    msg.flow = flow;
    out.push_back(std::move(msg));
  };

  switch (f.arrival) {
    case Arrival::kPoisson: {
      Time t = rng.exponential(f.rate);
      while (t < horizon) {
        emit(t);
        t += rng.exponential(f.rate);
      }
      break;
    }
    case Arrival::kDeterministic: {
      // Paced: first arrival after one full interval, then fixed gaps.
      const Time gap = 1.0 / f.rate;
      for (Time t = gap; t < horizon; t += gap) emit(t);
      break;
    }
    case Arrival::kMmpp: {
      // 2-state MMPP. The ON rate is rate * burst_factor; the OFF rate is
      // whatever makes the dwell-weighted average equal `rate` (>= 0 by
      // the burst_factor validation above).
      const double on_rate = f.rate * f.burst_factor;
      const double off_rate =
          (f.rate * (f.mean_burst + f.mean_idle) - on_rate * f.mean_burst) /
          f.mean_idle;
      // Start in the stationary state distribution.
      bool on = rng.chance(f.mean_burst / (f.mean_burst + f.mean_idle));
      Time t = 0.0;
      while (t < horizon) {
        const Time dwell =
            rng.exponential(1.0 / (on ? f.mean_burst : f.mean_idle));
        const Time state_end = std::min(t + dwell, horizon);
        const double rate = on ? on_rate : off_rate;
        if (rate > 0.0) {
          Time a = t + rng.exponential(rate);
          while (a < state_end) {
            emit(a);
            a += rng.exponential(rate);
          }
        }
        t += dwell;
        on = !on;
      }
      break;
    }
  }
}

}  // namespace

void TrafficConfig::validate(std::size_t nodes) const {
  if (!enabled()) {
    if (!(horizon >= 0.0)) {
      throw std::invalid_argument("traffic: horizon must be >= 0");
    }
    if (horizon > 0.0 && flows.empty()) {
      throw std::invalid_argument("traffic: horizon set but no flows");
    }
    if (!flows.empty()) {
      throw std::invalid_argument("traffic: flows set but horizon is not > 0");
    }
    return;
  }
  if (std::isinf(horizon)) {
    throw std::invalid_argument("traffic: horizon must be finite");
  }
  if (nodes < 2) {
    throw std::invalid_argument("traffic: need >= 2 nodes");
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    validate_flow(flows[i], i, nodes);
  }
}

TrafficPlan::TrafficPlan(const TrafficConfig& config, std::size_t nodes,
                         std::uint64_t seed) {
  config.validate(nodes);
  if (!config.enabled()) return;
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    // Per-flow sub-stream: adding / reordering other flows never perturbs
    // this flow's arrivals.
    util::Rng rng(util::derive_seed(seed, f));
    generate_flow(config.flows[f], static_cast<std::uint32_t>(f), nodes,
                  config.horizon, rng, messages_);
  }
  // Merge flows into global arrival order. (start, flow, emission order)
  // is a strict total order, so stable_sort makes the merged plan unique.
  std::stable_sort(messages_.begin(), messages_.end(),
                   [](const TrafficMessage& a, const TrafficMessage& b) {
                     if (a.spec.start != b.spec.start) {
                       return a.spec.start < b.spec.start;
                     }
                     return a.flow < b.flow;
                   });
}

std::vector<routing::MessageSpec> TrafficPlan::specs() const {
  std::vector<routing::MessageSpec> out;
  out.reserve(messages_.size());
  for (const auto& m : messages_) out.push_back(m.spec);
  return out;
}

std::vector<std::uint8_t> TrafficPlan::priorities() const {
  std::vector<std::uint8_t> out;
  out.reserve(messages_.size());
  for (const auto& m : messages_) out.push_back(m.priority);
  return out;
}

}  // namespace odtn::traffic
