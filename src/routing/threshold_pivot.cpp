#include "routing/threshold_pivot.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace odtn::routing {

namespace {

// A share in flight: src -> relay (one onion-group hop) -> pivot.
struct ShareWalker {
  std::size_t index;
  GroupId relay_group;
  NodeId holder;
  bool at_relay = false;   // has completed the src -> relay hop
  bool at_pivot = false;
  NodeId relay = kInvalidNode;
};

}  // namespace

ThresholdPivotRouting::ThresholdPivotRouting(
    const groups::GroupDirectory& directory, TpsOptions options)
    : directory_(&directory), options_(options) {
  if (options_.threshold == 0 || options_.threshold > options_.share_count) {
    throw std::invalid_argument("ThresholdPivotRouting: bad threshold");
  }
}

TpsResult ThresholdPivotRouting::route(sim::ContactModel& contacts,
                                       const MessageSpec& spec,
                                       util::Rng& rng) {
  if (spec.src == spec.dst) {
    throw std::invalid_argument("route: src == dst");
  }
  const std::size_t n = contacts.node_count();
  if (n < 3) throw std::invalid_argument("TPS: need at least 3 nodes");

  TpsResult result;
  result.share_relays.assign(options_.share_count, kInvalidNode);

  // Pick a pivot distinct from both endpoints.
  NodeId pivot = static_cast<NodeId>(rng.below(n));
  while (pivot == spec.src || pivot == spec.dst) {
    pivot = static_cast<NodeId>(rng.below(n));
  }
  result.pivot = pivot;

  // Each share gets its own random relay group (sampled independently; TPS
  // does not require distinct groups across shares).
  std::vector<ShareWalker> shares(options_.share_count);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    shares[i].index = i;
    auto groups = directory_->select_relay_groups(spec.src, spec.dst, 1, rng);
    shares[i].relay_group = groups[0];
    shares[i].holder = spec.src;
  }

  // A draw that feeds nothing: the published tables and the pinned digests
  // are tied to the stream with this draw in place here.
  rng.next();

  const Time deadline = spec.start + spec.ttl;
  Time now = spec.start;
  std::size_t arrived = 0;
  Time pivot_ready_at = kTimeInfinity;

  // Phase 1+2 interleaved: every share progresses independently.
  std::vector<NodeId> targets;  // scratch, reused across polls
  while (true) {
    struct Pending {
      Time time;
      std::size_t share;
      NodeId receiver;
    };
    std::optional<Pending> best;
    for (auto& s : shares) {
      if (s.at_pivot) continue;
      targets.clear();
      if (!s.at_relay) {
        for (NodeId m : directory_->members(s.relay_group)) {
          if (m != s.holder && m != pivot) targets.push_back(m);
        }
      } else {
        targets.push_back(pivot);
      }
      auto ev = contacts.first_cross_contact(
          std::span<const NodeId>(&s.holder, 1), targets, now, deadline);
      if (ev.has_value() && (!best || ev->time < best->time)) {
        best = Pending{ev->time, s.index, ev->b};
      }
    }
    if (!best.has_value()) break;

    now = best->time;
    auto& s = shares[best->share];
    ++result.transmissions;
    if (!s.at_relay) {
      s.at_relay = true;
      s.relay = best->receiver;
      s.holder = best->receiver;
      result.share_relays[s.index] = best->receiver;
    } else {
      s.at_pivot = true;
      ++arrived;
      if (arrived == options_.threshold) {
        pivot_ready_at = now;
        break;  // pivot can reconstruct; remaining shares are irrelevant
      }
    }
  }
  result.shares_at_pivot = arrived;
  if (arrived < options_.threshold) return result;

  // Phase 3: pivot -> dst. (This is the step that reveals the destination
  // to the pivot — TPS's known anonymity concession.)
  auto ev = contacts.first_cross_contact(std::span<const NodeId>(&pivot, 1),
                                         std::span<const NodeId>(&spec.dst, 1),
                                         pivot_ready_at, deadline);
  if (!ev.has_value()) return result;
  ++result.transmissions;
  result.delivered = true;
  result.delay = ev->time - spec.start;
  return result;
}

}  // namespace odtn::routing
