#include "routing/alar.hpp"

#include <algorithm>
#include <stdexcept>

namespace odtn::routing {

AlarRouting::AlarRouting(AlarOptions options) : options_(options) {
  if (options_.segments == 0 || options_.segments > 64) {
    throw std::invalid_argument("AlarRouting: bad segment count");
  }
  if (options_.threshold == 0 || options_.threshold > options_.segments) {
    throw std::invalid_argument("AlarRouting: bad threshold");
  }
}

AlarResult AlarRouting::route(const trace::ContactTrace& trace,
                              const MessageSpec& spec) {
  if (spec.src == spec.dst) {
    throw std::invalid_argument("route: src == dst");
  }
  if (spec.src >= trace.node_count() || spec.dst >= trace.node_count()) {
    throw std::invalid_argument("route: unknown endpoint");
  }
  const std::size_t n = trace.node_count();
  const std::size_t s = options_.segments;
  const Time deadline = spec.start + spec.ttl;

  AlarResult result;
  result.initial_receivers.assign(s, kInvalidNode);

  // holdings[v] = bitmask of segments node v carries. The source holds all
  // segments but, per ALAR, releases each to a *different* first receiver
  // and stops advertising it afterwards (that is the localization
  // defense: no bystander sees the source emit twice... per segment).
  std::vector<std::uint64_t> holdings(n, 0);
  // The source holds every segment from the start (it only *releases*
  // them, never floods, and must not be re-infected by the epidemic).
  holdings[spec.src] =
      s >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << s) - 1);
  std::vector<bool> was_initial_receiver(n, false);
  std::size_t next_segment_to_release = 0;
  std::size_t dst_segments = 0;

  auto give = [&](NodeId to, std::size_t seg, Time t) {
    holdings[to] |= (std::uint64_t{1} << seg);
    ++result.transmissions;
    if (to == spec.dst) {
      ++dst_segments;
      if (dst_segments == options_.threshold && !result.delivered) {
        result.delivered = true;
        result.delay = t - spec.start;
      }
    }
  };

  // Events are time-sorted: jump straight to the message's start instead of
  // scanning the pre-start prefix.
  const auto& events = trace.events();
  auto first = std::lower_bound(events.begin(), events.end(), spec.start,
                                [](const trace::ContactEvent& e, Time t) {
                                  return e.time < t;
                                });
  for (auto it = first; it != events.end(); ++it) {
    const auto& event = *it;
    if (event.time >= deadline) break;
    if (result.delivered) break;

    for (auto [u, v] : {std::pair<NodeId, NodeId>{event.a, event.b},
                        std::pair<NodeId, NodeId>{event.b, event.a}}) {
      // Source release phase: hand the next unreleased segment to a node
      // that has not served as an initial receiver yet (each segment gets
      // a *different* first receiver — the anti-localization property).
      if (u == spec.src && next_segment_to_release < s && v != spec.src &&
          !was_initial_receiver[v] && v != spec.dst) {
        was_initial_receiver[v] = true;
        result.initial_receivers[next_segment_to_release] = v;
        give(v, next_segment_to_release, event.time);
        ++next_segment_to_release;
        continue;
      }
      // Epidemic phase: u passes every segment v lacks.
      std::uint64_t missing = holdings[u] & ~holdings[v];
      if (u == spec.src) missing = 0;  // source only releases, never floods
      for (std::size_t seg = 0; seg < s && missing != 0; ++seg) {
        std::uint64_t bit = std::uint64_t{1} << seg;
        if (missing & bit) {
          give(v, seg, event.time);
          missing &= ~bit;
          if (result.delivered) break;
        }
      }
      if (result.delivered) break;
    }
  }

  result.segments_at_destination = dst_segments;

  return result;
}

}  // namespace odtn::routing
