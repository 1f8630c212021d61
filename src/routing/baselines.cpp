#include "routing/baselines.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace odtn::routing {

namespace {

void check_endpoints(const sim::ContactModel& contacts,
                     const MessageSpec& spec) {
  if (spec.src == spec.dst) throw std::invalid_argument("route: src == dst");
  if (spec.src >= contacts.node_count() || spec.dst >= contacts.node_count()) {
    throw std::invalid_argument("route: unknown endpoint");
  }
}

}  // namespace

DeliveryResult SprayAndWaitRouting::route(sim::ContactModel& contacts,
                                          const MessageSpec& spec) {
  check_endpoints(contacts, spec);
  if (spec.copies == 0) {
    throw std::invalid_argument("SprayAndWaitRouting: copies must be >= 1");
  }
  DeliveryResult result;
  const Time deadline = spec.start + spec.ttl;
  Time now = spec.start;

  // Holders and their remaining tickets, as parallel vectors in spray order
  // (source first). Not a hash map: the holder and sprayer lists seed the
  // contact plan's pair enumeration, so hash-iteration order would tie the
  // RNG draw mapping to the stdlib's bucket scheme. At most `copies` holders,
  // so the linear index scan below is cheap.
  std::vector<NodeId> holders = {spec.src};
  std::vector<std::size_t> tickets = {spec.copies};
  std::vector<NodeId> sprayers;
  std::vector<NodeId> excluded;

  while (true) {
    // Wait phase event: any holder meets dst.
    auto deliver = contacts.first_cross_contact(
        holders, std::span<const NodeId>(&spec.dst, 1), now, deadline);

    // Spray phase event: a holder with > 1 tickets meets a ticketless node.
    sprayers.clear();
    for (std::size_t i = 0; i < holders.size(); ++i) {
      if (tickets[i] > 1) sprayers.push_back(holders[i]);
    }
    std::optional<sim::CrossContact> spray;
    if (!sprayers.empty()) {
      // Complement plan: anyone who is not dst and not already a holder —
      // built without enumerating all n nodes. A sprayed node is therefore
      // new by construction.
      excluded.assign(holders.begin(), holders.end());
      excluded.push_back(spec.dst);
      spray = contacts.first_cross_contact_complement(sprayers, excluded, now,
                                                      deadline);
    }

    if (deliver.has_value() &&
        (!spray.has_value() || deliver->time <= spray->time)) {
      result.delivered = true;
      result.delay = deliver->time - spec.start;
      ++result.transmissions;
      return result;
    }
    if (!spray.has_value()) return result;  // deadline with no delivery

    now = spray->time;
    const auto at = static_cast<std::size_t>(
        std::find(holders.begin(), holders.end(), spray->a) - holders.begin());
    const std::size_t give = split_ == Split::kBinary ? tickets[at] / 2 : 1;
    tickets[at] -= give;
    holders.push_back(spray->b);
    tickets.push_back(give);
    ++result.transmissions;
  }
}

DeliveryResult EpidemicRouting::route(sim::ContactModel& contacts,
                                      const MessageSpec& spec) {
  check_endpoints(contacts, spec);
  DeliveryResult result;
  const Time deadline = spec.start + spec.ttl;
  Time now = spec.start;

  // Infection order is the iteration order fed to the contact plan (see the
  // spray-and-wait note above); a vector keeps it a property of the run, not
  // of the hash table. The complement plan excludes every infected node, so
  // each event's ev->b is new by construction — no membership test needed.
  std::vector<NodeId> infected = {spec.src};

  while (infected.size() < contacts.node_count()) {
    // Complement plan: every still-susceptible node is "not yet infected" —
    // the infected set doubles as the exclusion list.
    auto ev = contacts.first_cross_contact_complement(infected, infected, now,
                                                      deadline);
    if (!ev.has_value()) break;

    now = ev->time;
    infected.push_back(ev->b);
    ++result.transmissions;
    if (ev->b == spec.dst && !result.delivered) {
      result.delivered = true;
      result.delay = now - spec.start;
    }
  }
  return result;
}

}  // namespace odtn::routing
