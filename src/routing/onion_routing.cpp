#include "routing/onion_routing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "faults/faults.hpp"
#include "recovery/recovery.hpp"

namespace odtn::routing {

namespace {

using circuit::CircuitId;
using circuit::CircuitManager;
using Peel = circuit::CircuitManager::Peel;

// All cryptographic work — onion build, secure-link crossings, layer peels,
// cell framing — lives in circuit::CircuitManager; the protocols below are
// pure forwarding policies deciding *when* and *between whom* the manager's
// wire operations happen.
circuit::CircuitContext circuit_context(const OnionContext& ctx) {
  return {.keys = ctx.keys,
          .codec = ctx.codec,
          .crypto = ctx.crypto == CryptoMode::kReal,
          .metrics = ctx.metrics,
          .wire = ctx.wire_cells,
          .cell_size = ctx.cell_size,
          .tap = ctx.cell_tap};
}

// One copy of the message in flight.
struct Walker {
  NodeId holder = kInvalidNode;
  /// Number of onion layers peeled so far; hop h < K means the copy still
  /// needs to reach relay group R_{h+1}; h == K means the next stop is dst
  /// (or, in destination-group mode, any member of dst's group); h > K
  /// means the copy is circulating inside dst's group.
  std::size_t hop = 0;
  /// Which retransmission generation's relay groups this copy follows
  /// (0 = the original send). Fixed at spray time.
  std::size_t gen = 0;
  Time arrival = 0.0;        // when the current holder received the copy
  std::vector<NodeId> path;  // relays visited (r_1..)
  /// Destination-group mode: the nodes that passed this copy on inside
  /// dst's group (starting with r_K); the walk never returns to them.
  std::vector<NodeId> group_visits;
  CircuitId circ = 0;     // this copy's circuit in the manager
  bool done = false;      // delivered, or destroyed by a fault
  Time retry_from = 0.0;  // after a failed transfer, re-query from here

  // Prepared (holder -> current targets) query, rebuilt only when the hop
  // advances or a hand-off happened anywhere (plan_version tracks the
  // latter); fault retries and lose-the-race iterations reuse it as-is.
  sim::ContactQuery plan;
  std::uint64_t plan_version = 0;
  std::size_t plan_hop = static_cast<std::size_t>(-1);
};

// Observability handles shared by both protocols; inert when reg is null.
// (The peel counters moved into CircuitManager with the peels themselves.)
struct RoutingMetrics {
  metrics::CounterHandle forwards;
  metrics::CounterHandle tickets;
  metrics::CounterHandle deliveries;
  metrics::HistogramHandle hop_delay;

  static RoutingMetrics resolve(metrics::Registry* reg) {
    return {metrics::counter(reg, "routing.forwards"),
            metrics::counter(reg, "routing.tickets_spent"),
            metrics::counter(reg, "routing.deliveries"),
            metrics::histogram(reg, "routing.hop_delay")};
  }
};

// Smallest representable time strictly after t: after a suppressed or
// failed contact the protocol re-queries from here, so a trace replay
// moves past the consumed event while the (memoryless) Poisson model is
// unaffected.
Time skip_past(Time t) { return std::nextafter(t, kTimeInfinity); }

bool contains(const std::vector<NodeId>& v, NodeId x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

const OnionContext& checked(const OnionContext& ctx) {
  if (ctx.directory == nullptr || ctx.keys == nullptr ||
      ctx.codec == nullptr) {
    throw std::invalid_argument("OnionContext: null component");
  }
  return ctx;
}

// The one onion walker behind both protocols: Algorithm 2 with L copies,
// of which Algorithm 1 is the L = 1 configuration (spray-and-wait shape:
// no tickets, one walker starting at the source). An event loop races the
// source sprayer and every live copy to its next qualifying contact.
DeliveryResult route_copies(const OnionContext& ctx, SprayMode mode,
                            sim::ContactModel& contacts,
                            const MessageSpec& spec, util::Rng& rng,
                            const std::vector<GroupId>* forced_groups) {
  if (spec.src == spec.dst) {
    throw std::invalid_argument("route: src == dst");
  }
  const bool group_mode = spec.destination_group_delivery;
  if (group_mode && spec.copies != 1) {
    throw std::invalid_argument(
        "route: destination-group delivery is single-copy only");
  }
  const std::size_t k = spec.num_relays;
  const bool spray_and_wait = mode == SprayMode::kSprayAndWait;
  const auto& dir = *ctx.directory;
  const GroupId dst_group = group_mode ? dir.group_of(spec.dst) : kInvalidGroup;

  std::vector<GroupId> first_groups =
      forced_groups != nullptr
          ? *forced_groups
          : dir.select_relay_groups(spec.src, spec.dst, k, rng);
  if (first_groups.size() != k) {
    throw std::invalid_argument("route: wrong relay group count");
  }
  DeliveryResult result;
  result.relays_per_hop.assign(k, {});

  // kReal: one rng draw here (the DRBG-seed position); kNone: none.
  CircuitManager cm(circuit_context(ctx), rng);

  // Retransmission generations: the relay groups each one follows and the
  // template circuit holding its built onion (sprayed copies are clones of
  // it). gens[0] is the original, analysis-shared and never biased
  // selection; the source sprays the newest one and old copies keep racing.
  struct Generation {
    std::vector<GroupId> groups;
    CircuitId onion;
  };
  std::vector<Generation> gens;

  const Time deadline = spec.start + spec.ttl;
  Time now = spec.start;
  RoutingMetrics rm = RoutingMetrics::resolve(ctx.metrics);
  faults::FaultGate gate(ctx.faults, ctx.metrics);
  metrics::CounterHandle lost_to_crash =
      gate.counter("faults.copies_lost_to_crash");
  metrics::CounterHandle source_flushes = gate.counter("faults.source_flushes");
  Time source_retry_from = spec.start;
  Time source_since = spec.start;  // crash window start for the source

  // Nodes that have ever held (or been handed) the message, in insertion
  // order; Forward() in Algorithm 2 declines peers that already have m.
  // `seen_version` bumps on every hand-off (the only moment a holder or
  // the seen set changes) so cached query plans know when to rebuild.
  std::vector<NodeId> seen;
  seen.reserve(spec.copies * (k + 1) + 1);
  seen.push_back(spec.src);
  std::uint64_t seen_version = 1;

  // Source's remaining spray tickets (copies it may still hand out).
  // In kSprayAndWait the source retains one copy for itself and sprays the
  // other L-1 to arbitrary nodes; in kDirectToFirstGroup all L tickets go
  // to members of R_1.
  std::size_t source_tickets = 0;
  std::size_t cur_gen = 0;
  std::vector<Walker> walkers;

  // A new copy of generation cur_gen on circuit `circ`, held by `holder`
  // since `now`. (References into `walkers` die at the next spawn.)
  auto spawn = [&](NodeId holder, CircuitId circ) -> Walker& {
    Walker& w = walkers.emplace_back();
    w.holder = holder;
    w.gen = cur_gen;
    w.arrival = now;
    w.circ = circ;
    w.path.reserve(k);
    return w;
  };

  // Starts a generation over `groups` at `now`: builds its onion and
  // re-arms the source (a reboot regenerates the message at the app
  // layer). In spray-and-wait the source's own copy then waits for R_1
  // like any carrier; it takes the template circuit itself when no sprays
  // remain.
  auto start_generation = [&](std::vector<GroupId> groups) {
    const CircuitId onion = cm.open(spec.payload, spec.dst, groups, dst_group);
    gens.push_back({std::move(groups), onion});
    cur_gen = gens.size() - 1;
    source_tickets = spec.copies - (spray_and_wait ? 1 : 0);
    source_since = now;
    if (spray_and_wait) {
      spawn(spec.src, source_tickets > 0 ? cm.clone(onion) : onion);
    }
  };
  start_generation(std::move(first_groups));

  // Source-side retransmission; off (a null config or a zero timeout)
  // draws no RNG and registers no recovery.* metric.
  const bool retx_on =
      ctx.recovery != nullptr && ctx.recovery->retx_timeout > 0.0;
  recovery::RetxSchedule retx;
  metrics::CounterHandle m_retx;
  Time next_retx = kTimeInfinity;
  if (retx_on) {
    retx = recovery::RetxSchedule(*ctx.recovery, deadline);
    m_retx = metrics::counter(ctx.metrics, "recovery.retransmits");
    next_retx = retx.arm(spec.start, 0, rng);
  }

  std::vector<NodeId> targets;  // scratch for plan (re)builds
  // Relay-hop targets: the members of relay group `g` minus the nodes that
  // already have m (every holder among them) and minus dst, which must get
  // its copy as the destination, never as a relay.
  auto relay_targets = [&](GroupId g) {
    targets.clear();
    for (NodeId m : dir.members(g)) {
      if (m != spec.dst && !contains(seen, m)) targets.push_back(m);
    }
  };

  // Refreshes a walker's prepared query if its hop advanced or a hand-off
  // happened since the plan was built; otherwise keeps the plan (and its
  // buffers) untouched. Targets: the relay targets of the next group; then
  // dst unless a copy already reached it; in destination-group mode, dst's
  // group minus the holder and this copy's own group-phase visits.
  auto ensure_walker_plan = [&](Walker& w) {
    if (w.plan_version == seen_version && w.plan_hop == w.hop) return;
    targets.clear();
    if (w.hop < k) {
      relay_targets(gens[w.gen].groups[w.hop]);
    } else if (group_mode) {
      for (NodeId m : dir.members(dst_group)) {
        if (m != w.holder && !contains(w.group_visits, m)) {
          targets.push_back(m);
        }
      }
    } else if (!contains(seen, spec.dst)) {
      targets.push_back(spec.dst);
    }
    contacts.prepare(w.plan, std::span<const NodeId>(&w.holder, 1), targets);
    w.plan_version = seen_version;
    w.plan_hop = w.hop;
  };

  // The source sprayer's prepared query, rebuilt only when `seen` grows or
  // a retransmission starts a new generation (whose R_1 differs).
  sim::ContactQuery spray_plan;
  std::uint64_t spray_plan_version = 0;
  std::size_t spray_plan_gen = 0;
  std::vector<NodeId> excluded;  // scratch for complement plans
  auto ensure_spray_plan = [&] {
    if (spray_plan_version == seen_version && spray_plan_gen == cur_gen) return;
    if (!spray_and_wait) {
      relay_targets(gens[cur_gen].groups[0]);
      contacts.prepare(spray_plan, std::span<const NodeId>(&spec.src, 1),
                       targets);
    } else {
      // Spray to anyone new: a complement plan ("everyone except dst and
      // the seen set") instead of enumerating all n nodes — on sparse
      // backends this costs O(degree(src)), not O(n).
      excluded.assign(seen.begin(), seen.end());
      excluded.push_back(spec.dst);
      contacts.prepare_complement(
          spray_plan, std::span<const NodeId>(&spec.src, 1), excluded);
    }
    spray_plan_version = seen_version;
    spray_plan_gen = cur_gen;
  };

  // Bookkeeping of one completed hand-off to `receiver`.
  auto hand_off = [&](NodeId receiver) {
    ++result.transmissions;
    rm.forwards.inc();
    if (!contains(seen, receiver)) seen.push_back(receiver);
    ++seen_version;
  };

  // Relay hop: `w`'s new holder peels one layer with the group key. The
  // layer must name the hop expected next (the next relay group, then dst
  // or dst's group); a mismatch taints the circuit but the walk goes on
  // (there is no in-band error channel).
  auto peel = [&](Walker& w, NodeId sender) {
    const std::vector<GroupId>& groups = gens[w.gen].groups;
    const std::size_t h = w.hop++;
    cm.forward(w.circ, sender, w.holder,
               h + 1 < k    ? Peel::relay(groups[h], groups[h + 1])
               : group_mode ? Peel::relay(groups[h], dst_group)
                            : Peel::last_relay(groups[h], spec.dst));
    w.path.push_back(w.holder);
    result.relays_per_hop[h].push_back(w.holder);
  };
  auto deliver = [&](Walker& w) {
    w.done = true;
    rm.deliveries.inc();
    if (result.delivered) return;
    result.delivered = true;
    result.delay = now - spec.start;
    result.relay_path = std::move(w.path);
    result.crypto_verified = cm.verified(w.circ);
    if (retx_on && ctx.suspicion != nullptr) {
      ctx.suspicion->record(gens[w.gen].groups, /*acked=*/true);
    }
  };

  while (true) {
    // Find the earliest pending event across the source sprayer and all
    // live walkers. Re-querying from `now` each iteration is exact for the
    // Poisson model (memorylessness) and a plain re-scan for traces.
    struct Pending {
      Time time;
      int agent;  // -1 = source sprayer, otherwise walker index
      NodeId receiver;
    };
    std::optional<Pending> best;

    if (source_tickets > 0) {
      ensure_spray_plan();
      auto ev = contacts.first_cross_contact(
          spray_plan, std::max(now, source_retry_from), deadline);
      if (ev.has_value()) best = Pending{ev->time, -1, ev->b};
    }
    for (std::size_t i = 0; i < walkers.size(); ++i) {
      if (walkers[i].done) continue;
      ensure_walker_plan(walkers[i]);
      auto ev = contacts.first_cross_contact(
          walkers[i].plan, std::max(now, walkers[i].retry_from), deadline);
      if (ev.has_value() && (!best || ev->time < best->time)) {
        best = Pending{ev->time, static_cast<int>(i), ev->b};
      }
    }
    // A pending retransmission fires if it comes due before the earliest
    // contact (or if every copy is stuck): the source assumes the message
    // is lost, suspects the current generation's groups, and sprays a new
    // generation through a fresh (bias-aware) selection. Old-generation
    // copies keep racing.
    if (next_retx < deadline && !result.delivered &&
        (!best.has_value() || next_retx <= best->time)) {
      now = std::max(now, next_retx);
      if (ctx.suspicion != nullptr) {
        ctx.suspicion->record(gens[cur_gen].groups, /*acked=*/false);
      }
      start_generation(recovery::select_relay_groups_avoiding(
          dir, ctx.suspicion, spec.src, spec.dst, k, rng));
      ++result.retransmissions;
      m_retx.inc();
      next_retx = retx.arm(now, result.retransmissions, rng);
      continue;
    }
    if (!best.has_value()) break;  // every copy is stuck until the deadline
    now = best->time;
    const NodeId receiver = best->receiver;

    if (best->agent == -1) {
      const auto verdict = gate.check(spec.src, source_since, receiver, now);
      if (verdict == faults::FaultGate::Verdict::kCrashed) {
        // The source crash-rebooted: its remaining spray tickets (copies it
        // had yet to hand out) were flushed with its buffer. A later
        // retransmission re-arms the source from the reboot onward.
        source_flushes.inc();
        source_tickets = 0;
        source_since = now;
        continue;
      }
      if (verdict == faults::FaultGate::Verdict::kRetry) {
        // The spray ticket is NOT consumed; the source retries at its next
        // contact.
        source_retry_from = skip_past(now);
        continue;
      }
      // Source hands out one copy.
      hand_off(receiver);
      rm.tickets.inc();
      --source_tickets;

      Walker& w = spawn(receiver, cm.clone(gens[cur_gen].onion));
      if (!spray_and_wait) {
        peel(w, spec.src);  // the receiver is a member of R_1
      } else {
        cm.forward(w.circ, spec.src, receiver, Peel::carry());
      }
      // A blackhole receiver spends the ticket and counts as holding m, but
      // no live walker results.
      if (gate.absorbs(receiver)) w.done = true;
      continue;
    }

    // A walker forwards its copy.
    Walker& w = walkers[static_cast<std::size_t>(best->agent)];
    const auto verdict = gate.check(w.holder, w.arrival, receiver, now);
    if (verdict == faults::FaultGate::Verdict::kCrashed) {
      lost_to_crash.inc();
      w.done = true;  // the holder's buffered copy died in the crash
      continue;
    }
    if (verdict == faults::FaultGate::Verdict::kRetry) {
      w.retry_from = skip_past(now);
      continue;
    }
    hand_off(receiver);
    rm.hop_delay.observe(now - w.arrival);
    const NodeId sender = w.holder;
    w.holder = receiver;
    w.arrival = now;

    if (w.hop < k) {
      peel(w, sender);
    } else if (!group_mode) {
      cm.forward(w.circ, sender, spec.dst, Peel::inbox(spec.payload));
      deliver(w);
    } else {
      // Destination-group phase: r_K hands the onion to *any* member of
      // dst's group, which peels the group layer; the packet then walks
      // the group until dst opens the final layer. Relays and carriers
      // learn only the group.
      if (w.hop == k) {
        cm.forward(w.circ, sender, receiver, Peel::dest_group(dst_group));
        w.hop = k + 1;
      } else {
        cm.forward(w.circ, sender, receiver, Peel::carry());
        ++result.intra_group_hops;
      }
      w.group_visits.push_back(sender);
      if (receiver == spec.dst) {
        cm.forward(w.circ, CircuitManager::kNoSender, spec.dst,
                   Peel::inbox(spec.payload));
        deliver(w);
      }
    }
    // A blackhole relay or group member accepts the copy and never
    // forwards it; dst itself always opens it.
    if (!w.done && gate.absorbs(receiver)) w.done = true;
  }

  result.relay_groups = std::move(gens[0].groups);
  result.wire_cells = cm.wire_cells();
  result.wire_bytes = cm.wire_bytes();
  return result;
}

}  // namespace

SingleCopyOnionRouting::SingleCopyOnionRouting(const OnionContext& context)
    : ctx_(checked(context)) {}

DeliveryResult SingleCopyOnionRouting::route(
    sim::ContactModel& contacts, const MessageSpec& spec, util::Rng& rng,
    const std::vector<GroupId>* forced_groups) {
  if (spec.copies != 1) {
    throw std::invalid_argument("SingleCopyOnionRouting: copies must be 1");
  }
  return route_copies(ctx_, SprayMode::kSprayAndWait, contacts, spec, rng,
                      forced_groups);
}

MultiCopyOnionRouting::MultiCopyOnionRouting(const OnionContext& context,
                                             SprayMode mode)
    : ctx_(checked(context)), mode_(mode) {}

DeliveryResult MultiCopyOnionRouting::route(
    sim::ContactModel& contacts, const MessageSpec& spec, util::Rng& rng,
    const std::vector<GroupId>* forced_groups) {
  if (spec.copies == 0) {
    throw std::invalid_argument("MultiCopyOnionRouting: copies must be >= 1");
  }
  return route_copies(ctx_, mode_, contacts, spec, rng, forced_groups);
}

}  // namespace odtn::routing
