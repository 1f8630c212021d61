#include "sim/network_sim.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "faults/faults.hpp"
#include "recovery/recovery.hpp"
#include "routing/utility_forwarder.hpp"

namespace odtn::sim {

void ContactBandwidth::validate() const {
  if (mean_duration < 0.0 || transfer_time < 0.0) {
    throw std::invalid_argument(
        "bandwidth: duration model fields must be >= 0");
  }
  if ((mean_duration > 0.0) != (transfer_time > 0.0)) {
    throw std::invalid_argument(
        "bandwidth: mean_duration and transfer_time must be set together");
  }
}

double NetworkSimReport::delivery_rate() const {
  if (outcomes.empty()) return 0.0;
  std::size_t delivered = 0;
  for (const auto& o : outcomes) delivered += o.delivered;
  return static_cast<double>(delivered) / static_cast<double>(outcomes.size());
}

double NetworkSimReport::mean_delay() const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& o : outcomes) {
    if (o.delivered) {
      sum += o.delay;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

namespace {

constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

struct Copy {
  std::size_t msg;
  std::size_t hop;  // onion groups traversed so far (1..K)
  NodeId holder;
  Time arrival = 0.0;  // when the current holder received it
  bool alive = true;
  /// Utility-forwarder mode only: spray tickets this copy still owns.
  std::size_t tickets = 1;
  /// First time an eligible transfer of this copy was deferred by contact
  /// bandwidth; kTimeInfinity = not queued (feeds "sim.queue_wait").
  Time queued_since = kTimeInfinity;
  /// Recovery generation that sent this copy: 0 = the original send, n =
  /// the n-th retransmission. Each generation routes through its own
  /// freshly sampled relay groups; in-flight copies keep theirs.
  std::uint32_t gen = 0;
};

struct SourceToken {
  std::size_t tickets;
  bool alive = true;
  Time queued_since = kTimeInfinity;
  /// Generation the source is currently spraying (see Copy::gen).
  std::uint32_t gen = 0;
};

struct Engine {
  const trace::ContactTrace* trace;
  const groups::GroupDirectory* directory;
  const NetworkSimConfig* config;

  std::vector<InjectedMessage> messages;
  std::vector<std::uint8_t> priorities;  // empty = all class 0
  std::vector<std::vector<GroupId>> relay_groups;  // per message
  std::vector<SourceToken> tokens;                 // per message
  std::vector<std::unordered_set<NodeId>> seen;    // per message

  std::vector<Copy> copies;
  std::vector<std::vector<NodeId>> copy_paths;  // record_paths only
  std::vector<std::set<std::size_t>> holdings;  // node -> copy ids
  std::vector<std::size_t> load;                // node -> buffered items

  routing::UtilityForwarder* utility = nullptr;
  // Budget units one executed transfer consumes: 1, or cells_per_message
  // in wire mode (the budget is then cell-denominated).
  std::size_t cell_cost = 1;

  // Recovery layer (null = off; every recovery branch below is guarded on
  // this pointer so the zero-knob path is byte-identical to pre-recovery
  // builds: no RNG draws, no metrics entries, no behavior change).
  const recovery::RecoveryConfig* rec = nullptr;
  recovery::SuspicionTracker* suspicion = nullptr;
  std::optional<recovery::SuspicionTracker> own_tracker;
  std::size_t tracker_flips_at_start = 0;
  /// node -> delivery ACKs known (ordered: the exchange fold is
  /// deterministic and lint-clean).
  std::vector<std::set<std::size_t>> ack_known;
  std::vector<std::uint8_t> ack_exists;  // msg -> ACK record born at dst
  std::vector<std::uint8_t> src_acked;   // msg -> source learned the ACK
  std::vector<std::size_t> retx_attempts;      // msg -> retransmissions so far
  std::vector<double> retx_interval;           // msg -> current backoff interval
  std::vector<std::uint32_t> delivered_gen;    // msg -> generation that delivered
  /// msg -> relay groups of generation n at [n-1] (generation 0 lives in
  /// relay_groups, untouched by recovery).
  std::vector<std::vector<std::vector<GroupId>>> retx_groups;
  /// Per-message recovery RNG sub-streams: jitter and retry group
  /// resampling draw from derive_seed(recovery_seed, msg index), so the
  /// draw sequence is independent of event interleaving across messages
  /// and the main simulation RNG is never consulted.
  std::vector<util::Rng> msg_rng;
  // (due time, msg); at most one outstanding entry per message.
  std::priority_queue<std::pair<Time, std::size_t>,
                      std::vector<std::pair<Time, std::size_t>>,
                      std::greater<>>
      retx_due;
  recovery::SaturationWindow sat_window;
  std::vector<std::size_t> ack_diff_scratch;  // exchange_acks reuse

  // Observability handles (inert when config->metrics is null).
  metrics::CounterHandle m_transfers;
  metrics::CounterHandle m_rejections;
  metrics::CounterHandle m_evictions;
  metrics::CounterHandle m_expirations;
  metrics::CounterHandle m_injection_failures;
  metrics::CounterHandle m_deliveries;
  metrics::HistogramHandle m_hop_delay;
  metrics::HistogramHandle m_delivery_delay;
  // Fault accounting (resolved only when a FaultPlan is attached, so the
  // fault-free metrics export stays byte-identical).
  metrics::CounterHandle m_suppressed;
  metrics::CounterHandle m_transfer_failures;
  metrics::CounterHandle m_crash_flushed;
  metrics::CounterHandle m_blackhole_absorbed;
  // Congestion accounting (resolved only when a load knob is on —
  // bandwidth, priorities, utility forwarder, wire cells — same
  // byte-identity contract as the fault handles).
  metrics::CounterHandle m_queue_deferred;
  metrics::CounterHandle m_contacts_saturated;
  metrics::HistogramHandle m_queue_wait;
  metrics::HistogramHandle m_contact_capacity;
  // Recovery accounting (resolved only when the recovery layer is
  // enabled — same byte-identity contract again).
  // Wire accounting (resolved only in wire mode — same contract).
  metrics::CounterHandle m_wire_cells;
  metrics::CounterHandle m_wire_bytes;
  metrics::CounterHandle m_retransmits;
  metrics::HistogramHandle m_ack_delay;
  metrics::CounterHandle m_shed;
  metrics::CounterHandle m_acks_created;
  metrics::CounterHandle m_acked_at_source;
  metrics::CounterHandle m_ack_gc;
  metrics::CounterHandle m_suspicion_flips;
  std::size_t crash_cursor = 0;

  // (deadline, kind, id): kind 0 = source token (id = msg), 1 = copy.
  using Expiry = std::tuple<Time, int, std::size_t>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiries;

  // Reused snapshot of a node's holdings, taken wherever the loop body
  // mutates the set it walks (crash flush, ACK vaccination); one buffer
  // serves every call site since the snapshots never overlap in time.
  std::vector<std::size_t> holdings_scratch;

  // One contact's transfer candidates, reused.
  struct Cand {
    std::uint8_t pri;
    std::uint32_t seq;   // collection order
    std::uint8_t kind;   // 0 = source token, 1 = copy
    std::size_t id;      // msg index (kind 0) or copy id (kind 1)
    NodeId sender;
    NodeId receiver;
  };
  std::vector<Cand> cand_scratch;

  NetworkSimReport report;

  std::uint8_t pri(std::size_t m) const {
    return priorities.empty() ? 0 : priorities[m];
  }

  bool buffer_full(NodeId v) const {
    return config->buffer_capacity != 0 &&
           load[v] >= config->buffer_capacity;
  }

  // Tries to admit one more item at `v`, applying the buffer policy.
  // Returns false if the node stays full (transfer must be refused).
  bool make_room(NodeId v, std::size_t msg) {
    if (!buffer_full(v)) return true;
    if (config->policy == BufferPolicy::kRejectNew) {
      ++report.outcomes[msg].buffer_rejections;
      ++report.total_buffer_rejections;
      m_rejections.inc();
      return false;
    }
    // kDropOldest: evict the relayed copy that has waited longest.
    // Locally-originated state is never evicted: source tokens are not
    // copies at all, and (utility mode) a copy still held by its own
    // source is skipped. Tie-break on equal arrival times: the scan walks
    // the ordered holdings set and keeps the *first* minimum, so the
    // lowest copy id — the earliest-created copy — wins deterministically.
    std::size_t victim = SIZE_MAX;
    Time oldest = kTimeInfinity;
    for (std::size_t id : holdings[v]) {
      if (!copies[id].alive) continue;
      if (copies[id].holder == messages[copies[id].msg].src) continue;
      if (copies[id].arrival < oldest) {
        oldest = copies[id].arrival;
        victim = id;
      }
    }
    if (victim == SIZE_MAX) {
      ++report.outcomes[msg].buffer_rejections;
      ++report.total_buffer_rejections;
      m_rejections.inc();
      return false;
    }
    copies[victim].alive = false;
    holdings[v].erase(victim);
    --load[v];
    ++report.evicted_copies;
    m_evictions.inc();
    return true;
  }

  Time deadline_of(std::size_t msg) const {
    return messages[msg].start + messages[msg].ttl;
  }

  /// Relay groups of one recovery generation of message m (generation 0
  /// is the original selection; later generations were freshly sampled at
  /// retransmission time).
  const std::vector<GroupId>& groups_of(std::size_t m,
                                        std::uint32_t gen) const {
    return gen == 0 ? relay_groups[m] : retx_groups[m][gen - 1];
  }

  /// Overload shedding (recovery layer): admission control may refuse a
  /// sheddable-priority message when either congestion signal crossed its
  /// threshold. Pure function of simulated state — no RNG.
  bool should_shed(std::size_t m) const {
    if (rec == nullptr || !rec->shedding()) return false;
    if (pri(m) < rec->shed_priority_floor) return false;
    if (rec->shed_occupancy > 0.0 && config->buffer_capacity > 0 &&
        static_cast<double>(load[messages[m].src]) >=
            rec->shed_occupancy *
                static_cast<double>(config->buffer_capacity)) {
      return true;
    }
    return rec->shed_saturation > 0.0 &&
           sat_window.fraction() >= rec->shed_saturation;
  }

  void inject(std::size_t m) {
    const auto& msg = messages[m];
    if (should_shed(m)) {
      report.outcomes[m].shed = true;
      ++report.shed_messages;
      m_shed.inc();
      return;
    }
    if (buffer_full(msg.src)) {
      report.outcomes[m].injection_failed = true;
      m_injection_failures.inc();
      return;
    }
    if (rec != nullptr && rec->retx_timeout > 0.0) {
      retx_interval[m] = rec->retx_timeout;
      schedule_retx(m, msg.start);
    }
    if (utility != nullptr) {
      // Utility mode: the source holds a real copy carrying all L spray
      // tickets (no token/relay-group machinery).
      place_copy(m, 0, msg.src, msg.start, msg.copies, 0);
      return;
    }
    tokens[m].tickets = msg.copies;
    tokens[m].alive = true;
    ++load[msg.src];
    seen[m].insert(msg.src);
    expiries.emplace(deadline_of(m), 0, m);
  }

  // Pops exactly one expiry-heap entry (the caller checked it is due).
  void expire_one() {
    auto [deadline, kind, id] = expiries.top();
    expiries.pop();
    if (kind == 0) {
      if (tokens[id].alive) {
        tokens[id].alive = false;
        --load[messages[id].src];
        ++report.expired_copies;
        m_expirations.inc();
      }
    } else if (copies[id].alive) {
      copies[id].alive = false;
      holdings[copies[id].holder].erase(id);
      --load[copies[id].holder];
      ++report.expired_copies;
      m_expirations.inc();
    }
  }

  // Processes exactly one crash-reboot event (the caller checked it is
  // due): the crashed node's buffered copies — relayed copies and its own
  // spray state — are flushed. Lost, not leaked: a flushed copy simply
  // ceases to exist. The node's learned ACK set survives (it is durable
  // metadata, not buffered payload).
  void flush_one_crash() {
    const auto& events = config->faults->crashes();
    NodeId v = events[crash_cursor].node;
    ++crash_cursor;
    holdings_scratch.assign(holdings[v].begin(), holdings[v].end());
    for (std::size_t id : holdings_scratch) {
      if (!copies[id].alive) continue;
      copies[id].alive = false;
      holdings[v].erase(id);
      --load[v];
      ++report.crash_flushed_copies;
      m_crash_flushed.inc();
    }
    for (std::size_t m = 0; m < messages.size(); ++m) {
      if (tokens[m].alive && messages[m].src == v) {
        tokens[m].alive = false;
        --load[v];
        ++report.crash_flushed_copies;
        m_crash_flushed.inc();
      }
    }
  }

  // Advances simulated time to t, interleaving TTL expirations (due
  // strictly before t) and crash-reboots (due at or before t) in global
  // timestamp order. The interleave matters under churn: a copy whose
  // holder crash-reboots at c and whose TTL runs out at e > c must be
  // reclaimed by the crash (crash_flushed_copies), not counted as expired
  // — and vice versa — so buffer-occupancy metrics and kDropOldest
  // pressure stay accurate between events. Ties (expiry == crash time)
  // expire first, matching the historical all-expiries-then-crashes pass.
  void advance_time(Time t) {
    if (config->faults == nullptr) {
      while (!expiries.empty() && std::get<0>(expiries.top()) < t) {
        expire_one();
      }
      return;
    }
    const auto& crashes = config->faults->crashes();
    for (;;) {
      const Time next_expiry = expiries.empty()
                                   ? kTimeInfinity
                                   : std::get<0>(expiries.top());
      const Time next_crash = crash_cursor < crashes.size()
                                  ? crashes[crash_cursor].time
                                  : kTimeInfinity;
      if (next_expiry < t && next_expiry <= next_crash) {
        expire_one();
      } else if (next_crash <= t) {
        flush_one_crash();
      } else {
        return;
      }
    }
  }

  // --- recovery layer -------------------------------------------------
  // Every method below is reached only with the layer enabled (rec !=
  // nullptr); the zero-knob engine never calls them.

  /// A copy of generation `gen` just delivered message m to `dst` via the
  /// final relay `sender`: the ACK record is born (exactly once per
  /// message) and both contact endpoints learn it immediately.
  void born_ack(std::size_t m, std::uint32_t gen, NodeId sender, NodeId dst,
                Time t) {
    if (rec == nullptr || !rec->acks || ack_exists[m]) return;
    ack_exists[m] = 1;
    delivered_gen[m] = gen;
    ++report.acks_created;
    m_acks_created.inc();
    learn_ack(dst, m, t);
    learn_ack(sender, m, t);
  }

  /// Node v learns the delivery ACK of message m: its outstanding copies
  /// of m are garbage-collected (vaccine), and — at the source — the
  /// pending retransmission is canceled, the ack delay recorded, and the
  /// delivering generation's groups exonerated in the suspicion tracker.
  void learn_ack(NodeId v, std::size_t m, Time t) {
    if (!ack_known[v].insert(m).second) return;
    holdings_scratch.assign(holdings[v].begin(), holdings[v].end());
    for (std::size_t id : holdings_scratch) {
      if (!copies[id].alive || copies[id].msg != m) continue;
      copies[id].alive = false;
      holdings[v].erase(id);
      --load[v];
      ++report.ack_gc_copies;
      m_ack_gc.inc();
    }
    if (messages[m].src != v) return;
    if (tokens[m].alive) {
      // The source stops spraying a message it knows was delivered.
      tokens[m].alive = false;
      --load[v];
      ++report.ack_gc_copies;
      m_ack_gc.inc();
    }
    if (!src_acked[m]) {
      src_acked[m] = 1;
      ++report.acked_at_source;
      m_acked_at_source.inc();
      m_ack_delay.observe(t - messages[m].start);
      if (suspicion != nullptr && utility == nullptr) {
        for (GroupId g : groups_of(m, delivered_gen[m])) {
          suspicion->record(g, /*acked=*/true);
        }
      }
    }
  }

  /// Anti-packet exchange at a surviving contact: both endpoints end up
  /// knowing the union of their ACK sets. Metadata-sized, so it consumes
  /// no contact bandwidth budget.
  void exchange_acks(NodeId a, NodeId b, Time t) {
    auto pull = [&](NodeId to, NodeId from) {
      ack_diff_scratch.clear();
      std::set_difference(ack_known[from].begin(), ack_known[from].end(),
                          ack_known[to].begin(), ack_known[to].end(),
                          std::back_inserter(ack_diff_scratch));
      for (std::size_t m : ack_diff_scratch) learn_ack(to, m, t);
    };
    pull(a, b);
    pull(b, a);
  }

  /// Arms the next retransmission timer for m from `from`, consuming one
  /// jitter draw from the message's recovery sub-stream. The interval
  /// grows by retx_backoff per attempt; timers past the message deadline
  /// or the attempt cap are not armed.
  void schedule_retx(std::size_t m, Time from) {
    double interval = retx_interval[m];
    if (rec->retx_jitter > 0.0) {
      interval *= 1.0 + rec->retx_jitter * (2.0 * msg_rng[m].uniform01() - 1.0);
    }
    retx_interval[m] *= rec->retx_backoff;
    const Time due = from + interval;
    if (due <= deadline_of(m) && retx_attempts[m] < rec->retx_max) {
      retx_due.emplace(due, m);
    }
  }

  /// Fires every due retransmission timer up to time t, in due-time order
  /// (ties by message index — the pair ordering of the heap).
  void process_retx_until(Time t) {
    while (!retx_due.empty() && retx_due.top().first <= t) {
      auto [due, m] = retx_due.top();
      retx_due.pop();
      if (src_acked[m]) continue;  // ACK arrived: retransmission canceled
      // The timeout is the sender's failure signal: the timed-out
      // generation's relay groups take a suspicion penalty.
      if (suspicion != nullptr && utility == nullptr) {
        for (GroupId g : groups_of(m, tokens[m].gen)) {
          suspicion->record(g, /*acked=*/false);
        }
      }
      if (retx_attempts[m] >= rec->retx_max) continue;
      retransmit(m, due);
      schedule_retx(m, due);
    }
  }

  /// Re-onions message m at time t: a fresh generation through freshly
  /// sampled relay groups (suspicion-biased when the tracker is on), and
  /// a full ticket allotment at the source. Utility mode re-injects a
  /// fresh spray copy instead (no relay groups to sample).
  void retransmit(std::size_t m, Time t) {
    const auto& msg = messages[m];
    ++retx_attempts[m];
    ++report.retransmissions;
    ++report.outcomes[m].retransmissions;
    m_retransmits.inc();
    if (utility != nullptr) {
      if (buffer_full(msg.src)) return;  // no room: the attempt is spent
      place_copy(m, 0, msg.src, t, msg.copies, 0);
      return;
    }
    retx_groups[m].push_back(
        suspicion != nullptr
            ? recovery::select_relay_groups_avoiding(
                  *directory, *suspicion, msg.src, msg.dst, msg.num_relays,
                  msg_rng[m])
            : directory->select_relay_groups(msg.src, msg.dst,
                                             msg.num_relays, msg_rng[m]));
    tokens[m].gen = static_cast<std::uint32_t>(retx_groups[m].size());
    tokens[m].tickets = msg.copies;
    if (!tokens[m].alive) {
      if (buffer_full(msg.src)) {
        tokens[m].tickets = 0;
        return;  // no room to re-enqueue: the attempt is spent
      }
      tokens[m].alive = true;
      ++load[msg.src];
      expiries.emplace(deadline_of(m), 0, m);
    }
  }

  // Whether `receiver` is a valid next hop for message m at `hop` of
  // recovery generation `gen` (always 0 without the recovery layer).
  bool qualifies(std::size_t m, std::uint32_t gen, std::size_t hop,
                 NodeId receiver) const {
    const auto& msg = messages[m];
    if (seen[m].count(receiver) > 0) return false;  // Forward() dedup
    if (hop < msg.num_relays) {
      return directory->in_group(receiver, groups_of(m, gen)[hop]);
    }
    return receiver == msg.dst;
  }

  // Flushes a completed queue-wait interval into "sim.queue_wait".
  void note_served(Time& queued_since, Time t) {
    if (queued_since != kTimeInfinity) {
      m_queue_wait.observe(t - queued_since);
      queued_since = kTimeInfinity;
    }
  }

  // record_paths bookkeeping: `receiver` just became copy `id`'s relay at
  // 0-based hop position `pos` (the copy's path extends; the per-message
  // hop set dedups across copies).
  void record_relay(std::size_t id, std::size_t pos, NodeId receiver) {
    if (!config->record_paths) return;
    copy_paths[id].push_back(receiver);
    auto& rph = report.outcomes[copies[id].msg].relays_per_hop;
    if (rph.size() <= pos) rph.resize(pos + 1);
    auto& at = rph[pos];
    if (std::find(at.begin(), at.end(), receiver) == at.end()) {
      at.push_back(receiver);
    }
  }

  // --- transfer eligibility + execution ------------------------------
  // drain() checks eligibility, the contact budget and the fault draw; an
  // attempt_* helper then performs the transfer and returns true iff it
  // executed (the unit that consumes contact bandwidth). Buffer refusals
  // return false and consume nothing.

  // Creates a live copy of message m at `holder` (buffer slot, holdings
  // entry, dedup mark, TTL expiry, empty record_paths path) and returns
  // its id. May reallocate `copies`.
  std::size_t place_copy(std::size_t m, std::size_t hop, NodeId holder, Time t,
                         std::size_t tickets, std::uint32_t gen) {
    const std::size_t id = copies.size();
    copies.push_back({m, hop, holder, t, true, tickets, kTimeInfinity, gen});
    if (config->record_paths) copy_paths.emplace_back();
    holdings[holder].insert(id);
    ++load[holder];
    seen[m].insert(holder);
    expiries.emplace(deadline_of(m), 1, id);
    return id;
  }

  // One executed transfer of message m; `since` is when the sender got
  // what it forwards (the hop-delay origin).
  void count_transfer(std::size_t m, Time since, Time t) {
    ++report.outcomes[m].transmissions;
    ++report.total_transmissions;
    m_transfers.inc();
    m_hop_delay.observe(t - since);
  }

  void note_blackhole(NodeId receiver) {
    faults::FaultPlan* fp = config->faults;
    if (fp != nullptr && fp->is_blackhole(receiver)) {
      ++report.blackhole_absorbed;
      m_blackhole_absorbed.inc();
    }
  }

  // Copy `id` reaches its destination, which consumes it (no buffer
  // cost); the first arrival delivers the message and bears its ACK.
  void deliver(std::size_t id, NodeId sender, NodeId receiver, Time t) {
    Copy& c = copies[id];
    const std::size_t m = c.msg;
    count_transfer(m, c.arrival, t);
    seen[m].insert(receiver);
    MessageOutcome& out = report.outcomes[m];
    if (!out.delivered) {
      out.delivered = true;
      out.delay = t - messages[m].start;
      m_deliveries.inc();
      m_delivery_delay.observe(out.delay);
      if (config->record_paths) out.relay_path = copy_paths[id];
    }
    c.alive = false;
    holdings[sender].erase(id);
    --load[sender];
    note_served(c.queued_since, t);
    born_ack(m, c.gen, sender, receiver, t);
  }

  bool token_eligible(std::size_t m, NodeId sender, NodeId receiver,
                      Time t) const {
    return tokens[m].alive && messages[m].src == sender &&
           t <= deadline_of(m) && qualifies(m, tokens[m].gen, 0, receiver);
  }

  // Source token: hand a fresh copy into R_1, spending one spray ticket.
  bool attempt_token(std::size_t m, NodeId sender, NodeId receiver, Time t) {
    if (!make_room(receiver, m)) return false;
    // num_relays >= 1 (checked up front), so hop 1 is a relay position.
    const std::size_t id = place_copy(m, 1, receiver, t, 1, tokens[m].gen);
    record_relay(id, 0, receiver);
    count_transfer(m, messages[m].start, t);
    note_blackhole(receiver);
    if (--tokens[m].tickets == 0) {
      tokens[m].alive = false;
      --load[sender];
    }
    note_served(tokens[m].queued_since, t);
    return true;
  }

  bool copy_eligible(std::size_t id, NodeId sender, NodeId receiver,
                     Time t) const {
    const Copy& c = copies[id];
    return c.alive && c.holder == sender && t <= deadline_of(c.msg) &&
           qualifies(c.msg, c.gen, c.hop, receiver);
  }

  bool attempt_copy(std::size_t id, NodeId sender, NodeId receiver, Time t) {
    Copy& c = copies[id];
    const std::size_t m = c.msg;
    if (receiver == messages[m].dst && c.hop == messages[m].num_relays) {
      deliver(id, sender, receiver, t);
      return true;
    }
    if (!make_room(receiver, m)) return false;
    if (!c.alive) return false;  // evicted by make_room on its own holder
    // Forward and free the sender's slot (single ticket per copy).
    count_transfer(m, c.arrival, t);
    holdings[sender].erase(id);
    --load[sender];
    record_relay(id, c.hop, receiver);
    c.holder = receiver;
    c.arrival = t;
    ++c.hop;
    holdings[receiver].insert(id);
    ++load[receiver];
    seen[m].insert(receiver);
    note_blackhole(receiver);
    note_served(c.queued_since, t);
    return true;
  }

  // Utility-forwarder mode: a copy may deliver to the destination or
  // binary-split its spray tickets toward a higher-utility, uncongested
  // custodian. Decisions are pure functions of simulated state (no RNG).
  bool ucopy_eligible(std::size_t id, NodeId sender, NodeId receiver,
                      Time t) const {
    const Copy& c = copies[id];
    if (!c.alive || c.holder != sender || t > deadline_of(c.msg)) {
      return false;
    }
    std::size_t m = c.msg;
    if (seen[m].count(receiver) > 0) return false;
    if (receiver == messages[m].dst) return true;
    return c.tickets > 1 &&
           utility->should_replicate(sender, receiver, messages[m].dst,
                                     load[receiver],
                                     config->buffer_capacity);
  }

  bool attempt_ucopy(std::size_t id, NodeId sender, NodeId receiver, Time t) {
    const std::size_t m = copies[id].msg;
    if (receiver == messages[m].dst) {
      deliver(id, sender, receiver, t);
      return true;
    }
    if (!make_room(receiver, m)) return false;
    if (!copies[id].alive) return false;  // evicted out from under us
    // Replicate: the receiver takes half the tickets, the sender keeps
    // the rest (spray-and-wait binary splitting).
    const std::size_t give = copies[id].tickets / 2;  // >= 1: tickets > 1
    const std::size_t hop = copies[id].hop;
    const std::size_t id2 = place_copy(m, hop + 1, receiver, t, give, 0);
    if (config->record_paths) copy_paths[id2] = copy_paths[id];
    record_relay(id2, hop, receiver);
    Copy& c = copies[id];  // resolved after place_copy, which may reallocate
    c.tickets -= give;
    count_transfer(m, c.arrival, t);
    note_blackhole(receiver);
    note_served(c.queued_since, t);
    return true;
  }

  // One contact's transfers. Both directions' candidates are collected
  // against the state at contact start (a->b source tokens in message
  // order, then a->b copies in copy-id order, then b->a likewise), sorted
  // by (priority, collection order), and executed within the shared
  // budget: kUnlimited without a bandwidth model, cell-denominated in
  // wire mode (each executed transfer spends cell_cost units and lands in
  // the sim.wire_* accounting). Eligibility is re-checked at execution —
  // an earlier transfer may have evicted a candidate or spent a token —
  // and eligible candidates past the budget are deferred to a later
  // contact (that wait is "sim.queue_wait"). Nothing at b becomes newly
  // eligible for a after an a->b transfer (a is in the seen set of every
  // copy it sent), so with one priority class and no budget limit this is
  // exactly Algorithms 1-2 applied a->b, then b->a.
  void drain(NodeId a, NodeId b, Time t, std::size_t budget) {
    faults::FaultPlan* fp = config->faults;
    cand_scratch.clear();
    std::uint32_t seq = 0;
    auto collect = [&](NodeId sender, NodeId receiver) {
      // Blackholes accept copies but never forward them.
      if (fp != nullptr && fp->is_blackhole(sender)) return;
      if (utility != nullptr) {
        for (std::size_t id : holdings[sender]) {
          if (!ucopy_eligible(id, sender, receiver, t)) continue;
          cand_scratch.push_back(
              {pri(copies[id].msg), seq++, 1, id, sender, receiver});
        }
        return;
      }
      for (std::size_t m = 0; m < messages.size(); ++m) {
        if (!token_eligible(m, sender, receiver, t)) continue;
        cand_scratch.push_back({pri(m), seq++, 0, m, sender, receiver});
      }
      for (std::size_t id : holdings[sender]) {
        if (!copy_eligible(id, sender, receiver, t)) continue;
        cand_scratch.push_back(
            {pri(copies[id].msg), seq++, 1, id, sender, receiver});
      }
    };
    collect(a, b);
    collect(b, a);
    // (pri, seq) pairs are unique, so plain sort is a total order.
    std::sort(cand_scratch.begin(), cand_scratch.end(),
              [](const Cand& x, const Cand& y) {
                if (x.pri != y.pri) return x.pri < y.pri;
                return x.seq < y.seq;
              });

    std::size_t executed = 0;
    bool saturated = false;
    for (const Cand& c : cand_scratch) {
      const bool eligible =
          utility != nullptr ? ucopy_eligible(c.id, c.sender, c.receiver, t)
          : c.kind == 0      ? token_eligible(c.id, c.sender, c.receiver, t)
                             : copy_eligible(c.id, c.sender, c.receiver, t);
      if (!eligible) continue;
      if (executed + cell_cost > budget) {
        // Out of bandwidth: the item starts (or continues) queueing.
        saturated = true;
        ++report.queue_deferred;
        m_queue_deferred.inc();
        Time& qs = c.kind == 0 ? tokens[c.id].queued_since
                               : copies[c.id].queued_since;
        if (qs == kTimeInfinity) qs = t;
        continue;
      }
      // Mid-contact failure: the sender keeps its copy and spray ticket,
      // and the receiver stays eligible for a retry at a later contact.
      const bool lost =
          fp != nullptr && fp->transfer_fails(c.sender, c.receiver);
      if (lost) {
        ++report.transfer_failures;
        m_transfer_failures.inc();
      }
      const bool done =
          !lost &&
          (utility != nullptr ? attempt_ucopy(c.id, c.sender, c.receiver, t)
           : c.kind == 0      ? attempt_token(c.id, c.sender, c.receiver, t)
                              : attempt_copy(c.id, c.sender, c.receiver, t));
      if (utility != nullptr && (lost || done)) {
        utility->observe_transfer_outcome(c.receiver, done);
      }
      if (!done) continue;
      executed += cell_cost;
      if (config->cells_per_message > 0) {
        report.wire_cells += config->cells_per_message;
        report.wire_bytes += config->cells_per_message * config->cell_size;
        m_wire_cells.inc(config->cells_per_message);
        m_wire_bytes.inc(config->cells_per_message * config->cell_size);
      }
    }
    if (executed > report.max_contact_transfers) {
      report.max_contact_transfers = executed;
    }
    if (saturated) {
      ++report.contacts_saturated;
      m_contacts_saturated.inc();
    }
    if (rec != nullptr && rec->shed_saturation > 0.0) {
      sat_window.record(saturated);
    }
  }

  NetworkSimReport run(util::Rng& rng) {
    utility = config->utility;
    const bool bandwidth_on = config->bandwidth.enabled();
    const bool wire_on = config->cells_per_message > 0;
    if (wire_on) cell_cost = config->cells_per_message;
    bool priorities_on = false;
    for (std::uint8_t p : priorities) priorities_on |= (p != 0);
    rec = (config->recovery != nullptr && config->recovery->enabled())
              ? config->recovery
              : nullptr;

    metrics::Registry* reg = config->metrics;
    m_transfers = metrics::counter(reg, "sim.transfers");
    m_rejections = metrics::counter(reg, "sim.buffer_rejections");
    m_evictions = metrics::counter(reg, "sim.evictions");
    m_expirations = metrics::counter(reg, "sim.expirations");
    m_injection_failures = metrics::counter(reg, "sim.injection_failures");
    m_deliveries = metrics::counter(reg, "sim.deliveries");
    m_hop_delay = metrics::histogram(reg, "sim.hop_delay");
    m_delivery_delay = metrics::histogram(reg, "sim.delivery_delay");
    metrics::counter(reg, "sim.messages").inc(messages.size());
    if (config->faults != nullptr) {
      // Resolved only under an active fault plan so the fault-free metrics
      // export carries no faults.* entries (byte-identity contract).
      m_suppressed = metrics::counter(reg, "faults.contacts_suppressed");
      m_transfer_failures = metrics::counter(reg, "faults.transfer_failures");
      m_crash_flushed = metrics::counter(reg, "faults.crash_flushed_copies");
      m_blackhole_absorbed = metrics::counter(reg, "faults.blackhole_absorbed");
      metrics::counter(reg, "faults.blackhole_nodes")
          .inc(config->faults->blackhole_count());
    }
    if (bandwidth_on || priorities_on || utility != nullptr || wire_on) {
      // Same contract: the unloaded export carries no sim.queue_* entries.
      m_queue_deferred = metrics::counter(reg, "sim.queue_deferred");
      m_contacts_saturated = metrics::counter(reg, "sim.contacts_saturated");
      m_queue_wait = metrics::histogram(reg, "sim.queue_wait");
      if (bandwidth_on) {
        m_contact_capacity = metrics::histogram(reg, "sim.contact_capacity");
      }
      if (wire_on) {
        // And once more: the wire-off export carries no sim.wire_* entries.
        m_wire_cells = metrics::counter(reg, "sim.wire_cells");
        m_wire_bytes = metrics::counter(reg, "sim.wire_bytes");
      }
    }
    if (rec != nullptr) {
      // Same contract once more: the recovery-free export carries no
      // recovery.* entries.
      m_retransmits = metrics::counter(reg, "recovery.retransmits");
      m_ack_delay = metrics::histogram(reg, "recovery.ack_delay");
      m_shed = metrics::counter(reg, "recovery.shed_messages");
      m_acks_created = metrics::counter(reg, "recovery.acks_created");
      m_acked_at_source = metrics::counter(reg, "recovery.acked_at_source");
      m_ack_gc = metrics::counter(reg, "recovery.ack_gc_copies");
      m_suspicion_flips = metrics::counter(reg, "recovery.suspicion_flips");

      ack_known.assign(trace->node_count(), {});
      ack_exists.assign(messages.size(), 0);
      src_acked.assign(messages.size(), 0);
      delivered_gen.assign(messages.size(), 0);
      if (rec->retx_timeout > 0.0) {
        retx_attempts.assign(messages.size(), 0);
        retx_interval.assign(messages.size(), 0.0);
        retx_groups.assign(messages.size(), {});
        msg_rng.reserve(messages.size());
        for (std::size_t m = 0; m < messages.size(); ++m) {
          msg_rng.emplace_back(util::derive_seed(config->recovery_seed, m));
        }
      }
      if (rec->suspicion_alpha > 0.0) {
        suspicion = config->suspicion;
        if (suspicion == nullptr) {
          own_tracker.emplace(rec->suspicion_alpha, rec->suspicion_threshold);
          suspicion = &*own_tracker;
        }
        tracker_flips_at_start = suspicion->flips();
      }
      if (rec->shed_saturation > 0.0) {
        sat_window = recovery::SaturationWindow();
      }
    }

    report.outcomes.assign(messages.size(), {});
    tokens.assign(messages.size(), SourceToken{0, false, kTimeInfinity});
    seen.assign(messages.size(), {});
    holdings.assign(trace->node_count(), {});
    load.assign(trace->node_count(), 0);

    // Select relay groups per message (skipped — with no RNG drawn — in
    // utility-forwarder mode, which routes without onion groups).
    if (utility == nullptr) {
      relay_groups.resize(messages.size());
      for (std::size_t m = 0; m < messages.size(); ++m) {
        relay_groups[m] = directory->select_relay_groups(
            messages[m].src, messages[m].dst, messages[m].num_relays, rng);
      }
    }

    // Injection order by start time.
    std::vector<std::size_t> order(messages.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return messages[a].start < messages[b].start;
    });

    faults::FaultPlan* fp = config->faults;
    std::size_t next_injection = 0;
    for (const auto& event : trace->events()) {
      while (next_injection < order.size() &&
             messages[order[next_injection]].start <= event.time) {
        advance_time(messages[order[next_injection]].start);
        if (rec != nullptr && rec->retx_timeout > 0.0) {
          process_retx_until(messages[order[next_injection]].start);
        }
        inject(order[next_injection]);
        ++next_injection;
      }
      advance_time(event.time);
      if (rec != nullptr && rec->retx_timeout > 0.0) {
        process_retx_until(event.time);
      }
      if (fp != nullptr) {
        if (!fp->node_up(event.a, event.time) ||
            !fp->node_up(event.b, event.time)) {
          ++report.suppressed_contacts;
          m_suppressed.inc();
          continue;
        }
      }
      if (rec != nullptr && rec->acks) {
        // Anti-packets ride every surviving contact, ahead of payload
        // transfers: a vaccine may free buffer space the transfers below
        // then use.
        exchange_acks(event.a, event.b, event.time);
      }
      if (utility != nullptr) {
        // The forwarder learns from every surviving contact, including
        // the one it is about to route over.
        utility->observe_contact(event.a, event.b, event.time);
      }
      std::size_t budget = kUnlimited;
      if (bandwidth_on) {
        const auto& bw = config->bandwidth;
        if (bw.mean_duration > 0.0) {
          const double duration = rng.exponential(1.0 / bw.mean_duration);
          budget = static_cast<std::size_t>(duration / bw.transfer_time);
        } else {
          budget = bw.messages_per_contact;
        }
        m_contact_capacity.observe(static_cast<double>(budget));
      }
      drain(event.a, event.b, event.time, budget);
    }
    // Messages injected after the last event never move, but simulated
    // time still advances to each injection instant: expired and
    // crash-flushed copies are reclaimed first, so the source's
    // buffer-occupancy check sees live copies only (a stale-buffer
    // injection failure here would be an accounting artifact).
    while (next_injection < order.size()) {
      advance_time(messages[order[next_injection]].start);
      inject(order[next_injection]);
      ++next_injection;
    }
    if (suspicion != nullptr) {
      report.suspicion_flips = suspicion->flips() - tracker_flips_at_start;
      m_suspicion_flips.inc(report.suspicion_flips);
    }
    return std::move(report);
  }
};

}  // namespace

NetworkSimReport run_network_sim(const trace::ContactTrace& trace,
                                 const groups::GroupDirectory& directory,
                                 std::vector<InjectedMessage> messages,
                                 std::vector<std::uint8_t> priorities,
                                 const NetworkSimConfig& config,
                                 util::Rng& rng) {
  if (trace.node_count() != directory.node_count()) {
    throw std::invalid_argument("run_network_sim: node count mismatch");
  }
  if (config.faults != nullptr &&
      config.faults->node_count() != trace.node_count()) {
    throw std::invalid_argument("run_network_sim: fault plan node count mismatch");
  }
  if (!priorities.empty() && priorities.size() != messages.size()) {
    throw std::invalid_argument(
        "run_network_sim: priorities must be empty or parallel to messages");
  }
  if (config.cells_per_message > 0 && config.cell_size == 0) {
    throw std::invalid_argument(
        "run_network_sim: wire mode needs cell_size > 0");
  }
  config.bandwidth.validate();
  if (config.recovery != nullptr) {
    config.recovery->validate();
  }
  const bool utility_mode = config.utility != nullptr;
  if (utility_mode &&
      config.utility->node_count() != trace.node_count()) {
    throw std::invalid_argument(
        "run_network_sim: utility forwarder node count mismatch");
  }
  for (const auto& m : messages) {
    if (m.src == m.dst) {
      throw std::invalid_argument("run_network_sim: src == dst");
    }
    if (m.src >= trace.node_count() || m.dst >= trace.node_count()) {
      throw std::invalid_argument("run_network_sim: unknown endpoint");
    }
    if (!utility_mode && m.num_relays == 0) {
      throw std::invalid_argument("run_network_sim: need >= 1 relay group");
    }
    if (m.copies == 0) {
      throw std::invalid_argument("run_network_sim: copies must be >= 1");
    }
  }
  Engine engine;
  engine.trace = &trace;
  engine.directory = &directory;
  engine.config = &config;
  engine.messages = std::move(messages);
  engine.priorities = std::move(priorities);
  return engine.run(rng);
}

}  // namespace odtn::sim
