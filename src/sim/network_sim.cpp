#include "sim/network_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "faults/faults.hpp"
#include "recovery/recovery.hpp"
#include "routing/utility_forwarder.hpp"

namespace odtn::sim {

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

// In onion mode copy m is message m's source copy: it holds the L spray
// tickets at the source from injection until the last is spent, and
// relayed copies get ids from M up. So a node's holdings list its source
// copies first, in message order, then its relayed copies in creation
// order. Utility mode places source copies at injection instead: a
// utility copy splits its tickets like any other.
struct Copy {
  std::size_t msg;
  std::size_t hop;  // onion groups traversed so far (0 = at the source)
  NodeId holder;
  Time arrival = 0.0;  // when the current holder received it
  bool alive = false;  // iff in holdings[holder]
  /// Spray tickets this copy still owns: L for a source copy, 1 for a
  /// relayed onion copy, a binary-split share for a utility copy.
  std::size_t tickets = 1;
  /// First time an eligible transfer of this copy was deferred by contact
  /// bandwidth; kTimeInfinity = not queued (feeds "sim.queue_wait").
  Time queued_since = kTimeInfinity;
  /// Recovery generation that sent this copy: 0 = the original send, n =
  /// the n-th retransmission. Each generation routes through its own
  /// freshly sampled relay groups; in-flight copies keep theirs.
  std::uint32_t gen = 0;
};

// Everything the engine tracks per message besides its outcome.
struct MessageState {
  /// Relay groups of each recovery generation: [0] is the original
  /// selection, [n] the one sampled for the n-th retransmission (a single
  /// empty generation in utility mode, which routes without onion groups).
  std::vector<std::vector<GroupId>> gens;
  /// Nodes that held or received the message (Forward() dedup). A few
  /// dozen entries at most, so a linear scan beats hashing.
  std::vector<NodeId> seen;
  bool ack_exists = false;          // ACK record born at dst
  bool src_acked = false;           // source learned the ACK
  std::uint32_t delivered_gen = 0;  // generation that delivered
  recovery::RetxSchedule retx;
  /// Recovery RNG sub-stream: jitter and retry group resampling draw from
  /// derive_seed(recovery_seed, msg index), so the draw sequence is
  /// independent of event interleaving across messages and the main
  /// simulation RNG is never consulted.
  // odtn-lint: allow(rng) — declaration only: reseeded in run() from
  // derive_seed(recovery_seed, m) when retransmission is on
  util::Rng rng;
};

struct Engine {
  const trace::ContactTrace* trace;
  const groups::GroupDirectory* directory;
  const NetworkSimConfig* config;

  std::vector<InjectedMessage> messages;
  std::vector<std::uint8_t> priorities;  // empty = all class 0
  /// Two or more priority classes in use: only then does a contact sort
  /// its candidates (with one class, collection order is execution order).
  bool mixed_priorities = false;
  std::vector<MessageState> state;       // per message

  std::vector<Copy> copies;
  std::vector<std::vector<NodeId>> copy_paths;  // record_paths only
  /// node -> ids of its live copies, ascending; the size is the node's
  /// buffer load. A few entries each (the buffer capacity bounds them), so
  /// a flat sorted vector beats a tree.
  std::vector<std::vector<std::size_t>> holdings;

  routing::UtilityForwarder* utility = nullptr;
  faults::FaultGate gate;
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
  /// Delivery ACKs each node knows: one bitset of ack_words 64-bit words
  /// per node, node-major (bit m of node v's words = message m).
  std::vector<std::uint64_t> ack_known;
  std::size_t ack_words = 0;
  // (due time, msg); at most one outstanding entry per message.
  std::priority_queue<std::pair<Time, std::size_t>,
                      std::vector<std::pair<Time, std::size_t>>,
                      std::greater<>>
      retx_due;
  recovery::SaturationWindow sat_window;
  std::vector<std::size_t> ack_diff_scratch;  // exchange_acks reuse

  // Observability: the distributions. Every sim event count lives in
  // `report` alone and is exported once, at the end of run(). Each
  // handle is inert unless its knob family registered it (see run()).
  metrics::HistogramHandle m_hop_delay;
  metrics::HistogramHandle m_delivery_delay;
  metrics::HistogramHandle m_queue_wait;
  metrics::HistogramHandle m_contact_capacity;
  metrics::HistogramHandle m_ack_delay;
  std::size_t crash_cursor = 0;

  // (deadline, copy id): at equal deadlines source copies expire first,
  // in message order, then relayed copies in creation order.
  using Expiry = std::pair<Time, std::size_t>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiries;

  // Reused snapshot of a node's holdings for ACK vaccination, which
  // mutates the set it walks.
  std::vector<std::size_t> holdings_scratch;

  // One contact's transfer candidates, reused.
  struct Cand {
    std::uint8_t pri;
    std::uint32_t seq;  // collection order
    std::size_t id;     // copy id
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
           holdings[v].size() >= config->buffer_capacity;
  }

  // Copy `id` enters (leaves) `v`'s holdings, which stay in id order.
  void add_holding(NodeId v, std::size_t id) {
    auto& held = holdings[v];
    held.insert(std::upper_bound(held.begin(), held.end(), id), id);
  }
  void remove_holding(NodeId v, std::size_t id) {
    auto& held = holdings[v];
    held.erase(std::lower_bound(held.begin(), held.end(), id));
  }

  // Copy `id` (not alive) takes a buffer slot at its holder until its
  // message's deadline.
  void hold(std::size_t id) {
    copies[id].alive = true;
    add_holding(copies[id].holder, id);
    expiries.emplace(deadline_of(copies[id].msg), id);
  }

  // Copy `id` (alive) leaves its holder's buffer.
  void drop(std::size_t id) {
    copies[id].alive = false;
    remove_holding(copies[id].holder, id);
  }

  // Tries to admit one more item at `v`, applying the buffer policy.
  // Returns false if the node stays full (transfer must be refused).
  bool make_room(NodeId v, std::size_t msg) {
    if (!buffer_full(v)) return true;
    // kDropOldest: evict the relayed copy that has waited longest. A copy
    // still held by its own source is locally originated and never
    // evicted. Tie-break on equal arrival times: the scan walks the
    // id-ordered holdings and keeps the *first* minimum, so the lowest
    // copy id — the earliest-created copy — wins deterministically.
    std::size_t victim = SIZE_MAX;
    if (config->policy == BufferPolicy::kDropOldest) {
      Time oldest = kTimeInfinity;
      for (std::size_t id : holdings[v]) {
        if (copies[id].holder == messages[copies[id].msg].src) continue;
        if (copies[id].arrival < oldest) {
          oldest = copies[id].arrival;
          victim = id;
        }
      }
    }
    if (victim == SIZE_MAX) {
      ++report.outcomes[msg].buffer_rejections;
      ++report.total_buffer_rejections;
      return false;
    }
    drop(victim);
    ++report.evicted_copies;
    return true;
  }

  Time deadline_of(std::size_t msg) const {
    return messages[msg].start + messages[msg].ttl;
  }

  /// Overload shedding (recovery layer): admission control may refuse a
  /// sheddable-priority message when either congestion signal crossed its
  /// threshold. Pure function of simulated state — no RNG.
  bool should_shed(std::size_t m) const {
    if (rec == nullptr || !rec->shedding()) return false;
    if (pri(m) < rec->shed_priority_floor) return false;
    if (rec->shed_occupancy > 0.0 && config->buffer_capacity > 0 &&
        static_cast<double>(holdings[messages[m].src].size()) >=
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
      return;
    }
    if (buffer_full(msg.src)) {
      report.outcomes[m].injection_failed = true;
      return;
    }
    if (rec != nullptr && rec->retx_timeout > 0.0) {
      state[m].retx = recovery::RetxSchedule(*rec, deadline_of(m));
      arm_retx(m, msg.start);
    }
    if (utility != nullptr) {
      place_copy(m, 0, msg.src, msg.start, msg.copies, 0);
      return;
    }
    copies[m].tickets = msg.copies;
    hold(m);
    mark_seen(m, msg.src);
  }

  // Pops exactly one expiry-heap entry (the caller checked it is due).
  void expire_one() {
    const std::size_t id = expiries.top().second;
    expiries.pop();
    if (!copies[id].alive) return;
    drop(id);
    ++report.expired_copies;
  }

  // Processes exactly one crash-reboot event (the caller checked it is
  // due): the crashed node's buffered copies — relayed copies and its own
  // source copies with their spray tickets — are flushed. Lost, not
  // leaked: a flushed copy simply ceases to exist. The node's learned ACK
  // set survives (it is durable metadata, not buffered payload).
  void flush_one_crash() {
    auto& held = holdings[config->faults->crashes()[crash_cursor].node];
    ++crash_cursor;
    for (std::size_t id : held) copies[id].alive = false;
    report.crash_flushed_copies += held.size();
    held.clear();
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
      while (!expiries.empty() && expiries.top().first < t) expire_one();
      return;
    }
    const auto& crashes = config->faults->crashes();
    for (;;) {
      const Time next_expiry =
          expiries.empty() ? kTimeInfinity : expiries.top().first;
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
    if (rec == nullptr || !rec->acks || state[m].ack_exists) return;
    state[m].ack_exists = true;
    state[m].delivered_gen = gen;
    ++report.acks_created;
    learn_ack(dst, m, t);
    learn_ack(sender, m, t);
  }

  /// Node v learns the delivery ACK of message m: its outstanding copies
  /// of m — at the source, the source copy too, which stops spraying —
  /// are garbage-collected (vaccine), and at the source the pending
  /// retransmission is canceled, the ack delay recorded, and the
  /// delivering generation's groups exonerated in the suspicion tracker.
  void learn_ack(NodeId v, std::size_t m, Time t) {
    std::uint64_t& word = ack_known[v * ack_words + m / 64];
    const std::uint64_t bit = std::uint64_t{1} << (m % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    holdings_scratch.assign(holdings[v].begin(), holdings[v].end());
    for (std::size_t id : holdings_scratch) {
      if (copies[id].msg != m) continue;
      drop(id);
      ++report.ack_gc_copies;
    }
    MessageState& st = state[m];
    if (messages[m].src != v || st.src_acked) return;
    st.src_acked = true;
    ++report.acked_at_source;
    m_ack_delay.observe(t - messages[m].start);
    if (suspicion != nullptr) {
      suspicion->record(st.gens[st.delivered_gen], /*acked=*/true);
    }
  }

  /// Anti-packet exchange at a surviving contact: both endpoints end up
  /// knowing the union of their ACK sets. Metadata-sized, so it consumes
  /// no contact bandwidth budget. `to` learns the ACKs only `from` knows
  /// in ascending message order.
  void exchange_acks(NodeId a, NodeId b, Time t) {
    auto pull = [&](NodeId to, NodeId from) {
      ack_diff_scratch.clear();
      for (std::size_t w = 0; w < ack_words; ++w) {
        std::uint64_t diff = ack_known[from * ack_words + w] &
                             ~ack_known[to * ack_words + w];
        for (; diff != 0; diff &= diff - 1) {
          ack_diff_scratch.push_back(w * 64 + std::countr_zero(diff));
        }
      }
      for (std::size_t m : ack_diff_scratch) learn_ack(to, m, t);
    };
    pull(a, b);
    pull(b, a);
  }

  /// Arms m's next retransmission timer from `from` (one jitter draw from
  /// the message's recovery sub-stream; see recovery::RetxSchedule).
  void arm_retx(std::size_t m, Time from) {
    const Time due = state[m].retx.arm(
        from, report.outcomes[m].retransmissions, state[m].rng);
    if (due != kTimeInfinity) retx_due.emplace(due, m);
  }

  /// Fires every due retransmission timer up to time t, in due-time order
  /// (ties by message index — the pair ordering of the heap).
  void process_retx_until(Time t) {
    while (!retx_due.empty() && retx_due.top().first <= t) {
      auto [due, m] = retx_due.top();
      retx_due.pop();
      if (state[m].src_acked) continue;  // ACK arrived: canceled
      // The timeout is the sender's failure signal: the timed-out
      // generation's relay groups take a suspicion penalty.
      if (suspicion != nullptr) {
        suspicion->record(state[m].gens.back(), /*acked=*/false);
      }
      retransmit(m, due);
      arm_retx(m, due);
    }
  }

  /// Re-onions message m at time t: a fresh generation through freshly
  /// sampled relay groups (suspicion-biased when the tracker is on), and
  /// a full ticket allotment for the source copy, revived if it is gone
  /// and the source has room. Utility mode re-injects a fresh spray copy
  /// instead (no relay groups to sample).
  void retransmit(std::size_t m, Time t) {
    const auto& msg = messages[m];
    ++report.retransmissions;
    ++report.outcomes[m].retransmissions;
    if (utility != nullptr) {
      if (buffer_full(msg.src)) return;  // no room: the attempt is spent
      place_copy(m, 0, msg.src, t, msg.copies, 0);
      return;
    }
    MessageState& st = state[m];
    st.gens.push_back(recovery::select_relay_groups_avoiding(
        *directory, suspicion, msg.src, msg.dst, msg.num_relays, st.rng));
    Copy& src_copy = copies[m];
    src_copy.gen = static_cast<std::uint32_t>(st.gens.size() - 1);
    src_copy.tickets = msg.copies;
    // No room to re-enqueue: the attempt is spent.
    if (!src_copy.alive && !buffer_full(msg.src)) hold(m);
  }

  bool has_seen(std::size_t m, NodeId v) const {
    const auto& seen = state[m].seen;
    return std::find(seen.begin(), seen.end(), v) != seen.end();
  }

  void mark_seen(std::size_t m, NodeId v) {
    if (!has_seen(m, v)) state[m].seen.push_back(v);
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

  // Creates a live copy of message m at `holder` (buffer slot, dedup
  // mark, TTL expiry, empty record_paths path) and returns its id. May
  // reallocate `copies`.
  std::size_t place_copy(std::size_t m, std::size_t hop, NodeId holder, Time t,
                         std::size_t tickets, std::uint32_t gen) {
    const std::size_t id = copies.size();
    copies.push_back({m, hop, holder, t, false, tickets, kTimeInfinity, gen});
    if (config->record_paths) copy_paths.emplace_back();
    hold(id);
    mark_seen(m, holder);
    return id;
  }

  // One executed transfer of message m; `since` is when the sender got
  // what it forwards (the hop-delay origin).
  void count_transfer(std::size_t m, Time since, Time t) {
    ++report.outcomes[m].transmissions;
    ++report.total_transmissions;
    m_hop_delay.observe(t - since);
  }

  // Copy `id` reaches its destination, which consumes it (no buffer
  // cost); the first arrival delivers the message and bears its ACK.
  void deliver(std::size_t id, NodeId receiver, Time t) {
    Copy& c = copies[id];
    const std::size_t m = c.msg;
    count_transfer(m, c.arrival, t);
    mark_seen(m, receiver);
    MessageOutcome& out = report.outcomes[m];
    if (!out.delivered) {
      out.delivered = true;
      out.delay = t - messages[m].start;
      m_delivery_delay.observe(out.delay);
      if (config->record_paths) out.relay_path = copy_paths[id];
    }
    const NodeId sender = c.holder;
    drop(id);
    note_served(c.queued_since, t);
    born_ack(m, c.gen, sender, receiver, t);
  }

  // --- transfer eligibility + execution ------------------------------
  // drain() checks eligibility, the contact budget and the fault draw;
  // attempt() then performs the transfer and returns true iff it
  // executed (the unit that consumes contact bandwidth). Buffer refusals
  // return false and consume nothing.

  // Onion mode: the receiver must be in the copy's next relay group (the
  // destination after the last one) and not have the message yet.
  // Utility mode: a copy may deliver to the destination or binary-split
  // its spray tickets toward a higher-utility, uncongested custodian.
  // Decisions are pure functions of simulated state (no RNG), so the
  // conjuncts are tested cheapest first: the seen-set scan and the
  // utility lookups come last.
  bool eligible(std::size_t id, NodeId sender, NodeId receiver,
                Time t) const {
    const Copy& c = copies[id];
    if (!c.alive || c.holder != sender || t > deadline_of(c.msg)) {
      return false;
    }
    const auto& msg = messages[c.msg];
    if (utility != nullptr) {
      if (receiver != msg.dst && c.tickets <= 1) return false;
      if (has_seen(c.msg, receiver)) return false;
      return receiver == msg.dst ||
             utility->should_replicate(sender, receiver, msg.dst,
                                       holdings[receiver].size(),
                                       config->buffer_capacity);
    }
    const bool next_hop =
        c.hop < msg.num_relays
            ? directory->in_group(receiver, state[c.msg].gens[c.gen][c.hop])
            : receiver == msg.dst;
    return next_hop && !has_seen(c.msg, receiver);
  }

  bool attempt(std::size_t id, NodeId sender, NodeId receiver, Time t) {
    Copy& c = copies[id];
    const std::size_t m = c.msg;
    if (receiver == messages[m].dst &&
        (utility != nullptr || c.hop == messages[m].num_relays)) {
      deliver(id, receiver, t);
      return true;
    }
    if (!make_room(receiver, m)) return false;
    if (!c.alive) return false;  // evicted by make_room on its own holder
    count_transfer(m, c.arrival, t);
    note_served(c.queued_since, t);
    if (utility == nullptr && c.hop > 0) {
      // An onion relay forwards its copy and frees its slot.
      record_relay(id, c.hop, receiver);
      remove_holding(sender, id);
      c.holder = receiver;
      c.arrival = t;
      ++c.hop;
      add_holding(receiver, id);
      mark_seen(m, receiver);
    } else {
      // A spray: the receiver gets a fresh copy with `give` tickets — one
      // into R_1 from the onion source copy, which is spent with its last
      // ticket, or half of a utility copy's (spray-and-wait binary
      // splitting) — and the sender keeps the rest.
      const std::size_t give = utility != nullptr ? c.tickets / 2 : 1;
      const std::size_t hop = c.hop;
      const std::uint32_t gen = c.gen;
      c.tickets -= give;
      if (c.tickets == 0) drop(id);
      const std::size_t id2 = place_copy(m, hop + 1, receiver, t, give, gen);
      if (config->record_paths) copy_paths[id2] = copy_paths[id];
      record_relay(id2, hop, receiver);
    }
    gate.absorbs(receiver);
    return true;
  }

  // One contact's transfers. Both directions' candidates are collected
  // against the state at contact start (a's copies in copy-id order —
  // its source copies in message order, then its relayed copies — then
  // b's likewise), sorted by (priority, collection order), and executed
  // within the shared budget: kUnlimited without a bandwidth model,
  // cell-denominated in wire mode (each executed transfer spends
  // cell_cost units and lands in the sim.wire_* accounting). Eligibility
  // is re-checked at execution — an earlier transfer may have evicted a
  // candidate or spent a source copy's last ticket — and eligible
  // candidates past the budget are deferred to a later contact (that
  // wait is "sim.queue_wait"). Nothing at b becomes newly eligible for a
  // after an a->b transfer (a is in the seen set of every copy it sent),
  // so with one priority class and no budget limit this is exactly
  // Algorithms 1-2 applied a->b, then b->a. Collection walks only the
  // sender's holdings, so a contact costs O(local state), not
  // O(messages); drain_scanned counts that walk.
  void drain(NodeId a, NodeId b, Time t, std::size_t budget) {
    cand_scratch.clear();
    std::uint32_t seq = 0;
    auto collect = [&](NodeId sender, NodeId receiver) {
      // Blackholes accept copies but never forward them.
      if (config->faults != nullptr && config->faults->is_blackhole(sender)) {
        return;
      }
      report.drain_scanned += holdings[sender].size();
      for (std::size_t id : holdings[sender]) {
        if (!eligible(id, sender, receiver, t)) continue;
        cand_scratch.push_back(
            {pri(copies[id].msg), seq++, id, sender, receiver});
      }
    };
    collect(a, b);
    collect(b, a);
    // (pri, seq) pairs are unique, so plain sort is a total order.
    if (mixed_priorities) {
      std::sort(cand_scratch.begin(), cand_scratch.end(),
                [](const Cand& x, const Cand& y) {
                  if (x.pri != y.pri) return x.pri < y.pri;
                  return x.seq < y.seq;
                });
    }

    std::size_t executed = 0;
    bool saturated = false;
    for (const Cand& c : cand_scratch) {
      if (!eligible(c.id, c.sender, c.receiver, t)) continue;
      if (executed + cell_cost > budget) {
        // Out of bandwidth: the item starts (or continues) queueing.
        saturated = true;
        ++report.queue_deferred;
        Time& qs = copies[c.id].queued_since;
        if (qs == kTimeInfinity) qs = t;
        continue;
      }
      // Mid-contact failure: the sender keeps its copy and spray ticket,
      // and the receiver stays eligible for a retry at a later contact.
      const bool lost = gate.transfer_fails(c.sender, c.receiver);
      const bool done = !lost && attempt(c.id, c.sender, c.receiver, t);
      if (utility != nullptr && (lost || done)) {
        utility->observe_transfer_outcome(c.receiver, done);
      }
      if (!done) continue;
      executed += cell_cost;
      if (config->cells_per_message > 0) {
        report.wire_cells += config->cells_per_message;
        report.wire_bytes += config->cells_per_message * config->cell_size;
      }
    }
    if (executed > report.max_contact_transfers) {
      report.max_contact_transfers = executed;
    }
    if (saturated) ++report.contacts_saturated;
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
    for (std::uint8_t p : priorities) {
      priorities_on |= (p != 0);
      mixed_priorities |= (p != priorities.front());
    }
    rec = (config->recovery != nullptr && config->recovery->enabled())
              ? config->recovery
              : nullptr;
    const bool retx_on = rec != nullptr && rec->retx_timeout > 0.0;

    // Histograms register under their knob family only, like the counters
    // export_counts() writes: an export carries no sim.queue_* entries
    // unloaded, no sim.wire_* ones outside wire mode, no recovery.* ones
    // without recovery and no faults.* ones without a fault plan.
    metrics::Registry* reg = config->metrics;
    const bool loaded =
        bandwidth_on || priorities_on || utility != nullptr || wire_on;
    m_hop_delay = metrics::histogram(reg, "sim.hop_delay");
    m_delivery_delay = metrics::histogram(reg, "sim.delivery_delay");
    gate = faults::FaultGate(config->faults, reg);
    if (loaded) m_queue_wait = metrics::histogram(reg, "sim.queue_wait");
    if (bandwidth_on) {
      m_contact_capacity = metrics::histogram(reg, "sim.contact_capacity");
    }
    if (rec != nullptr) {
      m_ack_delay = metrics::histogram(reg, "recovery.ack_delay");
      ack_words = (messages.size() + 63) / 64;
      ack_known.assign(trace->node_count() * ack_words, 0);
      if (rec->suspicion_alpha > 0.0) {
        suspicion = config->suspicion;
        if (suspicion == nullptr) {
          own_tracker.emplace(rec->suspicion_alpha, rec->suspicion_threshold);
          suspicion = &*own_tracker;
        }
        tracker_flips_at_start = suspicion->flips();
      }
    }

    report.outcomes.assign(messages.size(), {});
    holdings.assign(trace->node_count(), {});
    // Per message: the first generation's relay groups, in message order
    // from the simulation RNG (utility mode routes without onion groups
    // and draws none), the onion source copy, and the recovery sub-stream.
    state.resize(messages.size());
    for (std::size_t m = 0; m < messages.size(); ++m) {
      const auto& msg = messages[m];
      MessageState& st = state[m];
      st.gens.emplace_back();
      if (utility == nullptr) {
        st.gens[0] = directory->select_relay_groups(msg.src, msg.dst,
                                                    msg.num_relays, rng);
        copies.push_back(
            {m, 0, msg.src, msg.start, false, 0, kTimeInfinity, 0});
        if (config->record_paths) copy_paths.emplace_back();
      }
      if (retx_on) {
        st.rng.reseed(util::derive_seed(config->recovery_seed, m));
      }
    }

    // Injection order by start time.
    std::vector<std::size_t> order(messages.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return messages[a].start < messages[b].start;
    });

    std::size_t next_injection = 0;
    for (const auto& event : trace->events()) {
      while (next_injection < order.size() &&
             messages[order[next_injection]].start <= event.time) {
        advance_time(messages[order[next_injection]].start);
        if (retx_on) process_retx_until(messages[order[next_injection]].start);
        inject(order[next_injection]);
        ++next_injection;
      }
      advance_time(event.time);
      if (retx_on) process_retx_until(event.time);
      if (!gate.contact_up(event.a, event.b, event.time)) continue;
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
    report.suppressed_contacts = gate.suppressed();
    report.transfer_failures = gate.failures();
    report.blackhole_absorbed = gate.absorbed();
    if (suspicion != nullptr) {
      report.suspicion_flips = suspicion->flips() - tracker_flips_at_start;
    }
    if (reg != nullptr) export_counts(*reg, loaded, wire_on);
    return std::move(report);
  }

  // The report's event counts as counters, each registered under the
  // same knob family as the histograms in run().
  void export_counts(metrics::Registry& reg, bool loaded, bool wire_on) {
    auto add = [&](const char* name, std::uint64_t v) {
      reg.counter(name).inc(v);
    };
    std::uint64_t deliveries = 0;
    std::uint64_t injection_failures = 0;
    for (const MessageOutcome& o : report.outcomes) {
      deliveries += o.delivered;
      injection_failures += o.injection_failed;
    }
    add("sim.messages", messages.size());
    add("sim.transfers", report.total_transmissions);
    add("sim.deliveries", deliveries);
    add("sim.injection_failures", injection_failures);
    add("sim.buffer_rejections", report.total_buffer_rejections);
    add("sim.evictions", report.evicted_copies);
    add("sim.expirations", report.expired_copies);
    if (loaded) {
      add("sim.queue_deferred", report.queue_deferred);
      add("sim.contacts_saturated", report.contacts_saturated);
    }
    if (wire_on) {
      add("sim.wire_cells", report.wire_cells);
      add("sim.wire_bytes", report.wire_bytes);
    }
    if (rec != nullptr) {
      add("recovery.retransmits", report.retransmissions);
      add("recovery.shed_messages", report.shed_messages);
      add("recovery.acks_created", report.acks_created);
      add("recovery.acked_at_source", report.acked_at_source);
      add("recovery.ack_gc_copies", report.ack_gc_copies);
      add("recovery.suspicion_flips", report.suspicion_flips);
    }
    if (config->faults != nullptr) {
      add("faults.blackhole_nodes", config->faults->blackhole_count());
      add("faults.crash_flushed_copies", report.crash_flushed_copies);
    }
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
