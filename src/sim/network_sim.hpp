// Whole-network discrete-event simulation: many concurrent messages over
// one shared contact process, with finite per-node buffers.
//
// The paper's analysis (like most DTN analyses) models one message at a
// time with infinite buffers. This engine lifts both assumptions so the
// library can answer deployment questions the closed forms cannot: what
// happens to delivery when relays run out of buffer space under load?
// (bench/ablation_buffer_contention quantifies it.)
//
// Protocol semantics follow Algorithms 1-2: single-copy onion forwarding
// per message, or multi-copy with source tickets handed to members of the
// first relay group (Algorithm 2's literal reading). A transfer happens at
// a contact (a, b) iff b is in the message's next onion group (or is the
// destination on the last hop), b does not already hold or relay the
// message, and b has buffer space.
//
// Under sustained load (odtn::traffic) two more dimensions open up:
//   * finite contact bandwidth — each contact carries at most a budget of
//     transfers (fixed, or floor(duration / transfer_time) with contact
//     durations drawn Exp(mean_duration)); eligible transfers beyond the
//     budget wait for a later contact (queueing delay, "sim.queue_*"
//     metrics);
//   * priority classes — transfers drain in (priority, arrival-order)
//     order, so an urgent class is never starved behind bulk traffic at
//     the same contact.
// Every contact drains through one path. With bandwidth off and
// priorities uniform it executes the a->b transfers, then the b->a ones,
// draws no RNG for the contact, and registers no sim.queue_* metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "groups/group_directory.hpp"
#include "metrics/metrics.hpp"
#include "routing/types.hpp"
#include "trace/contact_trace.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace odtn::faults {
class FaultPlan;
}
namespace odtn::recovery {
struct RecoveryConfig;
class SuspicionTracker;
}
namespace odtn::routing {
class UtilityForwarder;
}

namespace odtn::sim {

/// What a full node does when offered another message (classic DTN buffer
/// management policies).
enum class BufferPolicy {
  kRejectNew,   // refuse the transfer (the sender keeps its copy)
  kDropOldest,  // evict the longest-buffered relayed copy to admit the new
                // one (locally-originated messages are never evicted).
                // Tie-break on equal buffered-since times: the lowest copy
                // id, i.e. the earliest-created copy — explicitly
                // deterministic (each node's holdings are kept in copy-id
                // order and the scan keeps the first minimum).
};

/// Finite contact bandwidth: how many transfers one contact event can
/// carry. Both directions of the contact share the budget.
struct ContactBandwidth {
  /// Fixed budget per contact. Used when the duration model below is off.
  std::size_t messages_per_contact = 0;
  /// Duration model (takes precedence when both fields are > 0): each
  /// contact's duration is drawn Exp(mean `mean_duration`) from the
  /// simulation RNG and carries floor(duration / transfer_time) messages
  /// — possibly zero, a contact too brief to push anything through.
  double mean_duration = 0.0;
  double transfer_time = 0.0;

  /// Whether any bandwidth limit is configured. All-defaults = unlimited
  /// (the analytical model's assumption, and the byte-identity contract:
  /// a disabled model draws nothing from the RNG).
  bool enabled() const {
    return messages_per_contact > 0 ||
           (mean_duration > 0.0 && transfer_time > 0.0);
  }
};

struct NetworkSimConfig {
  /// Messages a node can buffer simultaneously; 0 = unlimited (the
  /// analytical model's assumption).
  std::size_t buffer_capacity = 0;
  BufferPolicy policy = BufferPolicy::kRejectNew;
  /// Observability sink (see odtn::metrics). When non-null the engine
  /// records the "sim.hop_delay" / "sim.delivery_delay" histograms and,
  /// once at the end of the run, the report's event counts as "sim.*"
  /// counters (transfers, deliveries, buffer rejections, evictions,
  /// expirations, ...). Null = instrumentation off.
  metrics::Registry* metrics = nullptr;
  /// Fault model consulted at contact time (see odtn::faults): contacts
  /// with a powered-down endpoint are suppressed, crash-reboots flush the
  /// crashed node's buffered copies, each attempted transfer may fail
  /// (sender keeps its copy and its spray ticket), and blackhole nodes
  /// accept copies but never forward them. Null = fault-free (the
  /// engine's behavior and RNG draw order are then byte-identical to a
  /// build without the fault layer). Mutable because the per-link loss
  /// processes advance state as the simulation queries them.
  faults::FaultPlan* faults = nullptr;
  /// Contact bandwidth limit; default-constructed = unlimited.
  ContactBandwidth bandwidth;
  /// Record each message's relay sets and the first delivered copy's path
  /// into MessageOutcome (the anonymity-under-load measurements need
  /// them). Off by default: the fields stay empty and cost nothing.
  bool record_paths = false;
  /// Non-null replaces onion-group forwarding with the congestion/
  /// utility-aware forwarder (routing::UtilityForwarder): no relay groups
  /// are selected (and no RNG is drawn for them), the source holds a copy
  /// with MessageSpec::copies spray tickets, tickets binary-split toward
  /// higher-utility custodians, and replication backs off from saturated
  /// receivers. The forwarder learns from every surviving contact in
  /// trace order, so runs stay bit-identical across thread counts.
  routing::UtilityForwarder* utility = nullptr;
  /// End-to-end reliability layer (see odtn::recovery): delivery ACKs
  /// spreading as anti-packets that garbage-collect outstanding copies,
  /// sender-side retransmission through freshly sampled relay groups with
  /// seeded backoff + jitter, suspicion-biased group selection, and
  /// priority-aware overload shedding. Null or all-knobs-zero = off: the
  /// engine draws no recovery RNG, registers no recovery.* metrics, and
  /// behaves byte-identically to a build without the layer.
  const recovery::RecoveryConfig* recovery = nullptr;
  /// Base seed for the per-message recovery RNG sub-streams (jitter and
  /// retry group resampling draw from derive_seed(recovery_seed, msg
  /// index), never from the simulation RNG — the main draw sequence is
  /// identical with recovery on or off). Callers derive it from the run's
  /// RNG stream only when recovery is enabled.
  std::uint64_t recovery_seed = 0;
  /// Optional externally-owned suspicion tracker (lets callers persist or
  /// inspect it); when null and suspicion_alpha > 0 the engine keeps a
  /// run-local tracker.
  recovery::SuspicionTracker* suspicion = nullptr;
  /// Wire-accurate accounting (src/circuit): each executed transfer
  /// crosses its contact as this many fixed-size cells, and the shared
  /// bandwidth budget is denominated in cells instead of messages (the
  /// engine checks `spent + cost > budget`). 0 = off: one budget unit per
  /// transfer. "sim.wire_cells"/"sim.wire_bytes" register only when > 0
  /// (byte-identity contract).
  std::size_t cells_per_message = 0;
  /// Bytes per cell, for the wire-bytes accounting (wire mode only).
  std::size_t cell_size = 0;
};

/// Messages share the routing-layer parameter block (src, dst, start, ttl,
/// K, L) instead of redeclaring it. The onion-specific fields of
/// MessageSpec (payload, destination_group_delivery) are ignored here: the
/// network simulator models forwarding decisions, not ciphertext.
using InjectedMessage = routing::MessageSpec;

struct MessageOutcome {
  bool delivered = false;
  Time delay = kTimeInfinity;
  std::size_t transmissions = 0;
  /// Transfers that would have happened but were refused because the
  /// receiver's buffer was full.
  std::size_t buffer_rejections = 0;
  /// True if the message never left the source (source buffer full at
  /// injection time).
  bool injection_failed = false;
  /// True if admission control shed the message at injection time
  /// (recovery overload shedding; never delivered, never injected).
  bool shed = false;
  /// Recovery retransmissions the source performed for this message.
  std::size_t retransmissions = 0;
  /// record_paths only: relays of the first delivered copy in hop order
  /// (excludes src and dst; empty if undelivered or recording is off).
  std::vector<NodeId> relay_path;
  /// record_paths only: for hop k (0-based), every node that relayed any
  /// copy at that hop — the DeliveryResult::relays_per_hop shape the
  /// multi-copy anonymity measurement consumes.
  std::vector<std::vector<NodeId>> relays_per_hop;
};

struct NetworkSimReport {
  std::vector<MessageOutcome> outcomes;
  std::size_t total_transmissions = 0;
  std::size_t total_buffer_rejections = 0;
  std::size_t expired_copies = 0;
  /// Copies evicted by BufferPolicy::kDropOldest.
  std::size_t evicted_copies = 0;
  // Fault accounting (all zero when NetworkSimConfig::faults is null).
  /// Contacts skipped because an endpoint was powered down.
  std::size_t suppressed_contacts = 0;
  /// Attempted transfers that failed mid-contact.
  std::size_t transfer_failures = 0;
  /// Buffered copies (including spray state) flushed by crash-reboots.
  std::size_t crash_flushed_copies = 0;
  /// Copies handed to blackhole nodes (absorbed, never forwarded).
  std::size_t blackhole_absorbed = 0;
  // Congestion accounting (the two queue counters stay zero without a
  // bandwidth limit).
  /// Eligible transfers pushed past a contact's bandwidth budget.
  std::size_t queue_deferred = 0;
  /// Contacts whose budget ran out with eligible transfers still waiting.
  std::size_t contacts_saturated = 0;
  /// Largest budget spend any single contact carried (the bandwidth-cap
  /// conservation invariant: <= the per-contact budget). Denominated in
  /// transfers, in cells in wire mode.
  std::size_t max_contact_transfers = 0;
  /// Deterministic work counter: transfer candidates contact drainage
  /// examined, summed over contacts and directions — every copy the
  /// sender buffers, its own source copies included. Not exported as a
  /// metric.
  std::size_t drain_scanned = 0;
  // Recovery accounting (all zero when NetworkSimConfig::recovery is null
  // or disabled).
  /// Source-side retransmissions (re-onioned sends through fresh groups).
  std::size_t retransmissions = 0;
  /// ACK records born at destinations (exactly one per delivered message).
  std::size_t acks_created = 0;
  /// Messages whose source learned the delivery ACK.
  std::size_t acked_at_source = 0;
  /// Outstanding copies garbage-collected by ACK anti-packets.
  std::size_t ack_gc_copies = 0;
  /// Messages shed by admission control at injection time.
  std::size_t shed_messages = 0;
  /// Suspicion-tracker threshold crossings during this run.
  std::size_t suspicion_flips = 0;
  // Wire accounting (all zero when NetworkSimConfig::cells_per_message
  // is 0).
  /// Sealed fixed-size cells that crossed contacts, and their total bytes.
  std::uint64_t wire_cells = 0;
  std::uint64_t wire_bytes = 0;

  double delivery_rate() const;
  double mean_delay() const;  // over delivered messages
};

/// Runs all `messages` over the trace. Relay groups are selected per
/// message from `rng` up front, in message order. `priorities` gives each
/// message a class (0 = most urgent; parallel to `messages`, empty = all
/// class 0); contact drainage is ordered by (priority, arrival order).
/// Deterministic given (trace, directory, messages, priorities, config,
/// seed).
NetworkSimReport run_network_sim(const trace::ContactTrace& trace,
                                 const groups::GroupDirectory& directory,
                                 std::vector<InjectedMessage> messages,
                                 std::vector<std::uint8_t> priorities,
                                 const NetworkSimConfig& config,
                                 util::Rng& rng);

}  // namespace odtn::sim
