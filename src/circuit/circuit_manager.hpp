// CircuitManager — the one audited build/peel/forward implementation the
// onion routing protocols are thin policies over.
//
// The manager owns every cryptographic operation of a message's lifetime:
// building the layered onion (open), crossing a contact under the pair's
// X25519/HKDF session key (send/extend/deliver), peeling a layer at the
// receiver, and the per-circuit state machine (circuit.hpp). Policies —
// single-copy walking, spray-and-wait ticketing, retransmission — decide
// *when* and *between whom* these operations happen; they never touch key
// material or wire bytes themselves.
//
// Two link representations, selected by CircuitContext::wire:
//   * off (default) — the whole onion packet crosses the contact as one
//     AEAD blob, exactly the historical "secure link" of Algorithms 1-2.
//   * on — the packet is fragmented into fixed-size cells (cell.hpp), each
//     sealed separately under the session key; the receiver authenticates
//     and reassembles via on_cell(). Every cell is reported to the
//     optional CellTap (the byte-accurate adversary observation point) and
//     accounted in wire_cells()/wire_bytes().
//
// Determinism: in CryptoMode::kNone the manager draws no randomness and
// performs no crypto — only the state machine advances — so the zero-knob
// configuration's RNG sequence and metrics are untouched. In kReal the
// constructor makes exactly one rng draw (the legacy DRBG-seed position)
// and forks the circuit layer's DRBG onto its own derive_seed sub-stream.
#pragma once

#include <functional>
#include <vector>

#include "circuit/cell.hpp"
#include "circuit/circuit.hpp"
#include "crypto/drbg.hpp"
#include "groups/key_manager.hpp"
#include "metrics/metrics.hpp"
#include "onion/onion.hpp"
#include "util/rng.hpp"

namespace odtn::circuit {

/// One sealed cell crossing a contact, as an on-path observer sees it.
struct CellEvent {
  NodeId sender = kInvalidNode;
  NodeId receiver = kInvalidNode;
  CircuitId circuit_id = 0;
  CellCommand command = CellCommand::kPadding;
  std::size_t bytes = 0;  // always the codec's cell_size
};

/// Per-cell observer; invoked for every cell a contact carries (wire mode
/// only). The compromised-relay experiments attach one to watch actual
/// ciphertext streams.
using CellTap = std::function<void(const CellEvent&)>;

/// Everything a CircuitManager needs; all pointers must outlive it.
struct CircuitContext {
  const groups::KeyManager* keys = nullptr;
  const onion::OnionCodec* codec = nullptr;
  /// CryptoMode::kReal? False = forwarding decisions only, no crypto.
  bool crypto = false;
  /// Observability sink; "routing.peels"/"routing.peel_failures" counters
  /// are registered here (plus "circuit.wire_*" in wire mode). Null = off.
  metrics::Registry* metrics = nullptr;
  /// Fragment contact crossings into fixed-size cells (requires crypto).
  bool wire = false;
  std::size_t cell_size = kDefaultCellSize;
  CellTap tap;
};

class CircuitManager {
 public:
  /// What a relay peel must produce for the circuit to stay verified.
  struct Expect {
    enum class Kind : std::uint8_t {
      kRelayTo,         // kRelay naming this next group
      kDeliverTo,       // kDeliver naming this destination node
      kDeliverGroupTo,  // kDeliverGroup naming this destination group
    };
    Kind kind = Kind::kRelayTo;  // with no group: matches no layer
    GroupId next_group = kInvalidGroup;
    NodeId dest = kInvalidNode;

    static Expect relay_to(GroupId g) {
      return {Kind::kRelayTo, g, kInvalidNode};
    }
    static Expect deliver_to(NodeId d) {
      return {Kind::kDeliverTo, kInvalidGroup, d};
    }
    static Expect deliver_group(GroupId g) {
      return {Kind::kDeliverGroupTo, g, kInvalidNode};
    }
  };

  /// In kReal mode makes exactly one `rng` draw (DRBG seeding); in kNone
  /// mode draws nothing. Throws std::invalid_argument on a null keys/codec
  /// pointer or an out-of-range cell size.
  CircuitManager(const CircuitContext& ctx, util::Rng& rng);

  bool crypto_enabled() const { return enabled_; }
  bool wire_enabled() const { return wire_; }

  /// Every secure-link crossing so far authenticated and (wire mode)
  /// reassembled correctly.
  bool link_ok() const { return link_ok_; }
  /// Every peel on this circuit matched its Expect.
  bool circuit_ok(CircuitId id) const { return at(id).ok; }
  /// The delivered-copy verification bit policies report as
  /// DeliveryResult::crypto_verified.
  bool verified(CircuitId id) const {
    return enabled_ && link_ok_ && at(id).ok;
  }

  // -- Lifecycle ----------------------------------------------------------

  /// Opens a circuit for `payload` to `dest` through `path` (status
  /// kCreate). In kReal mode this builds the layered onion.
  CircuitId open(const util::Bytes& payload, NodeId dest,
                 const std::vector<GroupId>& path,
                 GroupId destination_group = kInvalidGroup);

  /// A sprayed copy: a fresh circuit (status kCreate) sharing `id`'s
  /// current packet.
  CircuitId clone(CircuitId id);

  CircuitStatus status(CircuitId id) const { return at(id).status; }
  std::size_t hops(CircuitId id) const { return at(id).hops; }
  const util::Bytes& wire(CircuitId id) const { return at(id).wire; }
  std::size_t size() const { return circuits_.size(); }

  /// Advances `id`'s state machine; illegal transitions are rejected
  /// (false, state unchanged).
  bool advance(CircuitId id, CircuitStatus next) {
    return at(id).advance(next);
  }
  /// The copy was lost (crash, blackhole, timeout): kTruncated when legal,
  /// else kDestroyed.
  void truncate(CircuitId id);
  void destroy(CircuitId id) { at(id).advance(CircuitStatus::kDestroyed); }

  // -- The wire surface ---------------------------------------------------

  /// Extends the circuit one hop: crosses the contact, peels one layer at
  /// `receiver` with `key` (a group key), checks `expect`, and advances
  /// the state machine (kCreate -> kCreated, then kExtend). Returns false
  /// — and records a peel failure — iff crypto is on and the peel failed
  /// or mismatched; the packet is then left unchanged (the policy keeps
  /// walking, as the legacy protocols did).
  bool extend(CircuitId id, NodeId sender, NodeId receiver,
              const util::Bytes& key, const Expect& expect);

  /// Crosses the contact without peeling (a plain carrier handoff, or a
  /// pass inside the destination group). Status is unchanged.
  void send(CircuitId id, NodeId sender, NodeId receiver);

  /// Final hop: crosses the contact to `dst`, opens the inbox layer, and
  /// checks the payload round-tripped. Advances to kEstablished. Returns
  /// the crypto verdict (true when crypto is off).
  bool deliver(CircuitId id, NodeId sender, NodeId dst,
               const util::Bytes& payload);

  /// Final open at a node already holding the packet (destination-group
  /// circulation ends without a dedicated contact crossing).
  bool deliver_local(CircuitId id, NodeId dst, const util::Bytes& payload);

  /// Receiver-side ingestion of one sealed cell from the current sender:
  /// authenticates under `key`, strips the framing, and appends the body
  /// to the reassembly buffer. Returns false on tamper/truncation. Driven
  /// internally by send/extend/deliver; exposed for the cell-stream
  /// experiments.
  bool on_cell(const util::Bytes& key, const util::Bytes& cell);
  const util::Bytes& reassembled() const { return reasm_; }

  // -- Wire accounting ----------------------------------------------------

  /// Cells/bytes that crossed contacts so far (wire mode; zero otherwise).
  std::uint64_t wire_cells() const { return wire_cells_; }
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  /// Cells one full onion packet costs per contact crossing.
  std::size_t cells_per_packet() const {
    return cells_.cells_for(ctx_.codec->wire_size());
  }
  const CellCodec& cell_codec() const { return cells_; }

  crypto::Drbg& drbg() { return drbg_; }

 private:
  Circuit& at(CircuitId id) { return circuits_[id]; }
  const Circuit& at(CircuitId id) const { return circuits_[id]; }

  /// Moves `c`'s packet across a contact under the pair's session key;
  /// content-preserving (seal-then-open round trip), so only failures and
  /// wire accounting are observable.
  void cross_link(Circuit& c, NodeId sender, NodeId receiver,
                  CellCommand command);
  void advance_on_hop(Circuit& c);
  bool peel_with(Circuit& c, const util::Bytes& key, const Expect& expect);
  bool final_peel(Circuit& c, NodeId dst, const util::Bytes& payload);

  CircuitContext ctx_;
  bool enabled_ = false;
  bool wire_ = false;
  bool link_ok_ = true;
  CellCodec cells_;
  crypto::Drbg drbg_;
  std::vector<Circuit> circuits_;

  metrics::CounterHandle m_peels_;
  metrics::CounterHandle m_peel_failures_;
  metrics::CounterHandle m_wire_cells_;
  metrics::CounterHandle m_wire_bytes_;
  std::uint64_t wire_cells_ = 0;
  std::uint64_t wire_bytes_ = 0;

  // Reused buffers: steady-state link crossings and peels allocate nothing
  // (the PR-4 zero-allocation contract).
  util::Bytes nonce_;
  util::Bytes sealed_;
  util::Bytes opened_;
  util::Bytes cell_buf_;
  util::Bytes reasm_;
  Cell cell_out_;
  CellScratch cell_scratch_;
  crypto::AeadScratch link_scratch_;
  onion::PeelScratch peel_scratch_;
};

}  // namespace odtn::circuit
