#include "circuit/circuit_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace odtn::circuit {

namespace {

/// derive_seed stream tag for the circuit layer's DRBG ("circ").
constexpr std::uint64_t kCircuitDrbgStream = 0x63697263;

// kReal seeds from one rng draw (the legacy DRBG-seed position) forked
// onto the circuit sub-stream; kNone draws nothing and seeds a constant
// (the DRBG is never used).
crypto::Drbg make_drbg(bool enabled, util::Rng& rng) {
  if (!enabled) return crypto::Drbg(util::derive_seed(0, kCircuitDrbgStream));
  return crypto::Drbg(util::derive_seed(rng.next(), kCircuitDrbgStream));
}

}  // namespace

CircuitManager::CircuitManager(const CircuitContext& ctx, util::Rng& rng)
    : ctx_(ctx),
      enabled_(ctx.crypto),
      wire_(ctx.wire && ctx.crypto),
      cells_(ctx.cell_size),
      drbg_(make_drbg(enabled_, rng)) {
  if (ctx_.keys == nullptr || ctx_.codec == nullptr) {
    throw std::invalid_argument("CircuitManager: null keys or codec");
  }
  m_peels_ = metrics::counter(ctx_.metrics, "routing.peels");
  m_peel_failures_ = metrics::counter(ctx_.metrics, "routing.peel_failures");
  if (wire_) {
    m_wire_cells_ = metrics::counter(ctx_.metrics, "circuit.wire_cells");
    m_wire_bytes_ = metrics::counter(ctx_.metrics, "circuit.wire_bytes");
  }
}

CircuitId CircuitManager::open(const util::Bytes& payload, NodeId dest,
                               const std::vector<GroupId>& path,
                               GroupId destination_group) {
  Circuit& c = circuits_.emplace_back();
  if (enabled_) {
    c.wire = ctx_.codec->build(payload, dest, path, *ctx_.keys, drbg_,
                               destination_group);
  }
  return static_cast<CircuitId>(circuits_.size() - 1);
}

CircuitId CircuitManager::clone(CircuitId id) {
  Circuit c;
  c.wire = at(id).wire;
  circuits_.push_back(std::move(c));
  return static_cast<CircuitId>(circuits_.size() - 1);
}

bool CircuitManager::forward(CircuitId id, NodeId sender, NodeId receiver,
                             const Peel& peel) {
  Circuit& c = at(id);
  const CellCommand cmd = peel.kind != Peel::Kind::kRelay ? CellCommand::kRelay
                          : c.crossed ? CellCommand::kExtend
                                      : CellCommand::kCreate;
  if (sender != kNoSender) c.crossed = true;
  if (!enabled_) return true;
  if (sender != kNoSender) cross_link(id, sender, receiver, cmd);
  return peel.kind == Peel::Kind::kCarry || apply(c, receiver, peel);
}

void CircuitManager::cross_link(CircuitId id, NodeId sender, NodeId receiver,
                                CellCommand command) {
  const util::Bytes& packet = at(id).wire;
  const util::Bytes& sk = ctx_.keys->session_key(sender, receiver);
  if (!wire_) {
    // Legacy secure link: the whole packet as one AEAD blob. Content is
    // preserved (seal-then-open round trip); only a failed open is
    // observable.
    drbg_.generate_into(crypto::kAeadNonceSize, nonce_);
    crypto::aead_seal_into(sk, nonce_, {}, packet, sealed_, link_scratch_);
    if (!crypto::aead_open_into(sk, nonce_, {}, sealed_, opened_,
                                link_scratch_)) {
      link_ok_ = false;
    }
    return;
  }
  // Wire mode: fragment the packet into fixed-size cells, each sealed
  // separately; the receiver ingests them through on_cell() and the
  // reassembly must reproduce the packet bit-for-bit.
  reasm_.clear();
  const std::size_t chunk = cells_.max_payload();
  const std::size_t n = cells_.cells_for(packet.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t off = i * chunk;
    const std::size_t len = std::min(chunk, packet.size() - off);
    cells_.seal_into(id, command,
                     std::span<const std::uint8_t>(packet.data() + off, len),
                     sk, drbg_, cell_buf_, cell_scratch_);
    ++wire_cells_;
    wire_bytes_ += cells_.cell_size();
    m_wire_cells_.inc();
    m_wire_bytes_.inc(cells_.cell_size());
    if (ctx_.tap) {
      ctx_.tap(CellEvent{sender, receiver, id, command, cells_.cell_size()});
    }
    if (!on_cell(sk, cell_buf_)) link_ok_ = false;
  }
  if (reasm_ != packet) link_ok_ = false;
}

bool CircuitManager::on_cell(const util::Bytes& key, const util::Bytes& cell) {
  if (!cells_.open_into(cell, key, cell_out_, cell_scratch_)) return false;
  util::append(reasm_, cell_out_.payload);
  return true;
}

bool CircuitManager::apply(Circuit& c, NodeId receiver, const Peel& peel) {
  m_peels_.inc();
  const bool inbox = peel.kind == Peel::Kind::kInbox;
  const util::Bytes& key = inbox ? ctx_.keys->inbox_key(receiver)
                                 : ctx_.keys->group_key(peel.group);
  auto v = ctx_.codec->peel_view(c.wire, key, drbg_, peel_scratch_);
  bool ok = v.has_value() && v->type == peel.layer;
  if (ok) {
    ok = inbox ? std::ranges::equal(v->payload, *peel.payload)
               : (peel.layer == onion::Peeled::Type::kDeliver
                      ? v->dest
                      : v->next_group) == peel.next;
  }
  if (!ok) {
    c.ok = false;
    m_peel_failures_.inc();
    return false;
  }
  if (!inbox) c.wire.assign(v->next_wire.begin(), v->next_wire.end());
  return true;
}

}  // namespace odtn::circuit
