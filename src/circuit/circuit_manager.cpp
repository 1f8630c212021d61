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
  Circuit c;
  c.id = static_cast<CircuitId>(circuits_.size());
  if (enabled_) {
    c.wire = ctx_.codec->build(payload, dest, path, *ctx_.keys, drbg_,
                               destination_group);
  }
  circuits_.push_back(std::move(c));
  return circuits_.back().id;
}

CircuitId CircuitManager::clone(CircuitId id) {
  Circuit c;
  c.id = static_cast<CircuitId>(circuits_.size());
  c.wire = at(id).wire;
  circuits_.push_back(std::move(c));
  return circuits_.back().id;
}

void CircuitManager::truncate(CircuitId id) {
  if (!at(id).advance(CircuitStatus::kTruncated)) {
    at(id).advance(CircuitStatus::kDestroyed);
  }
}

void CircuitManager::advance_on_hop(Circuit& c) {
  if (c.status == CircuitStatus::kCreate) {
    c.advance(CircuitStatus::kCreated);
  } else {
    // Legal from kCreated, kExtend, and kTruncated (rebuild); rejected —
    // deterministically, state unchanged — from anywhere else.
    c.advance(CircuitStatus::kExtend);
  }
}

void CircuitManager::cross_link(Circuit& c, NodeId sender, NodeId receiver,
                                CellCommand command) {
  const util::Bytes& sk = ctx_.keys->session_key(sender, receiver);
  if (!wire_) {
    // Legacy secure link: the whole packet as one AEAD blob. Content is
    // preserved (seal-then-open round trip); only a failed open is
    // observable.
    drbg_.generate_into(crypto::kAeadNonceSize, nonce_);
    crypto::aead_seal_into(sk, nonce_, {}, c.wire, sealed_, link_scratch_);
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
  const std::size_t n = cells_.cells_for(c.wire.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t off = i * chunk;
    const std::size_t len = std::min(chunk, c.wire.size() - off);
    cells_.seal_into(c.id, command,
                     std::span<const std::uint8_t>(c.wire.data() + off, len),
                     sk, drbg_, cell_buf_, cell_scratch_);
    ++wire_cells_;
    wire_bytes_ += cells_.cell_size();
    m_wire_cells_.inc();
    m_wire_bytes_.inc(cells_.cell_size());
    if (ctx_.tap) {
      ctx_.tap(CellEvent{sender, receiver, c.id, command, cells_.cell_size()});
    }
    if (!on_cell(sk, cell_buf_)) link_ok_ = false;
  }
  if (reasm_ != c.wire) link_ok_ = false;
}

bool CircuitManager::on_cell(const util::Bytes& key, const util::Bytes& cell) {
  if (!cells_.open_into(cell, key, cell_out_, cell_scratch_)) return false;
  util::append(reasm_, cell_out_.payload);
  return true;
}

bool CircuitManager::peel_with(Circuit& c, const util::Bytes& key,
                               const Expect& expect) {
  m_peels_.inc();
  auto v = ctx_.codec->peel_view(c.wire, key, drbg_, peel_scratch_);
  bool ok = v.has_value();
  if (ok) {
    switch (expect.kind) {
      case Expect::Kind::kRelayTo:
        ok = v->type == onion::Peeled::Type::kRelay &&
             v->next_group == expect.next_group;
        break;
      case Expect::Kind::kDeliverTo:
        ok = v->type == onion::Peeled::Type::kDeliver &&
             v->dest == expect.dest;
        break;
      case Expect::Kind::kDeliverGroupTo:
        ok = v->type == onion::Peeled::Type::kDeliverGroup &&
             v->next_group == expect.next_group;
        break;
    }
  }
  if (!ok) {
    c.ok = false;
    m_peel_failures_.inc();
    return false;
  }
  c.wire.assign(v->next_wire.begin(), v->next_wire.end());
  ++c.hops;
  return true;
}

bool CircuitManager::final_peel(Circuit& c, NodeId dst,
                                const util::Bytes& payload) {
  m_peels_.inc();
  auto v =
      ctx_.codec->peel_view(c.wire, ctx_.keys->inbox_key(dst), drbg_,
                            peel_scratch_);
  const bool ok = v.has_value() && v->type == onion::Peeled::Type::kFinal &&
                  v->payload.size() == payload.size() &&
                  std::equal(v->payload.begin(), v->payload.end(),
                             payload.begin());
  if (!ok) {
    c.ok = false;
    m_peel_failures_.inc();
  }
  return ok;
}

bool CircuitManager::extend(CircuitId id, NodeId sender, NodeId receiver,
                            const util::Bytes& key, const Expect& expect) {
  Circuit& c = at(id);
  const CellCommand cmd = (c.status == CircuitStatus::kCreate)
                              ? CellCommand::kCreate
                              : CellCommand::kExtend;
  advance_on_hop(c);
  if (!enabled_) return true;
  cross_link(c, sender, receiver, cmd);
  return peel_with(c, key, expect);
}

void CircuitManager::send(CircuitId id, NodeId sender, NodeId receiver) {
  Circuit& c = at(id);
  if (c.status == CircuitStatus::kCreate) c.advance(CircuitStatus::kCreated);
  if (!enabled_) return;
  cross_link(c, sender, receiver, CellCommand::kRelay);
}

bool CircuitManager::deliver(CircuitId id, NodeId sender, NodeId dst,
                             const util::Bytes& payload) {
  Circuit& c = at(id);
  bool ok = true;
  if (enabled_) {
    cross_link(c, sender, dst, CellCommand::kRelay);
    ok = final_peel(c, dst, payload);
  }
  c.advance(CircuitStatus::kEstablished);
  return ok;
}

bool CircuitManager::deliver_local(CircuitId id, NodeId dst,
                                   const util::Bytes& payload) {
  Circuit& c = at(id);
  bool ok = true;
  if (enabled_) ok = final_peel(c, dst, payload);
  c.advance(CircuitStatus::kEstablished);
  return ok;
}

}  // namespace odtn::circuit
