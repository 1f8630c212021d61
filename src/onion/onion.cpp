#include "onion/onion.hpp"

#include <stdexcept>

#include "crypto/aead.hpp"

namespace odtn::onion {

namespace {

// Layer plaintext header: version(1) type(1) next_group(4) dest(4) len(4).
constexpr std::size_t kHeaderSize = 14;
constexpr std::uint8_t kVersion = 1;
// Per-wrap overhead: 12-byte nonce + 16-byte tag + header.
constexpr std::size_t kWrapOverhead =
    crypto::kAeadNonceSize + crypto::kAeadTagSize + kHeaderSize;

const util::Bytes& onion_aad() {
  static const util::Bytes aad = util::to_bytes("odtn-onion-v1");
  return aad;
}

struct Header {
  std::uint8_t type;
  GroupId next_group;
  NodeId dest;
  std::uint32_t len;
};

void put_header(util::Bytes& out, const Header& h) {
  out.push_back(kVersion);
  out.push_back(h.type);
  util::put_u32le(out, h.next_group);
  util::put_u32le(out, h.dest);
  util::put_u32le(out, h.len);
}

std::optional<Header> parse_header(const util::Bytes& plain) {
  if (plain.size() < kHeaderSize) return std::nullopt;
  if (plain[0] != kVersion) return std::nullopt;
  Header h;
  h.type = plain[1];
  h.next_group = util::get_u32le(plain, 2);
  h.dest = util::get_u32le(plain, 6);
  h.len = util::get_u32le(plain, 10);
  return h;
}

}  // namespace

OnionCodec::OnionCodec(OnionConfig config) : config_(config) {
  if (config_.payload_size == 0 || config_.max_layers == 0) {
    throw std::invalid_argument("OnionCodec: zero payload_size or max_layers");
  }
  wire_size_ = fragment_size(config_.max_layers);
}

std::size_t OnionCodec::fragment_size(std::size_t layers_remaining) const {
  // Final fragment: nonce + tag + header + padded payload.
  std::size_t base = crypto::kAeadNonceSize + crypto::kAeadTagSize +
                     kHeaderSize + config_.payload_size;
  return base + layers_remaining * kWrapOverhead;
}

util::Bytes OnionCodec::seal_layer(const util::Bytes& plaintext,
                                   const util::Bytes& key,
                                   crypto::Drbg& drbg) const {
  util::Bytes nonce = drbg.generate_nonce();
  util::Bytes fragment = nonce;
  util::append(fragment, crypto::aead_seal(key, nonce, onion_aad(), plaintext));
  return fragment;
}

util::Bytes OnionCodec::pad_to_wire(util::Bytes fragment,
                                    crypto::Drbg& drbg) const {
  if (fragment.size() > wire_size_) {
    throw std::logic_error("OnionCodec: fragment exceeds wire size");
  }
  util::Bytes pad = drbg.generate(wire_size_ - fragment.size());
  util::append(fragment, pad);
  return fragment;
}

util::Bytes OnionCodec::build(const util::Bytes& payload, NodeId dest,
                              const std::vector<GroupId>& relay_groups,
                              const groups::KeyManager& keys,
                              crypto::Drbg& drbg,
                              GroupId destination_group) const {
  const bool group_delivery = destination_group != kInvalidGroup;
  if (payload.size() > config_.payload_size) {
    throw std::invalid_argument("OnionCodec::build: payload too large");
  }
  if (relay_groups.empty()) {
    throw std::invalid_argument("OnionCodec::build: need >= 1 relay group");
  }
  if (relay_groups.size() + (group_delivery ? 1 : 0) > config_.max_layers) {
    throw std::invalid_argument("OnionCodec::build: too many relay groups");
  }

  // FINAL layer, sealed with the destination's inbox key.
  util::Bytes plain;
  put_header(plain, Header{static_cast<std::uint8_t>(Peeled::Type::kFinal),
                           kInvalidGroup, dest,
                           static_cast<std::uint32_t>(payload.size())});
  util::append(plain, payload);
  util::Bytes fill = drbg.generate(config_.payload_size - payload.size());
  util::append(plain, fill);
  util::Bytes fragment = seal_layer(plain, keys.inbox_key(dest), drbg);

  if (group_delivery) {
    // Destination-group layer: any member of the destination's group can
    // peel it, learning only that the message circulates in this group.
    Header h;
    h.type = static_cast<std::uint8_t>(Peeled::Type::kDeliverGroup);
    h.next_group = destination_group;
    h.dest = kInvalidNode;
    h.len = static_cast<std::uint32_t>(fragment.size());
    util::Bytes wrapped;
    put_header(wrapped, h);
    util::append(wrapped, fragment);
    fragment = seal_layer(wrapped, keys.group_key(destination_group), drbg);
  }

  // Wrap from the last relay group inward to the first.
  const std::size_t k = relay_groups.size();
  for (std::size_t i = k; i-- > 0;) {
    Header h;
    h.len = static_cast<std::uint32_t>(fragment.size());
    h.dest = kInvalidNode;
    h.next_group = kInvalidGroup;
    if (i == k - 1 && !group_delivery) {
      h.type = static_cast<std::uint8_t>(Peeled::Type::kDeliver);
      h.dest = dest;
    } else {
      h.type = static_cast<std::uint8_t>(Peeled::Type::kRelay);
      h.next_group =
          (i == k - 1) ? destination_group : relay_groups[i + 1];
    }
    util::Bytes wrapped;
    put_header(wrapped, h);
    util::append(wrapped, fragment);
    fragment = seal_layer(wrapped, keys.group_key(relay_groups[i]), drbg);
  }

  return pad_to_wire(std::move(fragment), drbg);
}

std::optional<Peeled> OnionCodec::peel(const util::Bytes& wire,
                                       const util::Bytes& key,
                                       crypto::Drbg& drbg) const {
  PeelScratch scratch;
  const auto view = peel_view(wire, key, drbg, scratch);
  if (!view.has_value()) return std::nullopt;
  Peeled result;
  result.type = view->type;
  result.next_group = view->next_group;
  result.dest = view->dest;
  result.payload.assign(view->payload.begin(), view->payload.end());
  result.next_wire.assign(view->next_wire.begin(), view->next_wire.end());
  return result;
}

std::optional<PeeledView> OnionCodec::peel_view(const util::Bytes& wire,
                                                const util::Bytes& key,
                                                crypto::Drbg& drbg,
                                                PeelScratch& scratch) const {
  if (wire.size() != wire_size_) return std::nullopt;

  // Trial decryption over the valid fragment lengths, shallowest stack
  // first: a peel with k layers left fails k cheap opens over the shorter
  // fragments, and the inbox peel (k = 0) none. A wrong length fails by its
  // tag, and the DRBG is drawn only on success.
  const std::span<const std::uint8_t> wire_span(wire);
  for (std::size_t layers = 0; layers <= config_.max_layers; ++layers) {
    const std::size_t frag_len = fragment_size(layers);
    auto nonce = wire_span.first(crypto::kAeadNonceSize);
    auto sealed = wire_span.subspan(crypto::kAeadNonceSize,
                                    frag_len - crypto::kAeadNonceSize);
    if (!crypto::aead_open_into(key, nonce, onion_aad(), sealed,
                                scratch.plain)) {
      continue;
    }

    auto header = parse_header(scratch.plain);
    if (!header.has_value()) return std::nullopt;
    if (kHeaderSize + header->len > scratch.plain.size()) return std::nullopt;

    PeeledView result;
    switch (static_cast<Peeled::Type>(header->type)) {
      case Peeled::Type::kFinal: {
        result.type = Peeled::Type::kFinal;
        result.payload = std::span<const std::uint8_t>(scratch.plain)
                             .subspan(kHeaderSize, header->len);
        return result;
      }
      case Peeled::Type::kDeliver:
      case Peeled::Type::kDeliverGroup:
      case Peeled::Type::kRelay: {
        result.type = static_cast<Peeled::Type>(header->type);
        result.next_group = header->next_group;
        result.dest = header->dest;
        scratch.next.assign(scratch.plain.begin() + kHeaderSize,
                            scratch.plain.begin() + kHeaderSize + header->len);
        drbg.generate_into(wire_size_ - scratch.next.size(), scratch.pad);
        scratch.next.insert(scratch.next.end(), scratch.pad.begin(),
                            scratch.pad.end());
        result.next_wire = std::span<const std::uint8_t>(scratch.next);
        return result;
      }
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace odtn::onion
