// Layered onion packets for group onion routing (Sec. II-A/II-B).
//
// The source seals the payload for the destination, then wraps one layer
// per relay group, outermost layer first peeled. Any member of relay group
// R_k holds the group key that peels layer k, realizing the paper's
// "anycast" property: the holder may hand the onion to *any* member of the
// next group.
//
// Construction (from inside out):
//   FINAL   layer -> sealed with the destination's inbox key; carries the
//                    application payload (padded to a fixed size).
//   DELIVER layer -> sealed with group key of R_K; names the destination.
//   RELAY   layers -> sealed with group keys of R_{K-1}..R_1; each names
//                    the next relay group only.
//
// Wire-size invariance: each AEAD wrap adds a constant 42-byte overhead,
// so fragments shrink as layers peel — which would leak a packet's position
// on its path. We therefore pad every transmitted packet with random bytes
// up to a constant wire size, and a peeler discovers its fragment's true
// extent by *trial decryption* over the (at most max_layers+1) valid
// fragment lengths; the AEAD tag rejects every wrong guess. Nothing on the
// wire distinguishes hop positions. (Sphinx achieves the same property
// with a keystream trick; trial decryption is simpler and the try count is
// tiny. The trade-off is documented in DESIGN.md.)
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "crypto/drbg.hpp"
#include "groups/key_manager.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace odtn::onion {

struct OnionConfig {
  /// Fixed application-payload capacity of every onion.
  std::size_t payload_size = 256;
  /// Maximum number of relay layers (K) an onion may carry; determines the
  /// constant wire size.
  std::size_t max_layers = 12;
};

/// What a peeler learns from removing one layer.
struct Peeled {
  enum class Type : std::uint8_t {
    kRelay = 1,         // forward to any member of `next_group`
    kDeliver = 2,       // hand `next_wire` to node `dest`
    kFinal = 3,         // we are the destination; `payload` is the message
    kDeliverGroup = 4,  // circulate `next_wire` within group `next_group`
                        // until the (hidden) destination opens it — ARDEN's
                        // destination-anonymity option (Sec. V of the paper:
                        // "the last hop forms an onion group")
  };

  Type type;
  GroupId next_group = kInvalidGroup;  // kRelay only
  NodeId dest = kInvalidNode;          // kDeliver only
  util::Bytes payload;                 // kFinal only
  util::Bytes next_wire;               // kRelay/kDeliver: padded packet to pass on
};

/// Reusable buffers for peel_view(); one scratch per peeler makes
/// steady-state peeling allocation-free (the PR-4 zero-allocation contract).
struct PeelScratch {
  util::Bytes plain;  // decrypted layer (header || inner fragment)
  util::Bytes next;   // re-padded next wire packet
  util::Bytes pad;    // fresh random padding
};

/// Zero-copy result of peel_view(): the spans point into the PeelScratch
/// passed to the call and are valid until its next use.
struct PeeledView {
  Peeled::Type type;
  GroupId next_group = kInvalidGroup;        // kRelay/kDeliverGroup only
  NodeId dest = kInvalidNode;                // kDeliver only
  std::span<const std::uint8_t> payload;     // kFinal only
  std::span<const std::uint8_t> next_wire;   // kRelay/kDeliver/kDeliverGroup
};

class OnionCodec {
 public:
  explicit OnionCodec(OnionConfig config = {});

  const OnionConfig& config() const { return config_; }

  /// Every packet on the wire has exactly this many bytes.
  std::size_t wire_size() const { return wire_size_; }

  /// Builds a full onion for `payload` addressed to `dest` via the relay
  /// groups R_1..R_K (`relay_groups` ordered first-hop first). Throws if the
  /// payload exceeds payload_size or the layer count exceeds max_layers.
  ///
  /// If `destination_group` is valid, the last relay layer names that group
  /// instead of the destination node, and an extra layer sealed with the
  /// destination group's key is added: relays never learn which member is
  /// the destination (ARDEN's destination-anonymity option). The caller
  /// must pass the group `dest` belongs to.
  util::Bytes build(const util::Bytes& payload, NodeId dest,
                    const std::vector<GroupId>& relay_groups,
                    const groups::KeyManager& keys, crypto::Drbg& drbg,
                    GroupId destination_group = kInvalidGroup) const;

  /// Attempts to peel one layer with `key` (a group key, or the node's
  /// inbox key for the final layer). Returns nullopt if the key does not
  /// open any fragment of the packet — i.e. the caller is not a member of
  /// the layer's group. Re-pads `next_wire` with fresh random bytes.
  std::optional<Peeled> peel(const util::Bytes& wire, const util::Bytes& key,
                             crypto::Drbg& drbg) const;

  /// Allocation-free variant of peel(): all intermediate buffers live in
  /// `scratch` and the returned view borrows from it. One padding draw from
  /// the DRBG on relay-type success, none on failure or final delivery;
  /// peel() is this call plus a copy into owned buffers, so the two are
  /// interchangeable bit-for-bit.
  std::optional<PeeledView> peel_view(const util::Bytes& wire,
                                      const util::Bytes& key,
                                      crypto::Drbg& drbg,
                                      PeelScratch& scratch) const;

  /// Fragment length of a packet with `layers_remaining` wraps above the
  /// final layer (exposed for tests).
  std::size_t fragment_size(std::size_t layers_remaining) const;

 private:
  util::Bytes seal_layer(const util::Bytes& plaintext, const util::Bytes& key,
                         crypto::Drbg& drbg) const;
  util::Bytes pad_to_wire(util::Bytes fragment, crypto::Drbg& drbg) const;

  OnionConfig config_;
  std::size_t wire_size_;
};

}  // namespace odtn::onion
