// Onion-based anonymous routing for DTNs: the paper's abstract protocols.
//
// MultiCopyOnionRouting implements Algorithm 2: up to L copies, managed
// with spray-and-wait-style tickets. Two spray strategies are provided:
//   * kDirectToFirstGroup — Algorithm 2 read literally: the source hands
//     every copy directly to (distinct) members of R_1.
//   * kSprayAndWait — the simulation section's "source spray-and-wait"
//     augmentation: the source sprays L-1 copies to the first nodes it
//     meets (any node); each sprayed holder then waits for a member of R_1.
//     This matches the cost bound 1 + 2(L-1) + KL <= (K+2)L of Sec. IV-C.
// After the first hop both modes behave identically (each holder has one
// ticket). A holder forwards iff the peer belongs to its copy's next group
// and does not have the message yet; dst is never handed a relay copy.
//
// SingleCopyOnionRouting implements Algorithm 1 (ARDEN-like): exactly one
// copy hops through K randomly-chosen relay onion groups. It is Algorithm
// 2 at L = 1 — no tickets, one walker starting at the source — and both
// classes run the same event loop, so from the same seed they return the
// same DeliveryResult. ARDEN's destination-group delivery
// (MessageSpec::destination_group_delivery) is single-copy only: L > 1
// rejects it.
#pragma once

#include "circuit/circuit_manager.hpp"
#include "crypto/drbg.hpp"
#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"
#include "metrics/metrics.hpp"
#include "onion/onion.hpp"
#include "routing/types.hpp"
#include "sim/contact_model.hpp"
#include "util/rng.hpp"

namespace odtn::faults {
class FaultPlan;
}
namespace odtn::recovery {
struct RecoveryConfig;
class SuspicionTracker;
}

namespace odtn::routing {

/// Context shared by the onion protocols: group membership, keys, codec.
/// All references must outlive the protocol objects.
struct OnionContext {
  const groups::GroupDirectory* directory = nullptr;
  const groups::KeyManager* keys = nullptr;
  const onion::OnionCodec* codec = nullptr;
  CryptoMode crypto = CryptoMode::kNone;
  /// Observability sink (see odtn::metrics). When non-null the protocols
  /// record "routing.*" counters (forwards, peels, peel failures, spray
  /// tickets, deliveries) and the "routing.hop_delay" histogram. Values are
  /// simulated time, so they survive the deterministic fold. Null = off.
  metrics::Registry* metrics = nullptr;
  /// Fault model (see odtn::faults), typically one plan per experiment
  /// run. The protocols react robustly: a failed mid-contact transfer
  /// consumes no spray ticket and is retried at the next contact, a
  /// contact with a powered-down peer is skipped, a crash-reboot of the
  /// current holder loses the copy (onion state is flushed, not leaked),
  /// and a blackhole relay absorbs the copy. Null = fault-free; the
  /// protocols then perform no fault branches or RNG draws, keeping
  /// results byte-identical to a build without the fault layer.
  faults::FaultPlan* faults = nullptr;
  /// End-to-end reliability (see odtn::recovery). With retx_timeout > 0
  /// the source retransmits an undelivered message after a (backed-off,
  /// jittered) timeout, re-onioning it through freshly sampled relay
  /// groups. At every L (single copy included) each retransmission
  /// sprays a new generation of copies that races the ones already out:
  /// the abstract model has no ACK channel, so the source assumes the
  /// message is lost at timeout, but the network may still deliver an
  /// older copy. The first relay-group selection is never biased (it is
  /// shared with the fault-blind analysis); only retry selections consult
  /// the suspicion tracker. Null or disabled = the protocols draw no
  /// recovery RNG and behave byte-identically to a build without the
  /// layer.
  const recovery::RecoveryConfig* recovery = nullptr;
  /// Suspicion state biasing retry relay-group selection; typically shared
  /// across a run's messages so later flows avoid groups earlier flows
  /// timed out on. Null = unbiased retries even when recovery is on.
  recovery::SuspicionTracker* suspicion = nullptr;
  /// Wire-accurate mode (see src/circuit): every contact crossing is
  /// fragmented into fixed-size AEAD cells, accounted in
  /// DeliveryResult::wire_cells/wire_bytes and observable through
  /// `cell_tap`. Requires CryptoMode::kReal; off = the historical
  /// one-blob secure link, byte-identical to builds without the layer.
  bool wire_cells = false;
  std::size_t cell_size = circuit::kDefaultCellSize;
  circuit::CellTap cell_tap{};
};

class SingleCopyOnionRouting {
 public:
  explicit SingleCopyOnionRouting(const OnionContext& context);

  /// Routes one message. `spec.copies` must be 1. If `forced_groups` is
  /// non-null it overrides random relay-group selection (used by tests and
  /// by the analysis-vs-simulation benches, which must evaluate both on the
  /// same group realization).
  DeliveryResult route(sim::ContactModel& contacts, const MessageSpec& spec,
                       util::Rng& rng,
                       const std::vector<GroupId>* forced_groups = nullptr);

 private:
  OnionContext ctx_;
};

enum class SprayMode {
  kDirectToFirstGroup,
  kSprayAndWait,
};

class MultiCopyOnionRouting {
 public:
  MultiCopyOnionRouting(const OnionContext& context,
                        SprayMode mode = SprayMode::kSprayAndWait);

  DeliveryResult route(sim::ContactModel& contacts, const MessageSpec& spec,
                       util::Rng& rng,
                       const std::vector<GroupId>* forced_groups = nullptr);

 private:
  OnionContext ctx_;
  SprayMode mode_;
};

}  // namespace odtn::routing
