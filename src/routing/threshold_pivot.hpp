// Threshold Pivot Scheme (TPS) — Jansen & Beverly, MILCOM 2011.
//
// The alternative anonymous DTN routing the paper discusses in Sec. VI-C:
// instead of nesting K onion layers (long sequential paths), the source
// splits the message into `share_count` threshold shares, any `threshold`
// of which rebuild it; each share travels through ONE onion-group relay to
// a common pivot node. The pivot rebuilds the message once `threshold`
// shares have arrived and forwards it to the destination. The shares are
// abstract: the comparison of Sec. VI-C is delivery, cost and what each
// node learns, none of which depends on the share bytes.
//
// Trade-off vs onion routing (exercised by bench/ablation_tps_vs_onion):
// shares travel in parallel over two hops instead of K+1 sequential ones,
// but the relay->pivot and pivot->dst hops each wait for one node where an
// onion hop takes any member of a group, so at Table II scale TPS trails
// onion K=3 at about twice the transmissions. And the destination's
// identity is revealed to the pivot, which onion routing never does.
#pragma once

#include "groups/group_directory.hpp"
#include "routing/types.hpp"
#include "sim/contact_model.hpp"
#include "util/rng.hpp"

namespace odtn::routing {

struct TpsOptions {
  std::size_t share_count = 5;  // s: shares created by the source
  std::size_t threshold = 3;    // tau: shares the pivot needs
};

struct TpsResult {
  bool delivered = false;
  Time delay = kTimeInfinity;
  std::size_t transmissions = 0;
  /// Shares that reached the pivot within the deadline.
  std::size_t shares_at_pivot = 0;
  NodeId pivot = kInvalidNode;
  /// The relay each share passed through (kInvalidNode if it never left
  /// the source); indices follow share order.
  std::vector<NodeId> share_relays;
};

class ThresholdPivotRouting {
 public:
  explicit ThresholdPivotRouting(const groups::GroupDirectory& directory,
                                 TpsOptions options = {});

  /// Routes one message. `spec.num_relays` and `spec.copies` are ignored
  /// (TPS has its own share parameters).
  TpsResult route(sim::ContactModel& contacts, const MessageSpec& spec,
                  util::Rng& rng);

  const TpsOptions& options() const { return options_; }

 private:
  const groups::GroupDirectory* directory_;
  TpsOptions options_;
};

}  // namespace odtn::routing
