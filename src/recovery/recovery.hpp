// End-to-end reliability for onion DTN routing (odtn::recovery).
//
// The paper's protocols are fire-and-forget: K onion layers, L copies,
// and hope. A copy that lands on a crashed, blackholed, or saturated
// relay is silently lost and the sender never learns. This subsystem adds
// the feedback loop a deployed system needs, in four pieces:
//
//  (1) Delivery ACKs ("vaccine" anti-packets): when a message reaches its
//      destination, an ACK record is born there and spreads epidemically
//      at every surviving contact. A node that learns the ACK
//      garbage-collects its outstanding copies of the message (freeing
//      buffer space); when the ACK reaches the source, pending
//      retransmissions are canceled.
//  (2) Sender-side retransmission: without an ACK by a configurable
//      timeout the source re-onions the message through *freshly sampled*
//      relay groups, with exponential backoff and seeded jitter. All
//      randomness comes from util::derive_seed sub-streams (one per
//      message), so loaded faulty sweeps stay bit-identical at every
//      --threads value.
//  (3) A per-relay-group suspicion tracker: an EWMA of unacked sends per
//      group. Timed-out generations penalize their groups; acked
//      generations exonerate them. Group selection for retries is biased
//      away from suspected groups, steering traffic around blackholes and
//      chronically-down relays.
//  (4) Overload shedding: priority-aware admission control. When recent
//      contacts saturate or the source buffer crosses an occupancy
//      threshold, the lowest-priority flows are shed at injection instead
//      of collapsing delivery for everyone.
//
// The zero-knob default disables everything: no RNG draws, no metrics
// entries, byte-identical behavior to a build without this layer — the
// same contract as odtn::faults and odtn::traffic.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"

namespace odtn::groups {
class GroupDirectory;
}

namespace odtn::recovery {

/// All-zero defaults disable the subsystem entirely (enabled() == false).
struct RecoveryConfig {
  // (1) Delivery ACKs propagate back through contacts as anti-packets and
  // garbage-collect outstanding copies. Anti-packets are metadata-sized
  // and do not consume contact bandwidth budget.
  bool acks = false;

  // (2) Retransmission: without a source-side ACK by `retx_timeout` time
  // units after the send, the source re-onions through fresh relay
  // groups. 0 disables. Each retry multiplies the timeout by
  // `retx_backoff` and perturbs it by a seeded uniform draw in
  // [-retx_jitter, +retx_jitter] (fraction of the interval).
  double retx_timeout = 0.0;
  std::size_t retx_max = 3;
  double retx_backoff = 2.0;
  double retx_jitter = 0.1;

  // (3) Suspicion tracker: EWMA weight of each send outcome per relay
  // group (0 disables; requires retx_timeout > 0, which provides the
  // timeout events the tracker learns from). Groups whose EWMA of
  // unacked sends exceeds `suspicion_threshold` are avoided when
  // resampling relay groups.
  double suspicion_alpha = 0.0;
  double suspicion_threshold = 0.75;

  // (4) Overload shedding (admission control at injection time). A
  // message of priority class >= `shed_priority_floor` is shed when
  // either signal crosses its threshold: source-buffer occupancy
  // fraction >= `shed_occupancy` (needs a finite buffer capacity), or
  // the fraction of recently saturated contacts >= `shed_saturation`.
  // 0 disables each signal. Class 0 (most urgent) is never shed with
  // the default floor.
  double shed_occupancy = 0.0;
  double shed_saturation = 0.0;
  std::uint8_t shed_priority_floor = 1;

  bool shedding() const {
    return shed_occupancy > 0.0 || shed_saturation > 0.0;
  }
  bool enabled() const {
    return acks || retx_timeout > 0.0 || suspicion_alpha > 0.0 || shedding();
  }
};

/// Per-relay-group EWMA of unacked sends. `record(g, acked)` folds one
/// send outcome; a group whose score crosses `threshold` upward (or back
/// down) counts one flip. Scores start at 0 (unsuspected), so the tracker
/// must observe failures before it avoids anything — no prior knowledge
/// of the blackhole set leaks in. Ordered map: iteration and lookup are
/// deterministic, and the group universe may be huge (sharded
/// directories) while the touched set stays small.
class SuspicionTracker {
 public:
  SuspicionTracker(double alpha, double threshold);

  /// Folds one send outcome for `group`: EWMA steps toward 1 when the
  /// send timed out unacked, toward 0 when it was acked.
  void record(GroupId group, bool acked);
  /// Folds one send outcome for each of a generation's relay groups.
  void record(std::span<const GroupId> groups, bool acked);

  /// Current EWMA of unacked sends (0 for never-seen groups).
  double suspicion(GroupId group) const;
  bool suspected(GroupId group) const;
  /// Threshold crossings in either direction since construction.
  std::size_t flips() const { return flips_; }

 private:
  double alpha_;
  double threshold_;
  std::map<GroupId, double> score_;
  std::size_t flips_ = 0;
};

/// Relay groups for a retransmission. Suspicion-biased: draws up to
/// `attempts` candidate sets via GroupDirectory::select_relay_groups and
/// returns the first set containing no suspected group; if every draw is
/// tainted, the set with the fewest suspected groups wins (first minimum —
/// ties break toward the earlier draw, deterministically). A null
/// `tracker` suspects nothing, so the first draw wins: plain re-selection.
/// Always draws from `rng` in a data-independent pattern apart from the
/// early exit.
std::vector<GroupId> select_relay_groups_avoiding(
    const groups::GroupDirectory& directory, const SuspicionTracker* tracker,
    NodeId src, NodeId dst, std::size_t k, util::Rng& rng,
    std::size_t attempts = 4);

/// The source-side retransmission timer of one message, shared by the
/// per-message protocols and the whole-network simulator. Window n
/// (n = 0 after the original send) lasts retx_timeout * retx_backoff^n,
/// scaled by 1 + retx_jitter * (2u - 1) for one uniform draw u per arm
/// (no draw when jitter is 0).
class RetxSchedule {
 public:
  RetxSchedule() = default;
  RetxSchedule(const RecoveryConfig& config, Time deadline)
      : config_(&config), interval_(config.retx_timeout), deadline_(deadline) {}

  /// Arms the timer at `from`, after `sent` retransmissions, and returns
  /// when it comes due — or kTimeInfinity when `sent` reached retx_max or
  /// the timer would come due at or after the deadline (a retransmission
  /// sent then can never deliver). Every arm draws its jitter and backs
  /// off, whether or not it returns a due time.
  Time arm(Time from, std::size_t sent, util::Rng& rng);

 private:
  const RecoveryConfig* config_ = nullptr;
  double interval_ = 0.0;  // un-jittered length of the next window
  Time deadline_ = 0.0;
};

/// Sliding window over the saturation bit of the last `window` contacts —
/// the congestion signal shed_saturation consults. fraction() is 0 until
/// at least one contact has been recorded.
class SaturationWindow {
 public:
  explicit SaturationWindow(std::size_t window = 64);
  void record(bool saturated);
  double fraction() const;

 private:
  std::vector<std::uint8_t> bits_;
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
  std::size_t ones_ = 0;
};

}  // namespace odtn::recovery
