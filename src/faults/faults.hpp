// odtn::faults — deterministic, seeded fault injection for the simulator.
//
// The paper's models (Eqs. 6-7, 20) assume every contact completes its
// transfer and every relay stays up. Real DTNs are defined by disruption:
// nodes duty-cycle and crash, radio transfers abort mid-contact, and
// adversarial nodes accept copies they never forward. This layer models all
// three, deterministically: a FaultPlan is a pure function of
// (FaultConfig, node_count, horizon, seed), so a faulty run is exactly as
// reproducible as a fault-free one — the experiment engine stays
// bit-identical at every thread count with faults enabled.
//
// Fault classes:
//   * Node churn — each node alternates exponentially-distributed up/down
//     periods (means mean_uptime / mean_downtime), starting in the
//     stationary state. Every up→down transition is a *crash-reboot*: the
//     node's buffered copies (spray state, relayed copies, onion state)
//     are flushed — lost, not leaked.
//   * Transfer failure — each attempted transfer independently fails with
//     probability p_fail; alternatively a Gilbert-Elliott two-state chain
//     per link models correlated (bursty) loss.
//   * Blackholes — a seeded subset of nodes accepts copies and never
//     forwards them (the adversary layer's dropper counterpart).
//   * Run abort — p_run_abort makes a whole experiment run throw
//     InjectedFault, exercising the engine's quarantine path.
//
// Consumers (sim::NetworkSim, the routing protocols, core::Experiment)
// hold a FaultPlan* that is null when every knob is zero; the null path
// performs no RNG draws and no branches beyond one pointer test, which is
// what keeps fault-free output byte-identical to a build without this
// layer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace odtn::faults {

/// Thrown by the run-abort fault (and usable by tests to simulate any
/// mid-run failure); the experiment engine quarantines the run instead of
/// letting it take down the sweep.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

/// Two-state correlated-loss model per link: the chain transitions on every
/// transfer attempt, then the attempt fails with the current state's
/// probability. All four values are probabilities in [0, 1].
struct GilbertElliott {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.0;
  double p_fail_good = 0.0;
  double p_fail_bad = 1.0;
};

struct FaultConfig {
  /// Node churn: mean exponential up/down durations (same time unit as the
  /// contact process). Churn is enabled only when both are > 0.
  double mean_uptime = 0.0;
  double mean_downtime = 0.0;

  /// Independent per-transfer failure probability.
  double p_fail = 0.0;
  /// When set, overrides p_fail with a per-link Gilbert-Elliott chain.
  std::optional<GilbertElliott> gilbert_elliott;

  /// Fraction of nodes (rounded down) that are blackholes.
  double blackhole_fraction = 0.0;

  /// Probability that a whole experiment run throws InjectedFault at start
  /// (harness fault; exercises the engine's quarantine path). Not part of
  /// the network fault plan.
  double p_run_abort = 0.0;

  bool churn_enabled() const { return mean_uptime > 0.0 && mean_downtime > 0.0; }
  bool link_faults_enabled() const {
    return p_fail > 0.0 || gilbert_elliott.has_value();
  }
  bool blackholes_enabled() const { return blackhole_fraction > 0.0; }
  /// Whether a FaultPlan is needed at all (p_run_abort is engine-level and
  /// deliberately excluded).
  bool enabled() const {
    return churn_enabled() || link_faults_enabled() || blackholes_enabled();
  }

  /// Throws std::invalid_argument on out-of-range probabilities or negative
  /// durations.
  void validate() const;
};

/// One realization of the fault processes over [0, horizon): per-node up/down
/// schedules, the blackhole set, and the per-link loss state. Construction
/// is deterministic in (config, node_count, horizon, seed); transfer_fails
/// is stateful but callers query it in simulated-event order, which is
/// itself deterministic per run.
class FaultPlan {
 public:
  /// `blackhole_exempt` lists nodes that must not be blackholes (the
  /// experiment engine exempts the endpoints so the blackhole knob measures
  /// relay droppers, not trivially-dead destinations).
  FaultPlan(const FaultConfig& config, std::size_t node_count, Time horizon,
            std::uint64_t seed,
            std::span<const NodeId> blackhole_exempt = {});

  const FaultConfig& config() const { return config_; }
  std::size_t node_count() const { return node_count_; }

  /// Churn duty cycle: is `v` powered on at time t?
  bool node_up(NodeId v, Time t) const;

  /// First crash (up→down transition) of `v` strictly after `t`;
  /// kTimeInfinity if none before the horizon.
  Time next_crash_after(NodeId v, Time t) const;

  /// Whether `v` crashed in the window (t0, t1].
  bool crashed_in(NodeId v, Time t0, Time t1) const {
    return next_crash_after(v, t0) <= t1;
  }

  bool is_blackhole(NodeId v) const { return !blackhole_.empty() && blackhole_[v]; }
  std::size_t blackhole_count() const { return blackhole_count_; }

  /// Stateful draw: does this transfer attempt over link (a, b) fail?
  /// Consumes RNG state (and advances the link's Gilbert-Elliott chain), so
  /// call it exactly once per attempted transfer, in simulation order.
  bool transfer_fails(NodeId a, NodeId b);

  /// Every crash event in the plan, time-sorted (ties by node id) — the
  /// whole-network simulator drains this to flush crashed buffers.
  struct CrashEvent {
    Time time;
    NodeId node;
  };
  const std::vector<CrashEvent>& crashes() const { return crashes_; }

 private:
  FaultConfig config_;
  std::size_t node_count_;
  /// Per node: times at which the up/down state flips, increasing;
  /// starts_up_[v] gives the state before the first flip.
  std::vector<std::vector<Time>> transitions_;
  std::vector<bool> starts_up_;
  std::vector<std::vector<Time>> down_times_;  // per node, sorted
  std::vector<CrashEvent> crashes_;
  std::vector<bool> blackhole_;
  std::size_t blackhole_count_ = 0;
  // odtn-lint: allow(rng) — declaration only: seeded in the FaultPlan
  // constructor init list from derive_seed(seed, 1)
  util::Rng link_rng_;
  std::unordered_map<std::uint64_t, bool> link_bad_;  // Gilbert-Elliott state
};

/// The one fault gate both the per-message protocols and the
/// whole-network simulator pass hand-offs through. Without a plan every
/// check passes, no RNG is drawn and no metric is registered; with one it
/// registers faults.contacts_suppressed, faults.transfer_failures and
/// faults.blackhole_absorbed, and counts each outcome there and in its own
/// tallies.
class FaultGate {
 public:
  FaultGate() = default;
  FaultGate(FaultPlan* plan, metrics::Registry* reg);

  /// A further faults.* counter, registered only when a plan is attached.
  metrics::CounterHandle counter(const char* name) const;

  /// Are both endpoints of a contact at time t powered up? A contact with
  /// a powered-down endpoint counts as suppressed.
  bool contact_up(NodeId a, NodeId b, Time t);
  /// One attempted transfer over (from, to): does it fail mid-contact?
  /// Draws from the plan's link-loss stream, so call it exactly once per
  /// attempt, in simulation order.
  bool transfer_fails(NodeId from, NodeId to);
  /// After a completed hand-off: is the receiver a blackhole, which
  /// accepts the copy and never forwards it?
  bool absorbs(NodeId receiver);

  enum class Verdict { kPass, kRetry, kCrashed };
  /// Can `from`, holding the copy since `since`, hand it to `to` at time
  /// `t`? kCrashed: `from` crash-rebooted in (since, t] and its buffered
  /// onion state is gone (the caller counts the loss under its own name);
  /// kRetry: an endpoint is powered down or the transfer failed, so the
  /// sender keeps the copy and tries again later.
  Verdict check(NodeId from, Time since, NodeId to, Time t);

  std::size_t suppressed() const { return suppressed_; }
  std::size_t failures() const { return failures_; }
  std::size_t absorbed() const { return absorbed_; }

 private:
  FaultPlan* plan_ = nullptr;
  metrics::Registry* reg_ = nullptr;
  metrics::CounterHandle m_suppressed_;
  metrics::CounterHandle m_failures_;
  metrics::CounterHandle m_absorbed_;
  std::size_t suppressed_ = 0;
  std::size_t failures_ = 0;
  std::size_t absorbed_ = 0;
};

}  // namespace odtn::faults
