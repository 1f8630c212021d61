// Experiment configuration mirroring Table II of the paper.
#pragma once

#include <cstdint>
#include <string>

#include "faults/faults.hpp"
#include "recovery/recovery.hpp"
#include "routing/onion_routing.hpp"
#include "routing/types.hpp"
#include "sim/network_sim.hpp"
#include "traffic/traffic.hpp"

namespace odtn::core {

/// Contact-rate storage: the historical O(n²) triangular ContactGraph
/// (kDense, the default), or the CSR SparseContactGraph (kSparse: O(n + m)
/// memory for n = 10⁵–10⁶, byte-identical to kDense on complete graphs at
/// paper scale — the same RNG draw sequence).
enum class ContactBackend : std::uint8_t { kDense, kSparse };

/// Forwarding family for loaded-traffic experiments: the paper's onion
/// groups (kOnion, per-flow K/L); routing::UtilityForwarder (kUtility:
/// replicate by marginal delivery utility, back off from saturated
/// buffers); or the same forwarder with both gates off (kSprayBlind, the
/// congestion-ignorant control).
enum class LoadForwarder : std::uint8_t { kOnion, kUtility, kSprayBlind };

/// "onion", "utility", or "spray-blind".
const char* load_forwarder_name(LoadForwarder f);

/// Default values are the paper's defaults (Table II and Sec. V-A):
/// n = 100 nodes, inter-contact times uniform in [10, 360] minutes,
/// g = 5, K = 3, L = 1, T up to 1800 minutes, 10% compromised nodes.
///
/// Every field is one row of the knob table (core/config_schema.cpp): its
/// flag, usage line, allowed values, and whether it enters the checkpoint
/// hash. Rules between knobs are the list beside the table.
///
/// Each optional layer — faults, traffic, recovery, wire cells — is off at
/// its defaults: no plan is built, no RNG stream is drawn or derived, no
/// metric of the layer registers, and every export is byte-identical to a
/// build without it. When on, a run seeds the layer from its own RNG
/// stream, so output stays bit-identical at every thread count.
struct ExperimentConfig {
  // Network (random contact graph).
  std::size_t nodes = 100;
  double min_ict = 10.0;
  double max_ict = 360.0;

  /// avg_degree and communities shape sparse random graphs and must stay 0
  /// on the dense backend (validated); avg_degree 0 is the paper's complete
  /// graph. group_shards > 0 permutes the group directory lazily per shard:
  /// O((K+2) * shard_size) directory work per run instead of O(n).
  ContactBackend backend = ContactBackend::kDense;
  std::size_t avg_degree = 0;
  std::size_t communities = 0;
  std::size_t group_shards = 0;

  // Protocol parameters.
  std::size_t group_size = 5;    // g
  std::size_t num_relays = 3;    // K
  std::size_t copies = 1;        // L
  double ttl = 1800.0;           // T (same unit as the contact model)

  // Adversary.
  double compromise_fraction = 0.1;  // c / n

  // Trace experiments only: the paper's "training the traces" caps
  // network-wide silent gaps at this many time units (0 = wall-clock rates).
  double trace_training_gap = 1800.0;

  // Harness.
  std::size_t runs = 100;
  std::uint64_t seed = 1;
  /// Worker threads (0 = all hardware threads). Run i draws from
  /// derive_seed(seed, i) and outcomes fold in run order, so results are
  /// bit-identical at every thread count.
  std::size_t threads = 1;
  routing::CryptoMode crypto = routing::CryptoMode::kNone;
  routing::SprayMode spray = routing::SprayMode::kSprayAndWait;
  /// Collect odtn::metrics: per-run registries fold into
  /// ExperimentResult::metrics in run order (bit-identical at every thread
  /// count). Off, the engine passes null sinks.
  bool collect_metrics = false;

  // Robustness (see odtn::faults): churn, link loss, blackholes, aborts.
  faults::FaultConfig faults;

  /// When non-empty, the engine snapshots its folded progress to this file
  /// atomically after every `checkpoint_interval` runs (minimum 1); with
  /// `resume` it continues from the file, byte-identically, if the file's
  /// hash of the identity knobs and the scenario matches (core/checkpoint).
  std::string checkpoint_path;
  std::size_t checkpoint_interval = 16;
  bool resume = false;

  // Heavy traffic (see odtn::traffic). When traffic.enabled(), each run
  // samples a contact trace over [0, horizon + max ttl), expands the flows
  // into a TrafficPlan and pushes the whole workload through
  // sim::run_network_sim. Random-graph scenarios only (either backend).
  traffic::TrafficConfig traffic;
  /// Contact bandwidth, per-node buffers (0 slots = unlimited) and the
  /// forwarding family of loaded runs; they require traffic (validated).
  sim::ContactBandwidth bandwidth;
  std::size_t buffer_capacity = 0;
  sim::BufferPolicy buffer_policy = sim::BufferPolicy::kRejectNew;
  LoadForwarder load_forwarder = LoadForwarder::kOnion;
  /// Utility/spray-blind forwarders only: discount a receiver's utility by
  /// an EWMA of its observed transfer failures (recovery feedback; see
  /// routing::UtilityForwarderConfig::failure_penalty). 0 disables.
  double utility_failure_penalty = 0.0;

  // End-to-end reliability (see odtn::recovery). Retransmission and
  // suspicion-biased retries apply to unloaded and loaded runs; ACK
  // anti-packets and overload shedding require traffic (validated).
  recovery::RecoveryConfig recovery;

  // Wire-accurate circuit layer (see src/circuit). Unloaded runs fragment
  // each contact crossing into sealed fixed-size cells (requires
  // CryptoMode::kReal — validated); loaded runs charge each transfer its
  // cell cost against the contact-bandwidth budget.
  bool wire_cells = false;
  /// In [circuit::kMinCellSize, kMaxCellSize] (the row's range).
  std::size_t cell_size = circuit::kDefaultCellSize;
};

}  // namespace odtn::core
