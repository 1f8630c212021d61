// Congestion/utility-aware DTN forwarding (Orion-style baseline).
//
// The onion protocols replicate along pre-selected relay groups and are
// blind to load: under sustained traffic they push copies into saturated
// buffers and lose them. This forwarder is the classic DTN answer — a
// *utility* per (node, destination) learned from contact history, with
// replication gated on marginal utility gain and on the receiver's buffer
// occupancy (back off when the next hop is congested).
//
// Utility model: for each node pair we keep an EWMA of the observed
// inter-contact interval; utility(v, d) = 1 / ewma_interval(v, d), i.e. the
// estimated contact rate — higher means v meets d more often, the PRoPHET /
// Orion delivery-predictability idea in its simplest deterministic form.
// A node pair never observed has utility 0.
//
// Everything is updated from the simulated contact sequence only (no
// wall-clock, no RNG), so a loaded simulation using this forwarder stays
// bit-identical across thread counts.
//
// Header-only: sim::NetworkSim consults it at contact time and routing
// already links against sim, so an out-of-line definition here would make
// the two libraries mutually dependent.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace odtn::routing {

struct UtilityForwarderConfig {
  /// EWMA weight of the newest inter-contact interval (0 < alpha <= 1).
  double ewma_alpha = 0.25;
  /// Replicate only when the receiver's utility for the destination
  /// exceeds the holder's by at least this factor (>= 1 ratchets copies
  /// strictly toward better custodians; 0 replicates to anyone, which
  /// recovers congestion-ignorant spray — the "spray-blind" baseline).
  double min_utility_ratio = 1.0;
  /// Back off: refuse to replicate into a receiver whose buffer occupancy
  /// (load / capacity) is at or above this fraction. > 1 disables the
  /// congestion check (unlimited buffers never back off either).
  double backoff_occupancy = 0.9;
  /// Recovery feedback: discount a receiver's utility by
  /// (1 - failure_penalty * failure_score(receiver)), where the score is
  /// an EWMA (weight `ewma_alpha`) of that node's observed transfer
  /// outcomes (1 = every recent transfer to it failed). Copies steer away
  /// from nodes that keep dropping them — the observed-outcome adaptation
  /// of Shaghaghian-Coates, in its simplest deterministic form. 0 (the
  /// default) disables the feedback: outcomes are not recorded and
  /// replication decisions are byte-identical to builds without the knob.
  double failure_penalty = 0.0;
};

class UtilityForwarder {
 public:
  UtilityForwarder(std::size_t nodes, UtilityForwarderConfig config = {})
      : nodes_(nodes),
        config_(config),
        failure_score_(config.failure_penalty > 0.0 ? nodes : 0, 0.0) {}

  /// Feeds one contact event (called for every surviving contact, in trace
  /// order). Updates both endpoints' inter-contact EWMAs.
  void observe_contact(NodeId a, NodeId b, Time t) {
    Pair& p = pairs_.find_or_insert(key(a, b));
    if (p.last >= 0.0) {
      const double interval = t - p.last;
      p.ewma_interval = p.ewma_interval < 0.0
                            ? interval
                            : (1.0 - config_.ewma_alpha) * p.ewma_interval +
                                  config_.ewma_alpha * interval;
    }
    p.last = t;
  }

  /// Estimated contact rate of (v, d); 0 until two contacts were seen.
  double utility(NodeId v, NodeId d) const {
    if (v == d) return 0.0;
    const Pair* p = pairs_.find(key(v, d));
    if (p == nullptr || p->ewma_interval <= 0.0) return 0.0;
    return 1.0 / p->ewma_interval;
  }

  /// Feeds one observed transfer outcome to `receiver` (success = the copy
  /// was handed over; failure = the mid-contact transfer failed). No-op
  /// with failure_penalty == 0, keeping the zero-knob path byte-identical.
  void observe_transfer_outcome(NodeId receiver, bool success) {
    if (config_.failure_penalty <= 0.0) return;
    double& s = failure_score_[receiver];
    s = (1.0 - config_.ewma_alpha) * s +
        config_.ewma_alpha * (success ? 0.0 : 1.0);
  }

  /// EWMA of observed transfer failures to `v` (0 until a failure is seen).
  double failure_score(NodeId v) const {
    return failure_score_.empty() ? 0.0 : failure_score_[v];
  }

  /// Replication decision at a contact: should `holder` spend a ticket on
  /// `receiver` for a message to `dst`, given the receiver's current
  /// buffer occupancy? Pure (no state change, no RNG).
  bool should_replicate(NodeId holder, NodeId receiver, NodeId dst,
                        std::size_t receiver_load,
                        std::size_t receiver_capacity) const {
    if (receiver_capacity != 0) {
      const double occupancy = static_cast<double>(receiver_load) /
                               static_cast<double>(receiver_capacity);
      if (occupancy >= config_.backoff_occupancy) return false;
    }
    double gain = utility(receiver, dst);
    if (config_.failure_penalty > 0.0) {
      const double discount =
          1.0 - config_.failure_penalty * failure_score(receiver);
      gain *= discount > 0.0 ? discount : 0.0;
    }
    const double have = utility(holder, dst);
    return gain >= have * config_.min_utility_ratio;
  }

  std::size_t node_count() const { return nodes_; }
  const UtilityForwarderConfig& config() const { return config_; }

 private:
  struct Pair {
    Time last = -1.0;
    double ewma_interval = -1.0;
  };

  // Node ids are below kInvalidNode, so no pair maps to PairTable::kEmpty.
  static std::uint64_t key(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  // Open-addressed map (linear probing, load factor at most 1/2) from a
  // pair key to its EWMAs. Memory grows with the pairs seen, never with
  // nodes^2: a sparse-backend run meets a few pairs out of 10^10. Nothing
  // iterates it, so slot order reaches no output.
  class PairTable {
   public:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    const Pair* find(std::uint64_t k) const {
      if (slots_.empty()) return nullptr;
      const Slot& s = slots_[probe(k)];
      return s.key == k ? &s.pair : nullptr;
    }

    Pair& find_or_insert(std::uint64_t k) {
      if (slots_.empty()) rehash(kFirstCapacity);
      std::size_t i = probe(k);
      if (slots_[i].key == k) return slots_[i].pair;
      if (2 * (size_ + 1) > slots_.size()) {
        rehash(2 * slots_.size());
        i = probe(k);
      }
      ++size_;
      slots_[i].key = k;
      return slots_[i].pair;
    }

   private:
    static constexpr std::size_t kFirstCapacity = 64;
    struct Slot {
      std::uint64_t key = kEmpty;
      Pair pair;
    };

    // The slot holding `k`, or the empty slot where it would go.
    std::size_t probe(std::uint64_t k) const {
      const std::size_t mask = slots_.size() - 1;
      // Fibonacci hashing: the product's top bits mix both node ids.
      std::size_t i = static_cast<std::size_t>(
          (k * 0x9E3779B97F4A7C15ull) >> shift_);
      while (slots_[i].key != k && slots_[i].key != kEmpty) i = (i + 1) & mask;
      return i;
    }

    void rehash(std::size_t capacity) {
      std::vector<Slot> old(capacity);
      old.swap(slots_);
      shift_ = 64 - std::countr_zero(capacity);
      for (const Slot& s : old) {
        if (s.key != kEmpty) slots_[probe(s.key)] = s;
      }
    }

    std::vector<Slot> slots_;  // power-of-two size
    std::size_t size_ = 0;
    int shift_ = 64;
  };

  std::size_t nodes_;
  UtilityForwarderConfig config_;
  PairTable pairs_;
  // Per-node transfer-failure EWMA; sized only when failure_penalty > 0.
  std::vector<double> failure_score_;
};

}  // namespace odtn::routing
