#include "faults/faults.hpp"

#include <algorithm>

namespace odtn::faults {

namespace {

// Safety valve against degenerate configurations (tiny means over a huge
// horizon): churn sampling stops after this many flips per node and the
// node stays in its final state. At the paper's time scales (minutes over
// horizons of days) this is never reached.
constexpr std::size_t kMaxTransitionsPerNode = 1 << 16;

}  // namespace

FaultPlan::FaultPlan(const FaultConfig& config, std::size_t node_count,
                     Time horizon, std::uint64_t seed,
                     std::span<const NodeId> blackhole_exempt)
    : config_(config),
      node_count_(node_count),
      link_rng_(util::derive_seed(seed, 1)) {
  if (node_count == 0) {
    throw std::invalid_argument("FaultPlan: node_count must be >= 1");
  }

  if (config_.churn_enabled()) {
    transitions_.resize(node_count);
    starts_up_.resize(node_count);
    down_times_.resize(node_count);
    const double up_rate = 1.0 / config_.mean_uptime;
    const double down_rate = 1.0 / config_.mean_downtime;
    // Stationary start probability of being up.
    const double p_up =
        config_.mean_uptime / (config_.mean_uptime + config_.mean_downtime);
    for (NodeId v = 0; v < node_count; ++v) {
      // Per-node stream: the schedule of node v depends only on (seed, v),
      // never on query order or on other nodes.
      util::Rng rng(util::derive_seed(seed, 2 + v));
      bool up = rng.chance(p_up);
      starts_up_[v] = up;
      Time t = 0.0;
      auto& flips = transitions_[v];
      while (t < horizon && flips.size() < kMaxTransitionsPerNode) {
        t += rng.exponential(up ? up_rate : down_rate);
        if (t >= horizon) break;
        flips.push_back(t);
        up = !up;
        if (!up) {
          down_times_[v].push_back(t);
          crashes_.push_back({t, v});
        }
      }
    }
    std::sort(crashes_.begin(), crashes_.end(),
              [](const CrashEvent& x, const CrashEvent& y) {
                return x.time != y.time ? x.time < y.time : x.node < y.node;
              });
  }

  if (config_.blackholes_enabled()) {
    blackhole_.assign(node_count, false);
    std::vector<bool> exempt(node_count, false);
    std::size_t exempt_count = 0;
    for (NodeId v : blackhole_exempt) {
      if (v < node_count && !exempt[v]) {
        exempt[v] = true;
        ++exempt_count;
      }
    }
    std::vector<NodeId> eligible;
    eligible.reserve(node_count - exempt_count);
    for (NodeId v = 0; v < node_count; ++v) {
      if (!exempt[v]) eligible.push_back(v);
    }
    std::size_t want = static_cast<std::size_t>(
        config_.blackhole_fraction * static_cast<double>(node_count));
    want = std::min(want, eligible.size());
    util::Rng rng(util::derive_seed(seed, 0));
    for (std::size_t i : rng.sample_without_replacement(eligible.size(), want)) {
      blackhole_[eligible[i]] = true;
    }
    blackhole_count_ = want;
  }
}

bool FaultPlan::node_up(NodeId v, Time t) const {
  if (transitions_.empty()) return true;
  const auto& flips = transitions_[v];
  auto flipped = static_cast<std::size_t>(
      std::upper_bound(flips.begin(), flips.end(), t) - flips.begin());
  return starts_up_[v] == ((flipped & 1) == 0);
}

Time FaultPlan::next_crash_after(NodeId v, Time t) const {
  if (down_times_.empty()) return kTimeInfinity;
  const auto& downs = down_times_[v];
  auto it = std::upper_bound(downs.begin(), downs.end(), t);
  return it == downs.end() ? kTimeInfinity : *it;
}

bool FaultPlan::transfer_fails(NodeId a, NodeId b) {
  if (!config_.link_faults_enabled()) return false;
  if (!config_.gilbert_elliott.has_value()) {
    return link_rng_.chance(config_.p_fail);
  }
  const GilbertElliott& ge = *config_.gilbert_elliott;
  NodeId lo = std::min(a, b);
  NodeId hi = std::max(a, b);
  std::uint64_t key = static_cast<std::uint64_t>(lo) * node_count_ + hi;
  bool& bad = link_bad_[key];
  // Transition first, then emit with the new state's loss probability.
  if (bad) {
    if (link_rng_.chance(ge.p_bad_to_good)) bad = false;
  } else {
    if (link_rng_.chance(ge.p_good_to_bad)) bad = true;
  }
  return link_rng_.chance(bad ? ge.p_fail_bad : ge.p_fail_good);
}

FaultGate::FaultGate(FaultPlan* plan, metrics::Registry* reg)
    : plan_(plan), reg_(reg) {
  if (plan_ != nullptr && plan_->config().churn_enabled()) {
    flips_passed_.assign(plan_->node_count(), 0);
  }
  m_suppressed_ = counter("faults.contacts_suppressed");
  m_failures_ = counter("faults.transfer_failures");
  m_absorbed_ = counter("faults.blackhole_absorbed");
}

metrics::CounterHandle FaultGate::counter(const char* name) const {
  return plan_ != nullptr ? metrics::counter(reg_, name)
                          : metrics::CounterHandle{};
}

bool FaultGate::up(NodeId v, Time t) {
  const std::vector<Time>& flips = plan_->flips(v);
  std::uint32_t& passed = flips_passed_[v];
  while (passed < flips.size() && flips[passed] <= t) ++passed;
  return plan_->starts_up(v) == (passed % 2 == 0);
}

bool FaultGate::contact_up(NodeId a, NodeId b, Time t) {
  if (t < last_query_) {
    throw std::logic_error("FaultGate::contact_up: query time decreased");
  }
  last_query_ = t;
  if (flips_passed_.empty() || (up(a, t) && up(b, t))) return true;
  ++suppressed_;
  m_suppressed_.inc();
  return false;
}

bool FaultGate::transfer_fails(NodeId from, NodeId to) {
  if (plan_ == nullptr || !plan_->transfer_fails(from, to)) return false;
  ++failures_;
  m_failures_.inc();
  return true;
}

bool FaultGate::absorbs(NodeId receiver) {
  if (plan_ == nullptr || !plan_->is_blackhole(receiver)) return false;
  ++absorbed_;
  m_absorbed_.inc();
  return true;
}

FaultGate::Verdict FaultGate::check(NodeId from, Time since, NodeId to,
                                    Time t) {
  if (plan_ == nullptr) return Verdict::kPass;
  if (plan_->crashed_in(from, since, t)) return Verdict::kCrashed;
  if (!contact_up(from, to, t) || transfer_fails(from, to)) {
    return Verdict::kRetry;
  }
  return Verdict::kPass;
}

}  // namespace odtn::faults
