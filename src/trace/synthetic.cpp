#include "trace/synthetic.hpp"

#include <cmath>
#include <stdexcept>

namespace odtn::trace {

namespace {

void check(const DiurnalTraceParams& p) {
  if (p.nodes < 2) throw std::invalid_argument("diurnal trace: nodes < 2");
  if (p.days < 1) throw std::invalid_argument("diurnal trace: days < 1");
  if (p.daily_windows.empty()) {
    throw std::invalid_argument("diurnal trace: no active windows");
  }
  for (auto [s, e] : p.daily_windows) {
    if (!(s >= 0.0 && e > s && e <= kSecondsPerDay)) {
      throw std::invalid_argument("diurnal trace: bad window");
    }
  }
  if (!(p.min_ict > 0.0) || p.max_ict < p.min_ict) {
    throw std::invalid_argument("diurnal trace: bad ICT range");
  }
  if (p.pair_probability < 0.0 || p.pair_probability > 1.0) {
    throw std::invalid_argument("diurnal trace: bad pair probability");
  }
}

}  // namespace

ContactTrace make_diurnal_trace(const DiurnalTraceParams& params,
                                util::Rng& rng) {
  check(params);
  std::vector<ContactEvent> events;
  for (NodeId i = 0; i < params.nodes; ++i) {
    for (NodeId j = i + 1; j < params.nodes; ++j) {
      if (!rng.chance(params.pair_probability)) continue;
      double rate = 1.0 / rng.uniform(params.min_ict, params.max_ict);
      // Poisson process over the concatenation of active windows: draw
      // exponential gaps in "active seconds", then map each arrival back
      // to wall-clock time.
      double active = 0.0;  // active seconds consumed so far
      double total_active_per_day = 0.0;
      for (auto [s, e] : params.daily_windows) total_active_per_day += e - s;
      double total_active = total_active_per_day * params.days;
      while (true) {
        active += rng.exponential(rate);
        if (active >= total_active) break;
        int day = static_cast<int>(active / total_active_per_day);
        double within = active - day * total_active_per_day;
        double wall = day * kSecondsPerDay;
        for (auto [s, e] : params.daily_windows) {
          double len = e - s;
          if (within < len) {
            wall += s + within;
            break;
          }
          within -= len;
        }
        events.push_back({wall, i, j});
      }
    }
  }
  return ContactTrace(params.nodes, std::move(events));
}

ContactTrace make_cambridge_like(std::uint64_t seed) {
  DiurnalTraceParams p;
  p.nodes = 12;
  p.days = 5;
  p.daily_windows = {{9 * 3600.0, 17 * 3600.0}};
  p.min_ict = 60.0;
  p.max_ict = 600.0;
  p.pair_probability = 1.0;
  // odtn-lint: allow(rng) — xor-tweaked sub-stream predates
  // util::derive_seed; synthetic traces are pinned to this sequence by trace
  // goldens and tests
  util::Rng rng(seed ^ 0xca3b41d6e01ULL);
  return make_diurnal_trace(p, rng);
}

ContactTrace sample_poisson_trace(const graph::ContactRates& rates,
                                  Time horizon, util::Rng& rng) {
  if (!(horizon > 0.0)) {
    throw std::invalid_argument("sample_poisson_trace: horizon must be > 0");
  }
  // The event count is Poisson with mean Σλ·horizon: reserve four standard
  // deviations above it, so the vector almost never grows (past 1e8 events,
  // growth is left to push_back).
  std::vector<ContactEvent> events;
  const double mean = rates.total_rate() * horizon;
  if (mean < 1e8) {
    events.reserve(static_cast<std::size_t>(mean + 4.0 * std::sqrt(mean)) + 16);
  }
  std::vector<NodeId> neighbors;
  const std::size_t n = rates.node_count();
  for (NodeId i = 0; i < n; ++i) {
    neighbors.clear();
    rates.append_neighbors(i, neighbors);
    for (NodeId j : neighbors) {
      if (j <= i) continue;  // each pair once, from its lower endpoint
      double rate = rates.rate(i, j);
      if (rate <= 0.0) continue;
      Time t = 0.0;
      while (true) {
        t += rng.exponential(rate);
        if (t >= horizon) break;
        events.push_back({t, i, j});
      }
    }
  }
  return ContactTrace(n, std::move(events));
}

ContactTrace make_infocom_like(std::uint64_t seed) {
  DiurnalTraceParams p;
  p.nodes = 41;
  p.days = 3;
  // Morning and afternoon conference sessions.
  p.daily_windows = {{9 * 3600.0, 12.5 * 3600.0}, {14 * 3600.0, 17.5 * 3600.0}};
  p.min_ict = 1800.0;
  p.max_ict = 14400.0;
  p.pair_probability = 0.6;
  // odtn-lint: allow(rng) — xor-tweaked sub-stream, pinned like the poisson
  // stream above
  util::Rng rng(seed ^ 0x1f0c0205a7ULL);
  return make_diurnal_trace(p, rng);
}

}  // namespace odtn::trace
