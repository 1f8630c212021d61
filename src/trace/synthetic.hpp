// Synthetic stand-ins for the CRAWDAD cambridge/haggle traces.
//
// The paper replays two real iMote contact logs: "Cambridge" (Experiment 2:
// 12 mobile nodes, several days, dense contacts) and "Infocom 2005"
// (Experiment 3: 41 mobile nodes, 3 conference days, sparser contacts).
// That dataset is not redistributable here, so these generators synthesize
// traces with the properties the paper's conclusions rest on: diurnal
// activity (contacts only during business/session hours, silence at night)
// and the respective scale and density. See DESIGN.md section 4.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/contact_trace.hpp"
#include "util/rng.hpp"

namespace odtn::trace {

constexpr double kSecondsPerDay = 86400.0;

struct DiurnalTraceParams {
  std::size_t nodes = 12;
  int days = 5;
  /// Active windows within each day, as [start, end) seconds-of-day.
  std::vector<std::pair<double, double>> daily_windows = {
      {9 * 3600.0, 17 * 3600.0}};
  /// Mean inter-contact time (seconds of *active* time) drawn uniformly
  /// from this range per pair.
  double min_ict = 60.0;
  double max_ict = 600.0;
  /// Probability that a pair of nodes meets at all (graph density).
  double pair_probability = 1.0;
};

/// Generates Poisson contact events per connected pair, restricted to the
/// daily active windows.
ContactTrace make_diurnal_trace(const DiurnalTraceParams& params,
                                util::Rng& rng);

/// Cambridge-like trace: 12 nodes, 5 days, one 9:00-17:00 window, dense and
/// frequent contacts. Matches the regime of the paper's Figs. 14-16, where
/// delivery saturates within ~30 minutes of business time.
ContactTrace make_cambridge_like(std::uint64_t seed);

/// Infocom'05-like trace: 41 nodes, 3 days, two conference-session windows
/// per day, sparser and slower contacts. Matches the regime of Figs. 17-19,
/// where delivery plateaus across session gaps and extra copies gain little.
ContactTrace make_infocom_like(std::uint64_t seed);

/// Samples a concrete event trace from a contact graph's Poisson processes
/// over [0, horizon). Bridges the random-graph model (Table II) and the
/// trace-driven engines (TraceContactModel, run_network_sim). Pairs are
/// visited in ascending (i, j), i < j (append_neighbors' order), so dense
/// and sparse graphs with the same rates give identical events.
ContactTrace sample_poisson_trace(const graph::ContactRates& rates,
                                  Time horizon, util::Rng& rng);

}  // namespace odtn::trace
