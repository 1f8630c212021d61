// Ablation: end-to-end recovery — delivery under faults and offered load
// with the odtn::recovery layer off vs on, against the fault-blind Eq. 7
// curve.
//
// The paper's delivery analysis (Eq. 7) assumes relays neither fail nor
// drop copies, and it has no notion of a send being retried: once the
// copies are out, the message either makes it by T or it does not. The
// recovery layer gives the sender another move — delivery ACKs spread as
// anti-packets, undelivered messages re-onion through freshly sampled
// relay groups after a backed-off timeout, suspicion biases those retries
// away from groups that keep eating copies, and overload shedding refuses
// work the network cannot carry. The analysis column is the fault-free
// closed form at the same (K, g, L, T); it is constant down each sweep —
// that flatness is the point, since every fault level violates its
// assumptions equally. The recovery_on − recovery_off gap is the delivery
// the layer buys back at each fault level and offered load.
#include <iostream>
#include <sstream>

#include "common/bench_common.hpp"
#include "metrics/writer.hpp"
#include "util/stats.hpp"

namespace {

// The recovery stack under test. Timeout below the TTL so every message
// has room for all three retries; suspicion sharp enough to converge
// within one run's workload; shedding engages only near saturation.
odtn::recovery::RecoveryConfig recovery_on() {
  odtn::recovery::RecoveryConfig rc;
  rc.acks = true;
  rc.retx_timeout = 300.0;
  rc.retx_max = 3;
  rc.retx_backoff = 2.0;
  rc.retx_jitter = 0.1;
  rc.suspicion_alpha = 0.3;
  rc.suspicion_threshold = 0.75;
  rc.shed_occupancy = 0.95;
  rc.shed_saturation = 0.8;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto defaults = core::entry_defaults();
  defaults.runs = 10;  // whole-workload runs, not messages
  defaults.copies = 4;
  auto base = bench::base_config(args, {}, defaults);
  bench::print_header(
      "Ablation", "Recovery layer vs faults and offered load",
      "n=100, K=3, g=5, L=4, T=1800, horizon=600, bandwidth=2/contact, "
      "buffer=8; analysis is fault-free Eq. 7",
      base);

  // Fault-blind Eq. 7 at the same (K, g, L, T): the unloaded fault-free
  // closed form, evaluated over this seed's realizations.
  const double eq7 =
      bench::run_experiment(base, core::RandomGraphScenario{})
          .ana_delivery.mean();

  std::vector<double> off_col, on_col;
  auto off_on_cells = [&](core::ExperimentConfig cfg, util::Table& table) {
    auto off = bench::run_experiment(cfg, core::RandomGraphScenario{});
    cfg.recovery = recovery_on();
    auto on = bench::run_experiment(cfg, core::RandomGraphScenario{});
    table.cell(eq7);
    table.cell(off.sim_delivered.mean());
    table.cell(on.sim_delivered.mean());
    table.cell(on.sim_delivered.mean() - off.sim_delivered.mean());
    table.cell(off.sim_p99_delay.mean(), 1);
    table.cell(on.sim_p99_delay.mean(), 1);
    off_col.push_back(off.sim_delivered.mean());
    on_col.push_back(on.sim_delivered.mean());
  };

  std::cout << "# sweep 1: fault intensity (blackhole relay fraction,\n"
            << "#          p_fail=0.2, churn 400/100) at offered rate 0.4\n";
  const std::vector<double> blackholes = {0.0, 0.1, 0.2, 0.3};
  bench::Sweep fault_sweep({"blackhole", "analysis_eq7", "recovery_off",
                            "recovery_on", "recovered", "off_p99", "on_p99"},
                           blackholes, bench::Sweep::XFormat::kFixed2);
  fault_sweep.run([&](double fraction, util::Table& table) {
    auto cfg = bench::loaded(base, 0.4);
    cfg.faults.p_fail = 0.2;
    cfg.faults.mean_uptime = 400.0;
    cfg.faults.mean_downtime = 100.0;
    cfg.faults.blackhole_fraction = fraction;
    off_on_cells(cfg, table);
  });
  fault_sweep.print(std::cout);

  std::cout << "# sweep 2: offered load (msgs/time-unit) at blackhole=0.2,\n"
            << "#          p_fail=0.2, churn 400/100\n";
  const std::vector<double> offered = {0.1, 0.2, 0.4, 0.8};
  bench::Sweep load_sweep({"offered", "analysis_eq7", "recovery_off",
                           "recovery_on", "recovered", "off_p99", "on_p99"},
                          offered, bench::Sweep::XFormat::kFixed2);
  load_sweep.run([&](double rate, util::Table& table) {
    auto cfg = bench::loaded(base, rate);
    cfg.faults.p_fail = 0.2;
    cfg.faults.mean_uptime = 400.0;
    cfg.faults.mean_downtime = 100.0;
    cfg.faults.blackhole_fraction = 0.2;
    off_on_cells(cfg, table);
  });
  load_sweep.print(std::cout);
  std::cout << "# the analysis column is flat by construction: Eq. 7 is "
               "blind to every fault\n# knob. recovery_on buys back part of "
               "the gap via ACK-vaccinated retransmission\n# and "
               "suspicion-biased retries; at the highest load shedding "
               "trades admitted\n# messages for a bounded p99.\n";

  auto join = [](const std::vector<double>& v) {
    std::ostringstream os;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os << ",";
      os << metrics::format_double(v[i]);
    }
    return os.str();
  };
  std::ostringstream extra;
  extra << "\"recovery_off\":[" << join(off_col) << "],\"recovery_on\":["
        << join(on_col) << "]";
  bench::finish(base, args, timer, extra.str());
  return 0;
}
