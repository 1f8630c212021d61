// odtn — command-line driver for the library: gen-graph, gen-trace, rates,
// model and simulate; `odtn help` prints each subcommand's flags. model and
// simulate parse their flags through the knob table (core/config_schema).
#include <algorithm>
#include <iostream>
#include <string>

#include "core/config_schema.hpp"
#include "core/experiment.hpp"
#include "metrics/writer.hpp"
#include "graph/graph_io.hpp"
#include "trace/synthetic.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace odtn;

const std::vector<std::string> kModelKnobs = {"n", "g", "K", "L", "T",
                                              "compromised", "threads"};

int usage() {
  std::cout <<
      "odtn — onion-based anonymous DTN routing toolkit\n"
      "\n"
      "  odtn gen-graph --nodes=100 [--min-ict=10 --max-ict=360 --seed=1]\n"
      "                 [--out=graph.txt]\n"
      "  odtn gen-trace --kind=cambridge|infocom|poisson [--seed=1]\n"
      "                 [--nodes=100 --horizon=3600] [--out=trace.txt]\n"
      "  odtn rates     --trace=FILE --nodes=N [--active-gap=1800]\n"
      "  odtn model     [model flags]  (prints every analytical metric)\n"
      "  odtn simulate  [simulate flags] [--metrics-out=FILE] [--trace=FILE\n"
      "                  --trace-format=plain|crawdad|one --trace-nodes=N]\n"
      "\n"
      "model flags:\n"
   << core::knob_usage(core::entry_defaults(), kModelKnobs)
   << "\nsimulate flags:\n"
   << core::knob_usage(core::entry_defaults()) <<
      "\n"
      "simulate output is bit-identical at every --threads value, and a\n"
      "layer whose knobs are all at their defaults is off. --metrics-out\n"
      "writes JSON-lines (CSV for *.csv); --trace streams a trace file and\n"
      "needs --contact-backend=sparse. Exit codes: 0 ok, 1 runtime error,\n"
      "2 usage or malformed input file (one-line diagnostic on stderr).\n";
  return 2;
}

int cmd_gen_graph(const util::Args& args) {
  const std::string out = args.get_output("out");
  // odtn-lint: allow(rng) — top-level CLI stream seeded from --seed;
  // run-level streams below it derive via derive_seed in the experiment
  // engine
  util::Rng rng(args.get_unsigned("seed", 1));
  auto g = graph::random_contact_graph(args.get_unsigned("nodes", 100), rng,
                                       args.get_double("min-ict", 10.0),
                                       args.get_double("max-ict", 360.0));
  if (out.empty()) {
    std::cout << graph::format_graph(g);
  } else {
    graph::save_graph_file(g, out);
    std::cout << "wrote " << g.node_count() << "-node graph to " << out
              << "\n";
  }
  return 0;
}

int cmd_gen_trace(const util::Args& args) {
  const std::string out = args.get_output("out");
  std::string kind = args.get("kind", "cambridge");
  const std::uint64_t seed = args.get_unsigned("seed", 1);
  std::optional<trace::ContactTrace> t;
  if (kind == "cambridge") {
    t = trace::make_cambridge_like(seed);
  } else if (kind == "infocom") {
    t = trace::make_infocom_like(seed);
  } else if (kind == "poisson") {
    // odtn-lint: allow(rng) — top-level CLI stream seeded from --seed (see
    // above)
    util::Rng rng(seed);
    auto g = graph::random_contact_graph(args.get_unsigned("nodes", 100), rng);
    t = trace::sample_poisson_trace(g, args.get_double("horizon", 3600.0),
                                    rng);
  } else {
    std::cerr << "unknown --kind: " << kind << "\n";
    return 2;
  }
  if (out.empty()) {
    std::cout << trace::format_trace(*t);
  } else {
    trace::save_trace_file(*t, out);
    std::cout << "wrote " << t->event_count() << " events ("
              << t->node_count() << " nodes) to " << out << "\n";
  }
  return 0;
}

int cmd_rates(const util::Args& args) {
  std::string path = args.get("trace", "");
  if (path.empty()) {
    std::cerr << "rates: --trace=FILE required\n";
    return 2;
  }
  const std::size_t nodes = args.get_unsigned("nodes", 0);
  if (nodes < 2) {
    std::cerr << "rates: --nodes=N required\n";
    return 2;
  }
  const trace::SparseTraceSummary s =
      trace::load_trace_file(path, nodes)
          .train(args.get_double("active-gap", 1800.0));
  std::cout << "# trained from " << s.event_count << " events; duration "
            << s.end_time - s.start_time << ", active " << s.active_duration
            << "\n"
            << graph::format_graph(graph::dense_from_sparse(s.rates));
  return 0;
}

int cmd_model(const util::Args& args) {
  // Delivery needs graph realizations: report the Table II expectation,
  // the model averaged over them. The other models depend on the
  // configuration alone, so every run contributes the same value.
  core::ExperimentConfig cfg = core::entry_defaults();
  core::parse_knobs(args, cfg, kModelKnobs);
  auto r = core::Experiment(cfg).run(core::RandomGraphScenario{});

  util::Table table({"metric", "value", "source"});
  auto row = [&](const char* metric, const util::RunningStats& value,
                 const char* source, int precision = 4) {
    table.new_row();
    table.cell(std::string(metric));
    table.cell(value.mean(), precision);
    table.cell(std::string(source));
  };
  row("delivery_rate", r.ana_delivery,
      "Eq. 6/7 (averaged over graph realizations)");
  row("traceable_rate_paper", r.ana_traceable_paper, "Eqs. 8-12");
  row("traceable_rate_exact", r.ana_traceable_exact,
      "exact run-length expectation");
  row("path_anonymity", r.ana_anonymity, "Eqs. 19-20");
  row("cost_bound_tx", r.ana_cost_bound, "Sec. IV-C", 1);
  row("non_anonymous_tx", r.ana_cost_non_anonymous, "2L reference", 1);
  table.print(std::cout);
  return 0;
}

int cmd_simulate(const util::Args& args) {
  core::ExperimentConfig cfg = core::entry_defaults();
  std::string metrics_path = args.get_output("metrics-out");
  cfg.collect_metrics = !metrics_path.empty();
  core::parse_knobs(args, cfg);

  core::Scenario scenario = core::RandomGraphScenario{};
  if (const std::string path = args.get("trace", ""); !path.empty()) {
    scenario = core::SparseTraceScenario{
        path, trace::parse_trace_format(args.get("trace-format", "plain")),
        args.get_unsigned("trace-nodes", 0)};
  }
  auto r = core::Experiment(cfg).run(scenario);

  // One row: a metric and two numeric columns.
  auto row = [](util::Table& table, const char* metric, double a, double b,
                int precision_a = 4, int precision_b = 4) {
    table.new_row();
    table.cell(std::string(metric));
    table.cell(a, precision_a);
    table.cell(b, precision_b);
  };
  if (cfg.traffic.enabled()) {
    // Load mode: per-run workload aggregates instead of the per-message
    // analysis-vs-simulation comparison.
    util::Table table({"metric", "mean", "ci95"});
    auto stat = [&](const char* metric, const util::RunningStats& s,
                    int precision = 4) {
      row(table, metric, s.mean(), s.ci95_halfwidth(), precision, precision);
    };
    row(table, "offered_rate", cfg.traffic.offered_rate(), 0.0);
    stat("throughput", r.sim_throughput);
    stat("delivery_rate", r.sim_delivered);
    stat("mean_delay", r.sim_delay);
    stat("p99_delay", r.sim_p99_delay);
    if (cfg.load_forwarder == core::LoadForwarder::kOnion) {
      stat("traceable_rate", r.sim_traceable);
      stat("path_anonymity", r.sim_anonymity);
    }
    stat("transmissions", r.sim_transmissions, 1);
    table.print(std::cout);
    std::cout << "# forwarder " << core::load_forwarder_name(cfg.load_forwarder)
              << "; " << r.delivered_runs << "/" << cfg.runs
              << " runs delivered traffic\n";
  } else {
    util::Table table({"metric", "analysis", "simulation"});
    row(table, "delivery_rate", r.ana_delivery.mean(), r.sim_delivered.mean());
    row(table, "traceable_rate", r.ana_traceable_exact.mean(),
        r.sim_traceable.mean());
    row(table, "path_anonymity", r.ana_anonymity.mean(),
        r.sim_anonymity.mean());
    row(table, "transmissions", r.ana_cost_bound.mean(),
        r.sim_transmissions.mean(), 1, 2);
    table.print(std::cout);
    std::cout << "# delivered " << r.delivered_runs << "/" << cfg.runs
              << " runs; mean delay " << r.sim_delay.mean() << " +/- "
              << r.sim_delay.ci95_halfwidth() << "\n";
  }
  if (!r.failed_runs.empty()) {
    const auto& first = r.failed_runs.front();
    std::cout << "# quarantined " << r.failed_runs.size() << " run(s); first: run "
              << first.run << " seed " << first.seed << ": " << first.message
              << "\n";
  }
  std::cout << "# wall_time_s: " << r.wall_time_s << "\n";
  if (!metrics_path.empty()) {
    metrics::write_file(metrics_path, r.metrics);
    std::cout << "# metrics: " << metrics_path << "\n";
  }
  return 0;
}

// Each subcommand with every flag it reads, in any mode.
struct Command {
  const char* name;
  int (*run)(const util::Args&);
  std::vector<std::string> flags;
};

// `flags` plus every knob-table flag.
std::vector<std::string> with_knobs(std::vector<std::string> flags) {
  const std::vector<std::string> knobs = core::knob_flags();
  flags.insert(flags.end(), knobs.begin(), knobs.end());
  return flags;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"gen-graph", cmd_gen_graph,
       {"nodes", "min-ict", "max-ict", "seed", "out"}},
      {"gen-trace", cmd_gen_trace, {"kind", "seed", "nodes", "horizon", "out"}},
      {"rates", cmd_rates, {"trace", "nodes", "active-gap"}},
      {"model", cmd_model, kModelKnobs},
      {"simulate", cmd_simulate,
       with_knobs({"metrics-out", "trace", "trace-format", "trace-nodes"})},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& cmd = args.positional()[0];
  const auto& cmds = commands();
  auto it = std::find_if(cmds.begin(), cmds.end(),
                         [&](const Command& c) { return cmd == c.name; });
  if (it == cmds.end()) return usage();
  args.reject_unknown(it->flags);
  try {
    return it->run(args);
  } catch (const std::invalid_argument& e) {
    // Bad input (malformed trace/graph file, out-of-range flag): usage-class
    // failure with a one-line file:line diagnostic.
    std::cerr << "odtn " << cmd << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "odtn " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
