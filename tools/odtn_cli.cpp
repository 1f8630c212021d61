// odtn — command-line driver for the library.
//
// Subcommands:
//   gen-graph   --nodes=N [--min-ict --max-ict --seed --out=FILE]
//   gen-trace   --kind=cambridge|infocom|poisson [--seed --out=FILE]
//               (poisson also takes --nodes --horizon)
//   rates       --trace=FILE --nodes=N [--active-gap=SECONDS]
//   model       --n --g --K --L --T --compromised  (prints every analytical metric)
//   simulate    --runs ... (Table II experiment; analysis vs simulation row)
//   help
#include <algorithm>
#include <charconv>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/anonymity.hpp"
#include "analysis/cost.hpp"
#include "analysis/traceable.hpp"
#include "core/experiment.hpp"
#include "metrics/writer.hpp"
#include "graph/graph_io.hpp"
#include "trace/synthetic.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace odtn;

int usage() {
  std::cout <<
      "odtn — onion-based anonymous DTN routing toolkit\n"
      "\n"
      "  odtn gen-graph --nodes=100 [--min-ict=10 --max-ict=360 --seed=1]\n"
      "                 [--out=graph.txt]\n"
      "  odtn gen-trace --kind=cambridge|infocom|poisson [--seed=1]\n"
      "                 [--nodes=100 --horizon=3600] [--out=trace.txt]\n"
      "  odtn rates     --trace=FILE --nodes=N [--active-gap=1800]\n"
      "  odtn model     [--n=100 --g=5 --K=3 --L=1 --T=1800 --compromised=0.1]\n"
      "  odtn simulate  [--runs=200 --seed=1 --threads=0 --n=100 --g=5\n"
      "                  --K=3 --L=1 --T=1800 --compromised=0.1]\n"
      "                 [--contact-backend=dense|sparse --avg-degree=D\n"
      "                  --communities=C --group-shards=S]\n"
      "                 [--trace=FILE --trace-format=plain|crawdad|one\n"
      "                  --trace-nodes=N]\n"
      "                 [--metrics-out=FILE]\n"
      "                 [--fault-mean-uptime=U --fault-mean-downtime=D\n"
      "                  --fault-p-fail=P --fault-ge=pgb:pbg:pfg:pfb\n"
      "                  --fault-blackhole-fraction=F --fault-p-run-abort=P]\n"
      "                 [--checkpoint=FILE --checkpoint-interval=16 --resume]\n"
      "                 [--traffic-rate=R --traffic-horizon=H\n"
      "                  --traffic-arrival=poisson|deterministic|mmpp\n"
      "                  --traffic-flows=F --traffic-burst-factor=B\n"
      "                  --traffic-priorities=0,1,...]\n"
      "                 [--bandwidth-capacity=C | --bandwidth-mean-duration=D\n"
      "                  --bandwidth-transfer-time=S]\n"
      "                 [--buffer-capacity=B --buffer-policy=reject-new|\n"
      "                  drop-oldest --load-forwarder=onion|utility|\n"
      "                  spray-blind --utility-failure-penalty=P]\n"
      "                 [--ack-vaccine\n"
      "                  --recovery-retx-timeout=T --recovery-retx-max=3\n"
      "                  --recovery-retx-backoff=2 --recovery-retx-jitter=0.1\n"
      "                  --recovery-suspicion-alpha=A\n"
      "                  --recovery-suspicion-threshold=0.75\n"
      "                  --shed-occupancy=F --shed-saturation=F\n"
      "                  --shed-priority-floor=1]\n"
      "                 [--wire-cells --cell-size=512]\n"
      "\n"
      "simulate shards runs over --threads workers (0 = all hardware\n"
      "threads); results are bit-identical at every thread count.\n"
      "--metrics-out writes the run's odtn::metrics (delay histograms with\n"
      "p50/p90/p99, routing event counters) as JSON-lines — or CSV when\n"
      "FILE ends in .csv. The file is byte-identical at every --threads\n"
      "value for a fixed seed.\n"
      "--contact-backend picks the contact-rate storage: dense (the\n"
      "historical O(n^2) graph; default, byte-identical to every recorded\n"
      "baseline) or sparse (CSR; O(n + m) memory for the 10^5-10^6 node\n"
      "scale regime). --avg-degree/--communities shape sparse random\n"
      "graphs; --group-shards makes directory construction O(shard) per\n"
      "run. --trace switches to the streaming-trace scenario: the file is\n"
      "ingested in one bounded-memory pass (requires\n"
      "--contact-backend=sparse and --trace-nodes).\n"
      "--fault-* enables seeded fault injection (node churn, transfer\n"
      "failure, blackhole relays, run aborts); determinism guarantees are\n"
      "unchanged. --checkpoint snapshots progress every\n"
      "--checkpoint-interval runs; --resume continues a killed sweep with\n"
      "byte-identical results.\n"
      "--traffic-* switches simulate into heavy-traffic mode (random-graph\n"
      "scenarios only): each run pushes an open-loop workload of\n"
      "--traffic-rate msgs/time-unit over [0, --traffic-horizon) through\n"
      "the network and reports sustained throughput, delivery rate and\n"
      "p99 delay. --traffic-flows splits the rate over F flows (one RNG\n"
      "sub-stream each); --traffic-priorities assigns drainage classes\n"
      "cyclically (0 = most urgent). --bandwidth-capacity caps transfers\n"
      "per contact; --bandwidth-mean-duration/--bandwidth-transfer-time\n"
      "draw per-contact budgets from an exponential contact-duration\n"
      "model instead. --buffer-capacity/--buffer-policy bound per-node\n"
      "buffers; --load-forwarder picks onion (the paper's protocol),\n"
      "utility (congestion/utility-aware replication) or spray-blind\n"
      "(the congestion-ignorant control). --utility-failure-penalty\n"
      "discounts a receiver's utility by an EWMA of its observed transfer\n"
      "failures (recovery feedback for the utility forwarders).\n"
      "--recovery-retx-timeout enables end-to-end retransmission: an\n"
      "undelivered message is re-onioned through freshly sampled relay\n"
      "groups after a backed-off, jittered timeout (at most\n"
      "--recovery-retx-max times). --recovery-suspicion-alpha biases retry\n"
      "selection away from relay groups with a high EWMA of unacked sends.\n"
      "--ack-vaccine spreads delivery ACKs as anti-packets that\n"
      "garbage-collect outstanding copies (loaded runs only).\n"
      "--shed-occupancy/--shed-saturation shed messages of priority >=\n"
      "--shed-priority-floor at injection when the source buffer or the\n"
      "recent contact-saturation fraction crosses the threshold (loaded\n"
      "runs only). All knobs zero = the layer is off and output is\n"
      "byte-identical to a build without it.\n"
      "--wire-cells switches on the wire-accurate circuit layer (implies\n"
      "real crypto): every contact crossing is fragmented into sealed\n"
      "fixed-size cells of --cell-size bytes, and loaded runs charge each\n"
      "transfer its cell cost against the contact bandwidth budget (the\n"
      "budget is then denominated in cells). Off (the default) keeps the\n"
      "historical one-blob secure links and byte-identical output.\n"
      "\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage or malformed input file\n"
      "(one-line file:line diagnostic on stderr).\n";
  return 2;
}

int cmd_gen_graph(const util::Args& args) {
  // odtn-lint: allow(rng) — top-level CLI stream seeded from --seed;
  // run-level streams below it derive via derive_seed in the experiment
  // engine
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  auto g = graph::random_contact_graph(
      static_cast<std::size_t>(args.get_int("nodes", 100)), rng,
      args.get_double("min-ict", 10.0), args.get_double("max-ict", 360.0));
  std::string out = args.get("out", "");
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
  std::string kind = args.get("kind", "cambridge");
  auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::optional<trace::ContactTrace> t;
  if (kind == "cambridge") {
    t = trace::make_cambridge_like(seed);
  } else if (kind == "infocom") {
    t = trace::make_infocom_like(seed);
  } else if (kind == "poisson") {
    // odtn-lint: allow(rng) — top-level CLI stream seeded from --seed (see
    // above)
    util::Rng rng(seed);
    auto g = graph::random_contact_graph(
        static_cast<std::size_t>(args.get_int("nodes", 100)), rng);
    t = trace::sample_poisson_trace(g, args.get_double("horizon", 3600.0),
                                    rng);
  } else {
    std::cerr << "unknown --kind: " << kind << "\n";
    return 2;
  }
  std::string out = args.get("out", "");
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
  auto nodes = static_cast<std::size_t>(args.get_int("nodes", 0));
  if (nodes < 2) {
    std::cerr << "rates: --nodes=N required\n";
    return 2;
  }
  auto t = trace::load_trace_file(path, nodes);
  double gap = args.get_double("active-gap", 1800.0);
  auto g = gap > 0 ? t.estimate_rates_active(gap) : t.estimate_rates();
  std::cout << "# trained from " << t.event_count() << " events; duration "
            << t.end_time() - t.start_time() << ", active "
            << (gap > 0 ? t.active_duration(gap) : t.end_time() - t.start_time())
            << "\n"
            << graph::format_graph(g);
  return 0;
}

int cmd_model(const util::Args& args) {
  auto n = static_cast<std::size_t>(args.get_int("n", 100));
  auto g = static_cast<std::size_t>(args.get_int("g", 5));
  auto k = static_cast<std::size_t>(args.get_int("K", 3));
  auto l = static_cast<std::size_t>(args.get_int("L", 1));
  double ttl = args.get_double("T", 1800.0);
  double p = args.get_double("compromised", 0.1);
  std::size_t eta = k + 1;

  // Delivery needs a graph realization; report the Table II expectation by
  // averaging the model over realizations.
  core::ExperimentConfig cfg;
  cfg.nodes = n;
  cfg.group_size = g;
  cfg.num_relays = k;
  cfg.copies = l;
  cfg.ttl = ttl;
  cfg.compromise_fraction = p;
  cfg.runs = 200;
  cfg.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  auto r = core::Experiment(cfg).run(core::RandomGraphScenario{});

  util::Table table({"metric", "value", "source"});
  table.new_row();
  table.cell(std::string("delivery_rate"));
  table.cell(r.ana_delivery.mean());
  table.cell(std::string("Eq. 6/7 (averaged over graph realizations)"));
  table.new_row();
  table.cell(std::string("traceable_rate_paper"));
  table.cell(analysis::traceable_rate_paper(eta, p));
  table.cell(std::string("Eqs. 8-12"));
  table.new_row();
  table.cell(std::string("traceable_rate_exact"));
  table.cell(analysis::traceable_rate_exact(eta, p));
  table.cell(std::string("exact run-length expectation"));
  table.new_row();
  table.cell(std::string("path_anonymity"));
  table.cell(analysis::path_anonymity_model(eta, p, n, g, l));
  table.cell(std::string("Eqs. 19-20"));
  table.new_row();
  table.cell(std::string("cost_bound_tx"));
  table.cell(l == 1
                 ? static_cast<double>(analysis::single_copy_cost(k))
                 : static_cast<double>(analysis::multi_copy_cost_bound(k, l)),
             1);
  table.cell(std::string("Sec. IV-C"));
  table.new_row();
  table.cell(std::string("non_anonymous_tx"));
  table.cell(static_cast<double>(analysis::non_anonymous_cost(l)), 1);
  table.cell(std::string("2L reference"));
  table.print(std::cout);
  return 0;
}

int cmd_simulate(const util::Args& args) {
  core::ExperimentConfig cfg;
  cfg.nodes = static_cast<std::size_t>(args.get_int("n", 100));
  cfg.group_size = static_cast<std::size_t>(args.get_int("g", 5));
  cfg.num_relays = static_cast<std::size_t>(args.get_int("K", 3));
  cfg.copies = static_cast<std::size_t>(args.get_int("L", 1));
  cfg.ttl = args.get_double("T", 1800.0);
  cfg.compromise_fraction = args.get_double("compromised", 0.1);
  cfg.runs = static_cast<std::size_t>(args.get_int("runs", 200));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  std::string metrics_path = args.get_output("metrics-out");
  cfg.collect_metrics = !metrics_path.empty();

  std::string backend = args.get("contact-backend", "dense");
  if (backend == "sparse") {
    cfg.backend = core::ContactBackend::kSparse;
  } else if (backend != "dense") {
    std::cerr << "simulate: --contact-backend must be dense or sparse\n";
    return 2;
  }
  cfg.avg_degree = static_cast<std::size_t>(args.get_int("avg-degree", 0));
  cfg.communities = static_cast<std::size_t>(args.get_int("communities", 0));
  cfg.group_shards = static_cast<std::size_t>(args.get_int("group-shards", 0));

  cfg.faults.mean_uptime = args.get_double("fault-mean-uptime", 0.0);
  cfg.faults.mean_downtime = args.get_double("fault-mean-downtime", 0.0);
  cfg.faults.p_fail = args.get_double("fault-p-fail", 0.0);
  cfg.faults.blackhole_fraction =
      args.get_double("fault-blackhole-fraction", 0.0);
  cfg.faults.p_run_abort = args.get_double("fault-p-run-abort", 0.0);
  std::string ge = args.get("fault-ge", "");
  if (!ge.empty()) {
    faults::GilbertElliott chain;
    char sep1, sep2, sep3, rest;
    std::istringstream gs(ge);
    if (!(gs >> chain.p_good_to_bad >> sep1 >> chain.p_bad_to_good >> sep2 >>
          chain.p_fail_good >> sep3 >> chain.p_fail_bad) ||
        sep1 != ':' || sep2 != ':' || sep3 != ':' || gs >> rest) {
      throw std::invalid_argument(
          "simulate: --fault-ge expects pgb:pbg:pfg:pfb");
    }
    cfg.faults.gilbert_elliott = chain;
  }
  cfg.faults.validate();

  cfg.checkpoint_path = args.get("checkpoint", "");
  cfg.checkpoint_interval =
      static_cast<std::size_t>(args.get_int("checkpoint-interval", 16));
  cfg.resume = args.get_bool("resume", false);

  // Heavy-traffic workload (odtn::traffic). All-defaults keeps the
  // historical one-message-per-run path and byte-identical output.
  double traffic_rate = args.get_double("traffic-rate", 0.0);
  cfg.traffic.horizon = args.get_double("traffic-horizon", 0.0);
  if (traffic_rate > 0.0 || cfg.traffic.horizon > 0.0) {
    std::size_t flows =
        static_cast<std::size_t>(args.get_int("traffic-flows", 1));
    if (flows == 0 || traffic_rate <= 0.0 || cfg.traffic.horizon <= 0.0) {
      throw std::invalid_argument(
          "simulate: traffic needs --traffic-rate > 0, --traffic-horizon > 0 "
          "and --traffic-flows >= 1");
    }
    traffic::FlowConfig base;
    base.arrival = traffic::parse_arrival(args.get("traffic-arrival",
                                                   "poisson"));
    base.rate = traffic_rate / static_cast<double>(flows);
    base.burst_factor = args.get_double("traffic-burst-factor", 4.0);
    base.num_relays = cfg.num_relays;
    base.copies = cfg.copies;
    base.ttl = cfg.ttl;
    std::vector<std::uint8_t> priorities;
    std::istringstream ps(args.get("traffic-priorities", "0"));
    std::string tok;
    while (std::getline(ps, tok, ',')) {
      int p = -1;
      const char* end = tok.data() + tok.size();
      if (std::from_chars(tok.data(), end, p).ptr != end || p < 0 ||
          p > 255) {
        throw std::invalid_argument(
            "simulate: --traffic-priorities entries must be integers in "
            "[0, 255]");
      }
      priorities.push_back(static_cast<std::uint8_t>(p));
    }
    for (std::size_t f = 0; f < flows; ++f) {
      traffic::FlowConfig flow = base;
      flow.priority = priorities[f % priorities.size()];
      cfg.traffic.flows.push_back(flow);
    }
  }
  cfg.bandwidth.messages_per_contact =
      static_cast<std::size_t>(args.get_int("bandwidth-capacity", 0));
  cfg.bandwidth.mean_duration = args.get_double("bandwidth-mean-duration", 0.0);
  cfg.bandwidth.transfer_time = args.get_double("bandwidth-transfer-time", 0.0);
  cfg.buffer_capacity =
      static_cast<std::size_t>(args.get_int("buffer-capacity", 0));
  std::string policy = args.get("buffer-policy", "reject-new");
  if (policy == "drop-oldest") {
    cfg.buffer_policy = sim::BufferPolicy::kDropOldest;
  } else if (policy != "reject-new") {
    std::cerr << "simulate: --buffer-policy must be reject-new or "
                 "drop-oldest\n";
    return 2;
  }
  cfg.recovery.acks = args.get_bool("ack-vaccine", false);
  cfg.recovery.retx_timeout = args.get_double("recovery-retx-timeout", 0.0);
  cfg.recovery.retx_max =
      static_cast<std::size_t>(args.get_int("recovery-retx-max", 3));
  cfg.recovery.retx_backoff = args.get_double("recovery-retx-backoff", 2.0);
  cfg.recovery.retx_jitter = args.get_double("recovery-retx-jitter", 0.1);
  cfg.recovery.suspicion_alpha =
      args.get_double("recovery-suspicion-alpha", 0.0);
  cfg.recovery.suspicion_threshold =
      args.get_double("recovery-suspicion-threshold", 0.75);
  cfg.recovery.shed_occupancy = args.get_double("shed-occupancy", 0.0);
  cfg.recovery.shed_saturation = args.get_double("shed-saturation", 0.0);
  int shed_floor = args.get_int("shed-priority-floor", 1);
  if (shed_floor < 0 || shed_floor > 255) {
    throw std::invalid_argument(
        "simulate: --shed-priority-floor must be in [0, 255]");
  }
  cfg.recovery.shed_priority_floor = static_cast<std::uint8_t>(shed_floor);
  cfg.recovery.validate();

  cfg.wire_cells = args.get_bool("wire-cells", false);
  cfg.cell_size = static_cast<std::size_t>(
      args.get_int("cell-size", static_cast<std::int64_t>(cfg.cell_size)));
  // Wire mode fragments real sealed packets; there is no simulated-crypto
  // variant of a cell stream.
  if (cfg.wire_cells) cfg.crypto = routing::CryptoMode::kReal;

  std::string forwarder = args.get("load-forwarder", "onion");
  if (forwarder == "utility") {
    cfg.load_forwarder = core::LoadForwarder::kUtility;
  } else if (forwarder == "spray-blind") {
    cfg.load_forwarder = core::LoadForwarder::kSprayBlind;
  } else if (forwarder != "onion") {
    std::cerr << "simulate: --load-forwarder must be onion, utility or "
                 "spray-blind\n";
    return 2;
  }
  cfg.utility_failure_penalty = args.get_double("utility-failure-penalty", 0.0);

  core::Scenario scenario = core::RandomGraphScenario{};
  std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    core::SparseTraceScenario sts;
    sts.path = trace_path;
    sts.format = trace::parse_trace_format(args.get("trace-format", "plain"));
    sts.nodes = static_cast<std::size_t>(args.get_int("trace-nodes", 0));
    scenario = sts;
  }
  auto r = core::Experiment(cfg).run(scenario);

  if (cfg.traffic.enabled()) {
    // Load mode: per-run workload aggregates instead of the per-message
    // analysis-vs-simulation comparison.
    util::Table table({"metric", "mean", "ci95"});
    table.new_row();
    table.cell(std::string("offered_rate"));
    table.cell(cfg.traffic.offered_rate());
    table.cell(0.0);
    table.new_row();
    table.cell(std::string("throughput"));
    table.cell(r.sim_throughput.mean());
    table.cell(r.sim_throughput.ci95_halfwidth());
    table.new_row();
    table.cell(std::string("delivery_rate"));
    table.cell(r.sim_delivered.mean());
    table.cell(r.sim_delivered.ci95_halfwidth());
    table.new_row();
    table.cell(std::string("mean_delay"));
    table.cell(r.sim_delay.mean());
    table.cell(r.sim_delay.ci95_halfwidth());
    table.new_row();
    table.cell(std::string("p99_delay"));
    table.cell(r.sim_p99_delay.mean());
    table.cell(r.sim_p99_delay.ci95_halfwidth());
    if (cfg.load_forwarder == core::LoadForwarder::kOnion) {
      table.new_row();
      table.cell(std::string("traceable_rate"));
      table.cell(r.sim_traceable.mean());
      table.cell(r.sim_traceable.ci95_halfwidth());
      table.new_row();
      table.cell(std::string("path_anonymity"));
      table.cell(r.sim_anonymity.mean());
      table.cell(r.sim_anonymity.ci95_halfwidth());
    }
    table.new_row();
    table.cell(std::string("transmissions"));
    table.cell(r.sim_transmissions.mean(), 1);
    table.cell(r.sim_transmissions.ci95_halfwidth(), 1);
    table.print(std::cout);
    std::cout << "# forwarder " << core::load_forwarder_name(cfg.load_forwarder)
              << "; " << r.delivered_runs << "/" << cfg.runs
              << " runs delivered traffic\n";
    if (!r.failed_runs.empty()) {
      const auto& first = r.failed_runs.front();
      std::cout << "# quarantined " << r.failed_runs.size()
                << " run(s); first: run " << first.run << " seed "
                << first.seed << ": " << first.message << "\n";
    }
    std::cout << "# wall_time_s: " << r.wall_time_s << "\n";
    if (!metrics_path.empty()) {
      metrics::write_file(metrics_path, r.metrics);
      std::cout << "# metrics: " << metrics_path << "\n";
    }
    return 0;
  }

  util::Table table({"metric", "analysis", "simulation"});
  table.new_row();
  table.cell(std::string("delivery_rate"));
  table.cell(r.ana_delivery.mean());
  table.cell(r.sim_delivered.mean());
  table.new_row();
  table.cell(std::string("traceable_rate"));
  table.cell(r.ana_traceable_exact.mean());
  table.cell(r.sim_traceable.mean());
  table.new_row();
  table.cell(std::string("path_anonymity"));
  table.cell(r.ana_anonymity.mean());
  table.cell(r.sim_anonymity.mean());
  table.new_row();
  table.cell(std::string("transmissions"));
  table.cell(r.ana_cost_bound.mean(), 1);
  table.cell(r.sim_transmissions.mean(), 2);
  table.print(std::cout);
  std::cout << "# delivered " << r.delivered_runs << "/" << cfg.runs
            << " runs; mean delay "
            << r.sim_delay.mean() << " +/- " << r.sim_delay.ci95_halfwidth()
            << "\n";
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

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"gen-graph",
       cmd_gen_graph,
       {"nodes", "min-ict", "max-ict", "seed", "out"}},
      {"gen-trace", cmd_gen_trace, {"kind", "seed", "nodes", "horizon", "out"}},
      {"rates", cmd_rates, {"trace", "nodes", "active-gap"}},
      {"model", cmd_model, {"n", "g", "K", "L", "T", "compromised", "threads"}},
      {"simulate",
       cmd_simulate,
       {"n", "g", "K", "L", "T", "compromised", "runs", "seed", "threads",
        "metrics-out", "contact-backend", "avg-degree", "communities",
        "group-shards", "fault-mean-uptime", "fault-mean-downtime",
        "fault-p-fail", "fault-blackhole-fraction", "fault-p-run-abort",
        "fault-ge", "checkpoint", "checkpoint-interval", "resume",
        "traffic-rate", "traffic-horizon", "traffic-flows", "traffic-arrival",
        "traffic-burst-factor", "traffic-priorities", "bandwidth-capacity",
        "bandwidth-mean-duration", "bandwidth-transfer-time",
        "buffer-capacity", "buffer-policy", "ack-vaccine",
        "recovery-retx-timeout", "recovery-retx-max", "recovery-retx-backoff",
        "recovery-retx-jitter", "recovery-suspicion-alpha",
        "recovery-suspicion-threshold", "shed-occupancy", "shed-saturation",
        "shed-priority-floor", "wire-cells", "cell-size", "load-forwarder",
        "utility-failure-penalty", "trace", "trace-format", "trace-nodes"}},
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
