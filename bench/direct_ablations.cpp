// The ten ablations that drive the protocols directly, as one table.
//
// Each row measures a design choice DESIGN.md calls out on the protocols
// themselves instead of through run_experiment, drawing its realizations
// from a bench::Stream (common/realization.hpp) in the row's own order.
// Eight rows are x sweeps whose point function returns one value per
// column; the two whose streams span their points print their own table.
// CMake compiles this file once and links it into one binary per row; a
// binary runs the row named after it (bench::figure_id). The rows run
// sequentially, so --threads changes nothing they print.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/delivery.hpp"
#include "analysis/hypoexp.hpp"
#include "common/bench_common.hpp"
#include "common/realization.hpp"
#include "metrics/metrics.hpp"
#include "routing/alar.hpp"
#include "routing/baselines.hpp"
#include "routing/onion_routing.hpp"
#include "routing/prophet.hpp"
#include "routing/threshold_pivot.hpp"
#include "sim/network_sim.hpp"
#include "util/stats.hpp"

namespace odtn::bench {
namespace {

using core::ExperimentConfig;
using Cells = std::vector<double>;

// One protocol's delivery and transmissions over a point's runs.
struct Tally {
  util::RunningStats delivered, tx;
  template <class Result>  // DeliveryResult, TpsResult or AlarResult
  void add(const Result& r) {
    delivered.add(r.delivered);
    tx.add(static_cast<double>(r.transmissions));
  }
};

// Delay *distribution*, not just delivery probability. The paper validates
// Eq. 6 through delivery-rate means. The hypoexponential model predicts the
// whole delay law; this row compares its quantiles (via hypoexp_quantile)
// against simulated delay percentiles on fixed realizations — the planning
// view: "what deadline covers 90% of messages?". The five realizations
// share one stream.
void delay_quantiles(const ExperimentConfig& base) {
  util::Table table({"realization", "q50_model", "q50_sim", "q90_model",
                     "q90_sim", "q99_model", "q99_sim"});
  Stream s(base.seed);
  for (int realization = 0; realization < 5; ++realization) {
    auto graph = s.random_graph(base);
    auto contacts = s.contacts(graph);
    auto world = s.world(base);
    routing::SingleCopyOnionRouting protocol(world.context());

    auto spec = s.message(base);
    spec.ttl = 1e9;
    auto groups = world.dir.select_relay_groups(spec.src, spec.dst,
                                                base.num_relays, s.rng());
    auto rates = analysis::opportunistic_onion_rates(graph, spec.src,
                                                     spec.dst, world.dir,
                                                     groups);

    std::vector<double> delays;
    std::size_t samples = std::max<std::size_t>(200, base.runs * 5);
    for (std::size_t i = 0; i < samples; ++i) {
      auto r = protocol.route(contacts, spec, s.rng(), &groups);
      delays.push_back(r.delay);
    }
    std::sort(delays.begin(), delays.end());
    auto sim_q = [&](double q) {
      return delays[static_cast<std::size_t>(q * (delays.size() - 1))];
    };

    table.new_row();
    table.cell(static_cast<std::int64_t>(realization));
    for (double q : {0.5, 0.9, 0.99}) {
      table.cell(analysis::hypoexp_quantile(rates, q), 1);
      table.cell(sim_q(q), 1);
    }
  }
  table.print(std::cout);
  std::cout << "# Finding: the model's *median* tracks simulation, but its "
               "tail quantiles\n# underestimate, sometimes by 2-3x at q99. "
               "Eq. 4 replaces the holder-specific\n# inter-group rate with "
               "the sender average; the realized delay is a *mixture* over\n"
               "# holders, and mixtures of exponentials are heavier-tailed "
               "than the exponential at\n# the mean rate. Consequence: "
               "inverting Eq. 6 for deadline planning is safe near the\n"
               "# median but needs a healthy margin at high percentiles — a "
               "limitation the paper's\n# mean-delivery comparisons cannot "
               "surface.\n";
}

// Finite relay buffers under load. Every closed form in the paper assumes
// one message and infinite buffers. The whole-network simulator
// (sim/network_sim.hpp) drops both assumptions: this row injects an
// increasing number of concurrent messages into a random DTN and sweeps
// per-node buffer capacity, reporting delivery rate and buffer rejections —
// the regime in which the analytical model stops being a safe
// capacity-planning tool. Injection comes from the odtn::traffic
// generator: each point offers an open-loop Poisson workload whose expected
// count is the x value. Each repetition draws its world from its own
// stream, and each capacity runs the simulator on a second one.
void buffer_contention(const ExperimentConfig& base) {
  Sweep sweep({"messages", "buf_unlimited", "buf_4", "buf_1",
               "rejections_buf_1"},
              {25, 50, 100, 200, 400}, Sweep::XFormat::kInt);
  sweep.run([&](double load, util::Table& table) {
    util::RunningStats d_inf, d_4, d_1, rej_1;
    for (std::size_t rep = 0; rep < base.runs; ++rep) {
      Stream s(base.seed + rep * 1000);
      auto graph = s.random_graph(base);
      auto trace = s.poisson_trace(graph, 3600.0);
      auto dir = s.directory(base);
      // Open-loop Poisson offered load: E[count] = x over [0, 600).
      auto messages = s.poisson_messages(base, load / 600.0, 1800.0, 600.0);

      for (std::size_t cap : {0u, 4u, 1u}) {
        sim::NetworkSimConfig cfg;
        cfg.buffer_capacity = cap;
        if (base.collect_metrics) cfg.metrics = &bench_metrics();
        Stream run(base.seed + rep);  // same groups per capacity
        auto report = sim::run_network_sim(trace, dir, messages, {}, cfg,
                                           run.rng());
        if (cap == 0) d_inf.add(report.delivery_rate());
        if (cap == 4) d_4.add(report.delivery_rate());
        if (cap == 1) {
          d_1.add(report.delivery_rate());
          rej_1.add(static_cast<double>(report.total_buffer_rejections));
        }
      }
    }
    table.cell(d_inf.mean());
    table.cell(d_4.mean());
    table.cell(d_1.mean());
    table.cell(rej_1.mean(), 1);
  });
  sweep.print(std::cout);
}

// ARDEN's destination-anonymity option ("the last hop forms an onion
// group", mentioned in Secs. III and V of the paper as an implementation
// difference between the abstract model and ARDEN). Direct delivery
// reveals dst to the last relay; group delivery hides dst among its g group
// members at the price of an intra-group walk. This row measures the
// delivery/delay/cost impact per group size.
Cells dest_group(const ExperimentConfig& base, double g, Stream& s) {
  auto cfg = base;
  cfg.group_size = static_cast<std::size_t>(g);
  cfg.ttl = 1800.0;
  util::RunningStats d_dir, d_grp, t_dir, t_grp, tx_dir, tx_grp;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    auto graph = s.random_graph(cfg);
    auto contacts = s.contacts(graph);
    auto world = s.world(cfg);
    routing::SingleCopyOnionRouting protocol(world.context());

    auto spec = s.message(cfg);
    auto rd = protocol.route(contacts, spec, s.rng());
    d_dir.add(rd.delivered);
    if (rd.delivered) {
      t_dir.add(rd.delay);
      tx_dir.add(static_cast<double>(rd.transmissions));
    }
    spec.destination_group_delivery = true;
    auto rg = protocol.route(contacts, spec, s.rng());
    d_grp.add(rg.delivered);
    if (rg.delivered) {
      t_grp.add(rg.delay);
      tx_grp.add(static_cast<double>(rg.transmissions));
    }
  }
  return {d_dir.mean(),  d_grp.mean(),  t_dir.mean(), t_grp.mean(),
          tx_dir.mean(), tx_grp.mean(), g};
}

// How the non-anonymous baselines stack up on structured contact graphs —
// the claim behind the paper's related-work Sec. VI-A ("the use of past
// contact history significantly improves the delivery rate for a given
// forwarding cost"). Community-structured networks (where history is
// informative) are the regime where PRoPHET earns its keep: epidemic-level
// delivery at a fraction of the copies. Onion routing is included to show
// what the anonymity property costs relative to each.
Cells history_routing(const ExperimentConfig& base, double deadline,
                      Stream& s) {
  auto cfg = base;  // Table II's g = 5 and K = 3 on 60 nodes, ICT 10..120
  cfg.nodes = 60;
  cfg.max_ict = 120.0;
  util::RunningStats d_pro, d_sw, d_dir, d_on, pro_car;
  Tally epi;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    auto graph = s.community_graph(cfg, 3, 10.0);
    auto trace = s.poisson_trace(graph, 1000.0 + deadline);
    sim::TraceContactModel contacts(trace);
    auto world = s.world(cfg);

    auto spec = s.message(cfg);
    spec.start = 1000.0;  // history available before the message exists
    spec.ttl = deadline;

    routing::ProphetRouting prophet;
    auto rp = prophet.route(trace, spec);
    d_pro.add(rp.delivered);
    pro_car.add(static_cast<double>(rp.carriers));

    routing::EpidemicRouting epidemic;
    epi.add(epidemic.route(contacts, spec));

    routing::SprayAndWaitRouting spray;
    auto spray_spec = spec;
    spray_spec.copies = 3;
    d_sw.add(spray.route(contacts, spray_spec).delivered);
    // Direct delivery: spray-and-wait with one copy.
    spray_spec.copies = 1;
    d_dir.add(spray.route(contacts, spray_spec).delivered);

    routing::SingleCopyOnionRouting onion_p(world.context());
    d_on.add(onion_p.route(contacts, spec, s.rng()).delivered);
  }
  return {d_pro.mean(), epi.delivered.mean(), d_sw.mean(),  d_dir.mean(),
          d_on.mean(),  pro_car.mean(),        epi.tx.mean()};
}

// The three anonymous-DTN schemes of the paper's Sec. VI-C on one playing
// field — onion-group routing (this paper / ARDEN), the Threshold Pivot
// Scheme, and ALAR — plus epidemic as the non-anonymous ceiling. Identical
// sampled contact traces per run; columns report delivery within the
// deadline and mean transmissions. What each scheme concedes (not visible
// in the numbers): onion routing hides both endpoints from everyone; TPS
// reveals the destination to the pivot; ALAR does not protect the sender's
// identifier at all, only the sender's *location* (segments leave via
// different neighbors).
Cells source_hiding(const ExperimentConfig& base, double deadline,
                    Stream& s) {
  auto cfg = base;
  cfg.ttl = deadline;
  Tally onion, tps, alar, epi;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    auto graph = s.random_graph(cfg);
    auto trace = s.poisson_trace(graph, deadline);
    sim::TraceContactModel contacts(trace);
    auto world = s.world(cfg);
    routing::SingleCopyOnionRouting onion_p(world.context());
    routing::ThresholdPivotRouting tps_p(world.dir, world.keys, {5, 3});
    routing::AlarRouting alar_p(routing::AlarOptions{4, 4});
    routing::EpidemicRouting epi_p;

    auto spec = s.message(cfg);
    onion.add(onion_p.route(contacts, spec, s.rng()));
    tps.add(tps_p.route(contacts, spec, s.rng()));
    alar.add(alar_p.route(trace, spec));
    epi.add(epi_p.route(contacts, spec));
  }
  return {onion.delivered.mean(), tps.delivered.mean(), alar.delivered.mean(),
          epi.delivered.mean(),   onion.tx.mean(),       tps.tx.mean(),
          alar.tx.mean(),         epi.tx.mean()};
}

// Where the opportunistic-onion-path model breaks down. The paper's model
// (Eq. 4) assumes every hop has a positive aggregate rate — true on the
// dense Table II graphs, false on sparse contact graphs. This row sweeps
// graph density and reports the analysis-vs-simulation delivery gap,
// locating the regime boundary the paper's Infocom'05 discussion
// (Sec. V-E) hints at.
Cells sparse_graph(const ExperimentConfig& base, double p, Stream& s) {
  auto cfg = base;
  cfg.ttl = 900.0;
  util::RunningStats sim, ana;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    auto graph = s.sparse_graph(cfg, p);
    auto contacts = s.contacts(graph);
    auto world = s.world(cfg);
    routing::SingleCopyOnionRouting protocol(world.context());

    auto spec = s.message(cfg);
    auto groups = world.dir.select_relay_groups(spec.src, spec.dst,
                                                cfg.num_relays, s.rng());
    sim.add(protocol.route(contacts, spec, s.rng(), &groups).delivered);
    auto rates = analysis::opportunistic_onion_rates(graph, spec.src,
                                                     spec.dst, world.dir,
                                                     groups);
    ana.add(analysis::delivery_rate(rates, cfg.ttl));
  }
  return {ana.mean(), sim.mean(), std::abs(ana.mean() - sim.mean())};
}

// The two readings of Algorithm 2's spray phase. kDirectToFirstGroup — the
// source hands all L copies to members of R_1 (Algorithm 2 literal).
// kSprayAndWait — the source sprays L-1 copies to arbitrary first-met
// carriers who then wait for R_1 (the "source spray-and-wait" augmentation
// the paper simulates; cost bound 1 + 2(L-1) + KL). This row shows why the
// paper adopted the augmentation: carriers are found fast, so copies enter
// the pipeline sooner.
Cells spray_mode(const ExperimentConfig& base, double deadline, Stream& s) {
  auto cfg = base;
  cfg.copies = 3;
  cfg.ttl = deadline;
  Tally direct_to_r1, spray_and_wait;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    auto graph = s.random_graph(cfg);
    auto contacts = s.contacts(graph);
    auto world = s.world(cfg);
    routing::MultiCopyOnionRouting direct(
        world.context(), routing::SprayMode::kDirectToFirstGroup);
    routing::MultiCopyOnionRouting spray(world.context(),
                                         routing::SprayMode::kSprayAndWait);

    auto spec = s.message(cfg);
    auto groups = world.dir.select_relay_groups(spec.src, spec.dst,
                                                cfg.num_relays, s.rng());
    direct_to_r1.add(direct.route(contacts, spec, s.rng(), &groups));
    spray_and_wait.add(spray.route(contacts, spec, s.rng(), &groups));
  }
  return {direct_to_r1.delivered.mean(), spray_and_wait.delivered.mean(),
          direct_to_r1.tx.mean(), spray_and_wait.tx.mean()};
}

// Uniform vs targeted compromise. The paper's adversary compromises nodes
// uniformly at random. A smarter adversary with the same budget targets
// the best-connected nodes — which relay (and hence disclose) more traffic.
// This row quantifies how much stronger that placement is against
// onion-group routing, on graphs whose contact rates are heterogeneous
// enough for "best-connected" to mean something (community graphs; on
// uniform Table II graphs all nodes are statistically identical and
// targeting gains nothing).
Cells targeted_adversary(const ExperimentConfig& base, double fraction,
                         Stream& s) {
  auto cfg = base;
  cfg.ttl = 1e7;
  util::RunningStats u_trace, t_trace, u_anon, t_anon;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    auto graph = s.community_graph(cfg, 2, 8.0);
    auto contacts = s.contacts(graph);
    auto world = s.world(cfg);
    routing::SingleCopyOnionRouting protocol(world.context());

    auto spec = s.message(cfg);
    auto r = protocol.route(contacts, spec, s.rng());
    if (!r.delivered) continue;

    auto uniform = adversary::CompromiseModel::from_fraction(
        cfg.nodes, fraction, s.rng());
    auto count = uniform.compromised_count();
    auto targeted = adversary::CompromiseModel::targeted(graph, count);

    u_trace.add(
        adversary::measured_traceable_rate(spec.src, r.relay_path, uniform));
    t_trace.add(
        adversary::measured_traceable_rate(spec.src, r.relay_path, targeted));
    u_anon.add(adversary::measured_path_anonymity(
        spec.src, r.relays_per_hop, uniform, cfg.nodes, cfg.group_size));
    t_anon.add(adversary::measured_path_anonymity(
        spec.src, r.relays_per_hop, targeted, cfg.nodes, cfg.group_size));
  }
  return {u_trace.mean(), t_trace.mean(), u_anon.mean(), t_anon.mean()};
}

// Threshold Pivot Scheme (TPS) vs onion-group routing. Sec. VI-C of the
// paper notes TPS "alleviates the longer delay due to the use of onions"
// but "the final destination of a message is revealed to the pivot". This
// row quantifies both sides of that trade on identical random graphs:
// delivery within a deadline, delay, transmissions. Message arrivals come
// from the odtn::traffic generator: each run routes a small Poisson
// workload (E[4] messages over the deadline window) with both protocols.
Cells tps_vs_onion(const ExperimentConfig& base, double deadline,
                   Stream& s) {
  Tally k3, tps_t;
  util::RunningStats d_k5;
  for (std::size_t run = 0; run < base.runs; ++run) {
    auto graph = s.random_graph(base);
    auto contacts = s.contacts(graph);
    auto world = s.world(base);
    routing::SingleCopyOnionRouting onion(world.context());
    routing::ThresholdPivotRouting tps(world.dir, world.keys, {5, 3});

    for (routing::MessageSpec spec :
         s.poisson_messages(base, 4.0 / deadline, deadline, deadline)) {
      spec.num_relays = 3;
      k3.add(onion.route(contacts, spec, s.rng()));
      spec.num_relays = 5;
      d_k5.add(onion.route(contacts, spec, s.rng()).delivered);
      tps_t.add(tps.route(contacts, spec, s.rng()));
    }
  }
  return {k3.delivered.mean(), d_k5.mean(), tps_t.delivered.mean(),
          k3.tx.mean(), tps_t.tx.mean()};
}

// What wire-accurate cells cost, and what an on-path adversary actually
// sees. The abstract protocols count transmissions; the wire layer prices
// each of them in fixed-size AEAD cells. This row sweeps the cell size and
// reports, for both onion protocols, the measured wire bytes per delivered
// message and the peel cost (layer opens per message), plus a
// compromised-relay adversary run on the actual ciphertext cell streams
// via circuit::CellTap: the fraction of all cells that crossed a contact
// an adversary endpoint observed, and the fraction of messages whose
// source was exposed at cell granularity (a compromised node received
// cells directly from the source). Cells are constant-size, so these are
// the only signals the public network leaks — packet shapes carry nothing.
struct WirePoint {
  util::RunningStats cells_per_msg;
  util::RunningStats bytes_per_msg;
  metrics::Registry registry;  // the protocol's routing.peels
  std::uint64_t observed_cells = 0;
  std::uint64_t total_cells = 0;
  std::size_t src_exposed = 0;

  double peels_per_run(std::size_t runs) const {
    return static_cast<double>(
               registry.entries().at("routing.peels").counter) /
           static_cast<double>(runs);
  }
};

Cells wire_overhead(const ExperimentConfig& base, double x, Stream& s) {
  const auto cell_size = static_cast<std::size_t>(x);
  auto cfg = base;
  cfg.ttl = 1e7;
  WirePoint single, multi;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    auto graph = s.random_graph(cfg);
    auto world = s.world(cfg);
    auto adversary =
        adversary::CompromiseModel::from_fraction(cfg.nodes, 0.1, s.rng());
    auto spec = s.message(cfg);

    auto measure = [&](WirePoint& point, std::size_t copies) {
      // The tap sees every sealed cell a contact carries; the adversary's
      // observation is exactly the cells one of its nodes sent or
      // received, plus source exposure when it is the direct receiver.
      bool exposed = false;
      routing::OnionContext ctx = world.context();
      ctx.crypto = routing::CryptoMode::kReal;
      ctx.metrics = &point.registry;
      ctx.wire_cells = true;
      ctx.cell_size = cell_size;
      ctx.cell_tap = [&](const circuit::CellEvent& e) {
        ++point.total_cells;
        if (adversary.is_compromised(e.sender) ||
            adversary.is_compromised(e.receiver)) {
          ++point.observed_cells;
        }
        if (e.sender == spec.src && adversary.is_compromised(e.receiver)) {
          exposed = true;
        }
      };
      spec.copies = copies;
      auto contacts = s.contacts(graph);
      routing::DeliveryResult r;
      if (copies == 1) {
        routing::SingleCopyOnionRouting protocol(ctx);
        r = protocol.route(contacts, spec, s.rng());
      } else {
        routing::MultiCopyOnionRouting protocol(ctx);
        r = protocol.route(contacts, spec, s.rng());
      }
      if (exposed) ++point.src_exposed;
      if (!r.delivered) return;
      point.cells_per_msg.add(static_cast<double>(r.wire_cells));
      point.bytes_per_msg.add(static_cast<double>(r.wire_bytes));
    };
    measure(single, 1);
    measure(multi, 4);
  }

  const std::uint64_t seen = single.observed_cells + multi.observed_cells;
  const std::uint64_t total = single.total_cells + multi.total_cells;
  return {single.cells_per_msg.mean(),
          single.bytes_per_msg.mean(),
          single.peels_per_run(cfg.runs),
          multi.cells_per_msg.mean(),
          multi.bytes_per_msg.mean(),
          multi.peels_per_run(cfg.runs),
          total == 0 ? 0.0
                     : static_cast<double>(seen) / static_cast<double>(total),
          static_cast<double>(single.src_exposed + multi.src_exposed) /
              static_cast<double>(2 * cfg.runs)};
}

// One printed column: a point's value at `digits` decimals.
struct Column {
  const char* name;
  int digits = 4;
};

struct Ablation {
  const char* binary;
  const char* title;
  const char* fixed;
  // A sweep row: one table row per x, the x cell and then the point's
  // cells. `s` is the point's own stream, seeded from --seed, so every x
  // starts from the same draws.
  const char* x_column = nullptr;
  std::vector<double> xs = {};
  Sweep::XFormat x_format = Sweep::XFormat::kInt;
  std::vector<Column> columns = {};
  Cells (*point)(const ExperimentConfig& base, double x, Stream& s) = nullptr;
  const char* finding = "";  // printed after the table
  // The row runs max(min_runs, --runs / runs_divisor) realizations per
  // point; the banner and the --json record report that count.
  std::size_t runs_divisor = 1;
  std::size_t min_runs = 1;
  // A row whose streams span its points prints its own table instead.
  void (*print)(const ExperimentConfig& base) = nullptr;
  // Flags beyond --runs, --seed, --threads and --json.
  std::vector<std::string> flags = {};
};

const std::vector<Ablation>& ablations() {
  static const std::vector<Ablation> table = {
      {.binary = "ablation_delay_quantiles",
       .title = "Delay quantiles: model vs simulation",
       .fixed = "n=100, K=3, g=5, L=1; one graph realization, many messages "
                "per row",
       .print = delay_quantiles},
      // Each realization routes up to 400 messages through three buffer
      // capacities; a twentieth of the runs keeps the row quick.
      {.binary = "ablation_buffer_contention",
       .title = "Delivery under buffer contention",
       .fixed = "n=100, K=3, g=5, T=1800; x = concurrent messages",
       .runs_divisor = 20,
       .print = buffer_contention,
       .flags = {"metrics-out"}},
      {"ablation_dest_group", "Destination-group delivery on/off",
       "n=100, K=3, L=1, T=1800; x = group size", "group_size", {2, 5, 10},
       Sweep::XFormat::kInt,
       {{"direct_delivery"}, {"group_delivery"}, {"direct_delay", 1},
        {"group_delay", 1}, {"direct_tx", 2}, {"group_tx", 2},
        {"dst_hidden_among", 0}},
       dest_group,
       "# Group delivery hides the destination among g group members from "
       "the last relay;\n# the anycast entry into the group offsets much of "
       "the intra-group walk's delay.\n"},
      // PRoPHET maintains an n^2 predictability table per event; a fifth
      // of the runs already gives tight means.
      {"ablation_history_routing", "History-based routing on community graphs",
       "n=60, 3 communities (10x slowdown), K=3, g=5; message starts after "
       "1000 min of history",
       "deadline_min", {120, 240, 480, 960, 1800}, Sweep::XFormat::kInt,
       {{"prophet"}, {"epidemic"}, {"spray3"}, {"direct"}, {"onion_K3"},
        {"prophet_carriers", 1}, {"epi_tx", 1}},
       history_routing,
       "# PRoPHET approaches epidemic delivery with a fraction of the "
       "carriers; direct\n# delivery suffers across communities; onion "
       "routing pays its anonymity toll on top.\n",
       5, 20},
      // ALAR floods a sampled trace per run; a quarter of the runs keeps
      // the row snappy with tight means.
      {"ablation_source_hiding", "Source-hiding schemes: onion vs TPS vs ALAR",
       "n=100, g=5, onion K=3, TPS tau=3/s=5, ALAR s=4", "deadline_min",
       {120, 240, 360, 600, 900, 1800}, Sweep::XFormat::kInt,
       {{"onion"}, {"tps"}, {"alar"}, {"epidemic"}, {"onion_tx", 1},
        {"tps_tx", 1}, {"alar_tx", 1}, {"epi_tx", 1}},
       source_hiding, "", 4, 25},
      {"ablation_sparse_graph", "Model accuracy vs contact-graph density",
       "n=100, K=3, g=5, L=1, T=900; x = edge probability", "edge_prob",
       {0.1, 0.2, 0.4, 0.6, 0.8, 1.0}, Sweep::XFormat::kFixed1,
       {{"analysis"}, {"simulation"}, {"abs_gap"}}, sparse_graph,
       "# On sparse graphs the group-averaged hop rate (Eq. 4) overstates "
       "what the realized\n# holder can reach; the gap shrinks as the graph "
       "approaches the paper's dense regime.\n"},
      {"ablation_spray_mode", "Multi-copy spray strategy",
       "n=100, K=3, g=5, L=3; x = deadline", "deadline_min", deadline_sweep(),
       Sweep::XFormat::kInt,
       {{"direct_to_R1"}, {"spray_and_wait"}, {"direct_tx", 2},
        {"spray_tx", 2}},
       spray_mode},
      {"ablation_targeted_adversary",
       "Uniform vs targeted (top-rate) compromise",
       "n=100 community graph (2 communities, 8x slowdown), K=3, g=5; x = "
       "compromise budget",
       "compromised", compromise_sweep(), Sweep::XFormat::kFixed2,
       {{"uniform_trace"}, {"targeted_trace"}, {"uniform_anon"},
        {"targeted_anon"}},
       targeted_adversary,
       "# Targeted placement concentrates on high-contact nodes, which are "
       "likelier to be\n# the first group member a holder meets. The "
       "advantage is real but modest (~10-20%\n# relative above 20% "
       "compromise): group membership is assigned independently of\n# "
       "connectivity, which caps what connectivity-based targeting can gain "
       "— a robustness\n# property of onion groups the paper does not "
       "discuss.\n"},
      {"ablation_tps_vs_onion", "TPS (tau=3 of s=5 shares) vs onion routing",
       "n=100, g=5; onion K in {3,5}; x = deadline", "deadline_min",
       deadline_sweep(), Sweep::XFormat::kInt,
       {{"onion_K3"}, {"onion_K5"}, {"tps"}, {"onion_K3_tx", 2},
        {"tps_tx", 2}},
       tps_vs_onion,
       "# TPS buys delivery speed with parallel 2-hop shares, but reveals "
       "dst to the pivot;\n# onion routing never does. TPS also spends more "
       "transmissions per message.\n"},
      {"ablation_wire_overhead",
       "Wire-accurate cell overhead and cell-stream adversary",
       "n=100 Table II graph, K=3, g=5, 10% compromised; x = cell size; "
       "single-copy L=1, multi-copy L=4 spray-and-wait",
       "cell_size", {128, 256, 512, 1024, 4096}, Sweep::XFormat::kInt,
       {{"s_cells"}, {"s_bytes"}, {"s_peels"}, {"m_cells"}, {"m_bytes"},
        {"m_peels"}, {"cells_seen"}, {"src_exposed"}},
       wire_overhead,
       "# Peel cost (layer opens/message) is cell-size invariant — the "
       "protocol does the\n# same K+1 opens however the packet is "
       "fragmented — while bytes/message fall as\n# cells grow until one "
       "cell holds the whole packet, then padding dominates.\n# The "
       "cell-stream adversary sees ~what uniform 10% compromise predicts: "
       "constant\n# cell size leaves only cell counts to observe, so "
       "byte-level observation adds no\n# power over the abstract "
       "transmission-counting adversary — the property the\n# wire layer "
       "exists to demonstrate.\n"},
  };
  return table;
}

// The row named `binary`, or null.
const Ablation* find_ablation(const std::string& binary) {
  for (const Ablation& row : ablations()) {
    if (binary == row.binary) return &row;
  }
  return nullptr;
}

void print_sweep(const ExperimentConfig& base, const Ablation& row) {
  std::vector<std::string> headers = {row.x_column};
  for (const Column& col : row.columns) headers.push_back(col.name);
  Sweep sweep(headers, row.xs, row.x_format);
  sweep.run([&](double x, util::Table& table) {
    Stream s(base.seed);
    const Cells cells = row.point(base, x, s);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      table.cell(cells[i], row.columns.at(i).digits);
    }
  });
  sweep.print(std::cout);
  std::cout << row.finding;
}

}  // namespace
}  // namespace odtn::bench

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  const std::string binary = bench::figure_id(args);
  const bench::Ablation* row = bench::find_ablation(binary);
  auto base = bench::direct_config(args, row ? row->flags
                                             : std::vector<std::string>{});
  if (row == nullptr) {
    throw std::invalid_argument("no direct ablation is named " + binary);
  }
  base.runs = std::max(row->min_runs, base.runs / row->runs_divisor);
  bench::print_header("Ablation", row->title, row->fixed, base);
  if (row->print != nullptr) {
    row->print(base);
  } else {
    bench::print_sweep(base, *row);
  }
  bench::finish(base, args, timer);
  return 0;
}
