// The fifteen ablations, as one table.
//
// Each row measures a design choice DESIGN.md calls out. The five engine
// rows run through bench::run_experiment (base_config: they take the
// contact-backend knobs and --metrics-out); the ten direct rows drive the
// protocols themselves (direct_config), drawing their realizations from a
// bench::Stream (common/realization.hpp) in the row's own order, and run
// sequentially, so --threads changes nothing they print. A plain row is an
// x sweep whose point function returns one value per column; a row with
// more to print (a banner line, several sweeps, a stream spanning its
// points) has its own print function. CMake compiles this file once and
// links it into one binary per row; a binary runs the row named after it
// (bench::figure_id).
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/delivery.hpp"
#include "analysis/hypoexp.hpp"
#include "common/bench_common.hpp"
#include "common/realization.hpp"
#include "metrics/metrics.hpp"
#include "metrics/writer.hpp"
#include "mobility/random_waypoint.hpp"
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
using core::RandomGraphScenario;
using Cells = std::vector<double>;
using Rows = std::vector<Cells>;  // printed rows, x first

// One printed column: a point's value at `digits` decimals.
struct Column {
  const char* name;
  int digits = 4;
};

// A sweep's x column: its name, values and format.
struct Axis {
  const char* column;
  std::vector<double> xs;
  XFormat format = XFormat::kInt;
};

// Prints one x sweep: a row per x, the x cell and then point(x)'s cells.
// Appends the rows to `printed` for the --json fields.
void sweep(const Axis& x, const std::vector<Column>& columns,
           const std::function<Cells(double)>& point, Rows& printed) {
  std::vector<std::string> headers = {x.column};
  for (const Column& col : columns) headers.push_back(col.name);
  print_sweep(headers, x.xs, x.format, [&](double v, util::Table& table) {
    Cells cells = point(v);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      table.cell(cells[i], columns.at(i).digits);
    }
    cells.insert(cells.begin(), v);
    printed.push_back(std::move(cells));
  });
}

// One protocol's delivery and transmissions over a point's runs.
struct Tally {
  util::RunningStats delivered, tx;
  template <class Result>  // DeliveryResult, TpsResult or AlarResult
  void add(const Result& r) {
    delivered.add(r.delivered);
    tx.add(static_cast<double>(r.transmissions));
  }
};

// The loaded stack of the load rows: `config` plus one Poisson flow of
// `rate` msgs per time unit (with its K, L and T) over [0, 600), two
// transfers per contact and 8-slot drop-oldest buffers.
ExperimentConfig loaded(ExperimentConfig config, double rate) {
  config.traffic.flows.push_back({.rate = rate,
                                  .num_relays = config.num_relays,
                                  .copies = config.copies,
                                  .ttl = config.ttl});
  config.traffic.horizon = 600.0;
  config.bandwidth.messages_per_contact = 2;
  config.buffer_capacity = 8;
  config.buffer_policy = sim::BufferPolicy::kDropOldest;
  return config;
}

// Delay *distribution*, not just delivery probability. The paper validates
// Eq. 6 through delivery-rate means. The hypoexponential model predicts the
// whole delay law; this row compares its quantiles (via hypoexp_quantile)
// against simulated delay percentiles on fixed realizations — the planning
// view: "what deadline covers 90% of messages?". The five realizations
// share one stream.
void delay_quantiles(const ExperimentConfig& base, Rows& printed) {
  Stream s(base.seed);
  auto realization = [&](double) {
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
    Cells cells;
    for (double q : {0.5, 0.9, 0.99}) {
      cells.push_back(analysis::hypoexp_quantile(rates, q));
      cells.push_back(
          delays[static_cast<std::size_t>(q * (delays.size() - 1))]);
    }
    return cells;
  };
  sweep({"realization", {0, 1, 2, 3, 4}},
        {{"q50_model", 1}, {"q50_sim", 1}, {"q90_model", 1}, {"q90_sim", 1},
         {"q99_model", 1}, {"q99_sim", 1}},
        realization, printed);
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
void buffer_contention(const ExperimentConfig& base, Rows& printed) {
  auto point = [&](double load) -> Cells {
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
    return {d_inf.mean(), d_4.mean(), d_1.mean(), rej_1.mean()};
  };
  sweep({"messages", {25, 50, 100, 200, 400}},
        {{"buf_unlimited"}, {"buf_4"}, {"buf_1"}, {"rejections_buf_1", 1}},
        point, printed);
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
  util::RunningStats delivered[2], delay[2], tx[2];  // direct, group
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    auto graph = s.random_graph(cfg);
    auto contacts = s.contacts(graph);
    auto world = s.world(cfg);
    routing::SingleCopyOnionRouting protocol(world.context());

    auto spec = s.message(cfg);
    for (bool group : {false, true}) {
      spec.destination_group_delivery = group;
      auto r = protocol.route(contacts, spec, s.rng());
      delivered[group].add(r.delivered);
      if (r.delivered) {
        delay[group].add(r.delay);
        tx[group].add(static_cast<double>(r.transmissions));
      }
    }
  }
  return {delivered[0].mean(), delivered[1].mean(), delay[0].mean(),
          delay[1].mean(),     tx[0].mean(),        tx[1].mean(), g};
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
    routing::ThresholdPivotRouting tps_p(world.dir, {5, 3});
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
    routing::ThresholdPivotRouting tps(world.dir, {5, 3});

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

// The engine rows, which run through run_experiment.

// "Training the traces" (Sec. V-D). The delivery model needs contact rates;
// on a real trace they must be estimated. Estimating over wall-clock time
// dilutes rates with the long off-business-hour gaps; estimating over
// *active* time (silent gaps capped) matches the regime in which messages
// actually travel. This row quantifies the difference on the
// Cambridge-like trace — the correction is what makes Fig. 14's analysis
// track its simulation.
void trace_training(const ExperimentConfig& base, Rows& printed) {
  const auto trace = trace::make_cambridge_like(base.seed);  // all points
  auto point = [&](double deadline) -> Cells {
    auto cfg = base;
    cfg.group_size = 1;
    cfg.ttl = deadline;
    cfg.trace_training_gap = 0.0;  // disable the correction
    auto wall = run_experiment(cfg, core::TraceScenario{&trace});
    cfg.trace_training_gap = 1800.0;
    auto active = run_experiment(cfg, core::TraceScenario{&trace});
    return {active.sim_delivered.mean(), wall.ana_delivery.mean(),
            active.ana_delivery.mean(),
            std::abs(wall.ana_delivery.mean() - wall.sim_delivered.mean()),
            std::abs(active.ana_delivery.mean() -
                     active.sim_delivered.mean())};
  };
  sweep({"deadline_sec", {300, 600, 900, 1200, 1800, 2700, 3600}},
        {{"sim"}, {"ana_wallclock"}, {"ana_active"}, {"gap_wallclock"},
         {"gap_active"}},
        point, printed);
}

// Does the exponential inter-contact assumption survive geometric
// mobility? Table II *postulates* exponential inter-contact times. Here the
// contact trace comes from first principles — random-waypoint movement in
// a plane — and the opportunistic-onion-path model, trained on estimated
// rates, is compared against protocol simulation on the same trace. The
// residual gap is the price of the exponential assumption itself (plus
// rate-estimation noise), separated from all other modeling error.
void waypoint_mobility(const ExperimentConfig& base, Rows& printed) {
  mobility::RandomWaypointParams p;
  p.nodes = 40;
  p.duration = 90000.0;
  Stream s(base.seed);
  const auto trace = mobility::random_waypoint_trace(p, s.rng());
  std::cout << "# mobility trace: " << trace.event_count() << " contacts in "
            << p.duration << " s\n";
  auto point = [&](double deadline) -> Cells {
    auto cfg = base;
    cfg.ttl = deadline;
    cfg.trace_training_gap = 0.0;  // RWP has no diurnal gaps
    auto r = run_experiment(cfg, core::TraceScenario{&trace});
    return {r.ana_delivery.mean(), r.sim_delivered.mean(),
            std::abs(r.ana_delivery.mean() - r.sim_delivered.mean())};
  };
  sweep({"deadline_sec", {600, 1800, 3600, 7200, 14400, 28800}},
        {{"ana_trained"}, {"sim"}, {"abs_gap"}}, point, printed);
}

// Simulated delivery under node churn, mid-contact transfer loss and
// blackhole relays, against the fault-free analytical curve (Eq. 7). The
// paper's delivery model assumes every contact completes its transfer and
// every relay stays up; the odtn::faults layer breaks each assumption in
// turn. The analysis column is evaluated on the *same* realizations but
// stays fault-blind, so (analysis - simulation) is exactly the delivery the
// model over-promises at each fault level. The first row of every sweep is
// the zero-knob baseline: there the gap is the ordinary model-vs-simulation
// error.
void fault_resilience(const ExperimentConfig& base, Rows& printed) {
  // A point: the fault-free base with `set` applied to its fault knobs.
  auto gap = [&](void (*set)(faults::FaultConfig&, double)) {
    return [&base, set](double x) -> Cells {
      auto cfg = base;
      set(cfg.faults, x);
      auto r = run_experiment(cfg, RandomGraphScenario{});
      return {r.ana_delivery.mean(), r.sim_delivered.mean(),
              r.ana_delivery.mean() - r.sim_delivered.mean()};
    };
  };
  const std::vector<Column> columns = {
      {"analysis_eq7"}, {"simulation"}, {"model_gap"}};
  std::cout << "# sweep 1: iid transfer failure probability\n";
  sweep({"p_fail", {0.0, 0.1, 0.2, 0.4, 0.6}, XFormat::kFixed4}, columns,
        gap([](faults::FaultConfig& f, double p) { f.p_fail = p; }), printed);
  std::cout << "# sweep 2: churn (mean uptime 360; x = mean downtime;\n"
            << "#          crash-reboots flush buffered copies)\n";
  sweep({"mean_downtime", {0.0, 30.0, 90.0, 180.0, 360.0}, XFormat::kFixed4},
        columns, gap([](faults::FaultConfig& f, double downtime) {
          if (downtime > 0.0) {
            f.mean_uptime = 360.0;
            f.mean_downtime = downtime;
          }
        }),
        printed);
  std::cout << "# sweep 3: blackhole relay fraction (endpoints exempt)\n";
  sweep({"blackhole_fraction", {0.0, 0.1, 0.2, 0.3}, XFormat::kFixed4},
        columns,
        gap([](faults::FaultConfig& f, double b) { f.blackhole_fraction = b; }),
        printed);
}

// Anonymity and delay under offered load. The paper measures anonymity
// with a handful of messages in flight and unlimited contact capacity.
// This row pushes a sustained open-loop Poisson workload through the
// loaded stack and reports, per offered rate, the sustained throughput
// (msgs per time unit), the delivery rate, the p99 delivery delay and the
// measured path anonymity of the onion protocol, next to the utility-aware
// forwarder (routing::UtilityForwarder) and its congestion-blind spray
// control: how the anonymity set erodes as congestion forces copies
// through fewer relays.
Cells anonymity_vs_load(const ExperimentConfig& base, double rate, Stream&) {
  ExperimentConfig cfg = loaded(base, rate);
  cfg.load_forwarder = core::LoadForwarder::kOnion;
  auto onion = run_experiment(cfg, RandomGraphScenario{});
  cfg.load_forwarder = core::LoadForwarder::kUtility;
  auto utility = run_experiment(cfg, RandomGraphScenario{});
  cfg.load_forwarder = core::LoadForwarder::kSprayBlind;
  auto spray = run_experiment(cfg, RandomGraphScenario{});
  return {onion.sim_throughput.mean(),   onion.sim_delivered.mean(),
          onion.sim_p99_delay.mean(),    onion.sim_anonymity.mean(),
          utility.sim_throughput.mean(), utility.sim_p99_delay.mean(),
          spray.sim_throughput.mean(),   spray.sim_p99_delay.mean()};
}

// End-to-end recovery: delivery under faults and offered load with the
// odtn::recovery layer off vs on, against the fault-blind Eq. 7 curve.
// Eq. 7 assumes relays neither fail nor drop copies and has no notion of a
// retried send. The recovery layer gives the sender another move: delivery
// ACKs spread as anti-packets, undelivered messages re-onion through
// freshly sampled relay groups after a backed-off timeout, suspicion
// biases those retries away from groups that keep eating copies, and
// overload shedding refuses work the network cannot carry. The analysis
// column is the fault-free closed form at the same (K, g, L, T), constant
// down each sweep; recovery_on - recovery_off is the delivery the layer
// buys back at each fault level and offered load.
void recovery_on_off(const ExperimentConfig& base, Rows& printed) {
  // The stack under test: timeout below the TTL so every message has room
  // for all three retries; suspicion sharp enough to converge within one
  // run's workload; shedding engages only near saturation.
  const recovery::RecoveryConfig on{
      .acks = true, .retx_timeout = 300.0, .retx_max = 3, .retx_backoff = 2.0,
      .retx_jitter = 0.1, .suspicion_alpha = 0.3, .suspicion_threshold = 0.75,
      .shed_occupancy = 0.95, .shed_saturation = 0.8};

  // Fault-blind Eq. 7: the unloaded fault-free closed form, evaluated over
  // this seed's realizations.
  const double eq7 =
      run_experiment(base, RandomGraphScenario{}).ana_delivery.mean();
  // The loaded stack at `rate` under p_fail 0.2, churn 400/100 and a
  // `blackhole` relay fraction, with recovery off and then on.
  auto off_on = [&](double rate, double blackhole) -> Cells {
    auto cfg = loaded(base, rate);
    cfg.faults.p_fail = 0.2;
    cfg.faults.mean_uptime = 400.0;
    cfg.faults.mean_downtime = 100.0;
    cfg.faults.blackhole_fraction = blackhole;
    auto off = run_experiment(cfg, RandomGraphScenario{});
    cfg.recovery = on;
    auto r = run_experiment(cfg, RandomGraphScenario{});
    return {eq7,
            off.sim_delivered.mean(),
            r.sim_delivered.mean(),
            r.sim_delivered.mean() - off.sim_delivered.mean(),
            off.sim_p99_delay.mean(),
            r.sim_p99_delay.mean()};
  };
  const std::vector<Column> columns = {
      {"analysis_eq7"}, {"recovery_off"}, {"recovery_on"},
      {"recovered"},    {"off_p99", 1},   {"on_p99", 1}};
  std::cout << "# sweep 1: fault intensity (blackhole relay fraction,\n"
            << "#          p_fail=0.2, churn 400/100) at offered rate 0.4\n";
  sweep({"blackhole", {0.0, 0.1, 0.2, 0.3}, XFormat::kFixed2}, columns,
        [&](double blackhole) { return off_on(0.4, blackhole); }, printed);
  std::cout << "# sweep 2: offered load (msgs/time-unit) at blackhole=0.2,\n"
            << "#          p_fail=0.2, churn 400/100\n";
  sweep({"offered", {0.1, 0.2, 0.4, 0.8}, XFormat::kFixed2}, columns,
        [&](double rate) { return off_on(rate, 0.2); }, printed);
}

struct Ablation {
  const char* binary;
  const char* title;
  const char* fixed;
  // A plain row: one table row per x, the x cell and then the point's
  // cells. `s` is the point's own stream, seeded from --seed, so every x
  // starts from the same draws (an engine row leaves it unused).
  Axis x = {nullptr, {}};
  std::vector<Column> columns = {};
  Cells (*point)(const ExperimentConfig& base, double x, Stream& s) = nullptr;
  const char* finding = "";  // printed after the tables
  // The row runs max(min_runs, --runs / runs_divisor) realizations per
  // point; the banner and the --json record report that count.
  std::size_t runs_divisor = 1;
  std::size_t min_runs = 1;
  // A row with more to print than one sweep prints its own tables.
  void (*print)(const ExperimentConfig& base, Rows& printed) = nullptr;
  // The row's flags: the parser's common ones plus `flags`.
  decltype(&direct_config) parse = direct_config;
  std::vector<std::string> flags = {};
  // Defaults a flag overrides (0 keeps entry_defaults()): the loaded rows
  // run whole workloads, with spray tickets to split.
  std::size_t runs = 0;
  std::size_t copies = 0;
  // --json fields: a key and the printed column (0 = x) it lists.
  std::vector<std::pair<const char*, std::size_t>> json = {};
};

const std::vector<Ablation>& ablations() {
  static const std::vector<Ablation> table = {
      {.binary = "ablation_trace_training",
       .title = "Trace rate training: wall-clock vs active time",
       .fixed = "Cambridge-like trace, K=3, g=1, L=1; x = deadline (s)",
       .finding = "# Wall-clock training spreads 8 business hours of "
                  "contacts over 24h, underestimating\n# every rate ~3x; "
                  "active-time training recovers the paper's "
                  "model-vs-trace agreement.\n",
       .print = trace_training,
       .parse = base_config},
      {.binary = "ablation_mobility",
       .title = "Exponential-ICT assumption under random-waypoint mobility",
       .fixed = "40 nodes, 1km^2, 50m range, K=3, g=5; x = deadline (s)",
       .finding = "# Random-waypoint inter-contact times are only "
                  "approximately exponential; the trained\n# model tracks "
                  "simulated delivery to within about 0.05 up to 14400 s, "
                  "but overshoots\n# it by more than 0.1 at 28800 s: the "
                  "fit degrades at long deadlines.\n",
       .print = waypoint_mobility,
       .parse = base_config},
      {.binary = "ablation_fault_resilience",
       .title = "Fault resilience vs the Eq. 7 curve",
       .fixed = "n=100, K=3, g=5, T=1800; analysis is fault-free",
       .print = fault_resilience,
       .parse = base_config},
      {.binary = "ablation_anonymity_vs_load",
       .title = "Anonymity and p99 delay vs offered load",
       .fixed = "n=100, K=3, g=5, L=4, T=1800, horizon=600, "
                "bandwidth=2/contact, buffer=8; x = offered msgs/time-unit",
       .x = {"offered", {0.05, 0.1, 0.2, 0.4, 0.8}, XFormat::kFixed2},
       .columns = {{"onion_tput", 2}, {"onion_delivery"}, {"onion_p99", 1},
                   {"onion_anonymity"}, {"util_tput", 2}, {"util_p99", 1},
                   {"spray_tput", 2}, {"spray_p99", 1}},
       .point = anonymity_vs_load,
       .finding = "# onion anonymity shows no trend with load, though "
                  "delivery falls and p99 grows; at the\n# top rate the "
                  "congestion-blind spray control carries more than the "
                  "utility forwarder,\n# at a lower p99.\n",
       .parse = base_config, .runs = 20, .copies = 4,
       .json = {{"offered", 0}, {"throughput", 1}, {"p99_delay", 3},
                {"anonymity", 4}}},
      {.binary = "ablation_recovery",
       .title = "Recovery layer vs faults and offered load",
       .fixed = "n=100, K=3, g=5, L=4, T=1800, horizon=600, "
                "bandwidth=2/contact, buffer=8; analysis is fault-free Eq. 7",
       .finding = "# the analysis column is flat by construction: Eq. 7 is "
                  "blind to every fault\n# knob. recovery_on buys back part "
                  "of the gap via ACK-vaccinated retransmission\n# and "
                  "suspicion-biased retries; at the highest load shedding "
                  "trades admitted\n# messages for a bounded p99.\n",
       .print = recovery_on_off,
       .parse = base_config, .runs = 10, .copies = 4,
       .json = {{"recovery_off", 2}, {"recovery_on", 3}}},
      {.binary = "ablation_delay_quantiles",
       .title = "Delay quantiles: model vs simulation",
       .fixed = "n=100, K=3, g=5, L=1; one graph realization, many messages "
                "per row",
       .finding =
           "# Finding: the model's *median* tracks simulation, but its tail "
           "quantiles\n# underestimate: at --runs=200 --seed=1 its q99 is low "
           "by 1.09x to 1.91x (660.3 vs\n# 1259.1). Eq. 4 replaces the "
           "holder-specific inter-group rate with the sender\n# average; the "
           "realized delay is a *mixture* over holders, and mixtures of\n# "
           "exponentials are heavier-tailed than the exponential at the mean "
           "rate. Consequence:\n# inverting Eq. 6 for deadline planning is "
           "safe near the median but needs a healthy\n# margin at high "
           "percentiles — a limitation the paper's mean-delivery "
           "comparisons\n# cannot surface.\n",
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
       "n=100, K=3, L=1, T=1800; x = group size", {"group_size", {2, 5, 10}},
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
       {"deadline_min", {120, 240, 480, 960, 1800}},
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
       "n=100, g=5, onion K=3, TPS tau=3/s=5, ALAR s=4",
       {"deadline_min", {120, 240, 360, 600, 900, 1800}},
       {{"onion"}, {"tps"}, {"alar"}, {"epidemic"}, {"onion_tx", 1},
        {"tps_tx", 1}, {"alar_tx", 1}, {"epi_tx", 1}},
       source_hiding, "", 4, 25},
      {"ablation_sparse_graph", "Model accuracy vs contact-graph density",
       "n=100, K=3, g=5, L=1, T=900; x = edge probability",
       {"edge_prob", {0.1, 0.2, 0.4, 0.6, 0.8, 1.0}, XFormat::kFixed1},
       {{"analysis"}, {"simulation"}, {"abs_gap"}}, sparse_graph,
       "# On sparse graphs the group-averaged hop rate (Eq. 4) overstates "
       "what the realized\n# holder can reach; the gap shrinks as the graph "
       "approaches the paper's dense regime.\n"},
      {"ablation_spray_mode", "Multi-copy spray strategy",
       "n=100, K=3, g=5, L=3; x = deadline", {"deadline_min", deadline_sweep()},
       {{"direct_to_R1"}, {"spray_and_wait"}, {"direct_tx", 2},
        {"spray_tx", 2}},
       spray_mode},
      {"ablation_targeted_adversary",
       "Uniform vs targeted (top-rate) compromise",
       "n=100 community graph (2 communities, 8x slowdown), K=3, g=5; x = "
       "compromise budget",
       {"compromised", compromise_sweep(), XFormat::kFixed2},
       {{"uniform_trace"}, {"targeted_trace"}, {"uniform_anon"},
        {"targeted_anon"}},
       targeted_adversary,
       "# Targeted placement concentrates on high-contact nodes, which are "
       "likelier to be\n# the first group member a holder meets. The "
       "advantage is real but modest: at\n# --runs=200 --seed=1 it is "
       "+21-24% relative at 20-40% compromise, +5% at 50%, and\n# slightly "
       "below uniform at 10%. Group membership is assigned independently "
       "of\n# connectivity, which caps what connectivity-based targeting can "
       "gain — a\n# robustness property of onion groups the paper does not "
       "discuss.\n"},
      {"ablation_tps_vs_onion", "TPS (tau=3 of s=5 shares) vs onion routing",
       "n=100, g=5; onion K in {3,5}; x = deadline",
       {"deadline_min", deadline_sweep()},
       {{"onion_K3"}, {"onion_K5"}, {"tps"}, {"onion_K3_tx", 2},
        {"tps_tx", 2}},
       tps_vs_onion,
       "# TPS's parallel shares do not buy speed: its relay->pivot and "
       "pivot->dst hops are\n# single-target, so it trails onion K=3 up to "
       "900 min at over twice the transmissions;\n# and it reveals dst to "
       "the pivot, which onion routing never does.\n"},
      {"ablation_wire_overhead",
       "Wire-accurate cell overhead and cell-stream adversary",
       "n=100 Table II graph, K=3, g=5, 10% compromised; x = cell size; "
       "single-copy L=1, multi-copy L=4 spray-and-wait",
       {"cell_size", {128, 256, 512, 1024, 4096}},
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

// The row's --json fields: each key's column over the printed rows.
std::string json_fields(const Ablation& row, const Rows& printed) {
  std::ostringstream os;
  const char* sep = "";
  for (const auto& [key, column] : row.json) {
    os << sep << '"' << key << "\":[";
    for (std::size_t i = 0; i < printed.size(); ++i) {
      os << (i ? "," : "") << metrics::format_double(printed[i].at(column));
    }
    os << "]";
    sep = ",";
  }
  return os.str();
}

}  // namespace
}  // namespace odtn::bench

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  const std::string binary = bench::figure_id(args);
  const auto& table = bench::ablations();
  const auto row = std::find_if(table.begin(), table.end(), [&](auto& a) {
    return binary == a.binary;
  });
  if (row == table.end()) {
    std::cerr << "error: no ablation is named " << binary << "\n";
    return 2;
  }
  auto defaults = core::entry_defaults();
  if (row->runs != 0) defaults.runs = row->runs;
  if (row->copies != 0) defaults.copies = row->copies;
  auto base = row->parse(args, row->flags, defaults);
  base.runs = std::max(row->min_runs, base.runs / row->runs_divisor);
  bench::print_header("Ablation", row->title, row->fixed, base);
  bench::Rows printed;
  if (row->print != nullptr) {
    row->print(base, printed);
  } else {
    bench::sweep(row->x, row->columns, [&](double x) {
      bench::Stream s(base.seed);
      return row->point(base, x, s);
    }, printed);
  }
  std::cout << row->finding;
  bench::finish(base, args, timer, bench::json_fields(*row, printed));
  return 0;
}
