#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "circuit/cell.hpp"
#include "core/checkpoint.hpp"
#include "faults/faults.hpp"
#include "analysis/anonymity.hpp"
#include "analysis/cost.hpp"
#include "analysis/delivery.hpp"
#include "analysis/traceable.hpp"
#include "graph/contact_graph.hpp"
#include "graph/sparse_contact_graph.hpp"
#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"
#include "onion/onion.hpp"
#include "recovery/recovery.hpp"
#include "routing/onion_routing.hpp"
#include "routing/utility_forwarder.hpp"
#include "sim/contact_model.hpp"
#include "sim/network_sim.hpp"
#include "trace/synthetic.hpp"
#include "traffic/traffic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace odtn::core {

const char* load_forwarder_name(LoadForwarder f) {
  switch (f) {
    case LoadForwarder::kOnion: return "onion";
    case LoadForwarder::kUtility: return "utility";
    case LoadForwarder::kSprayBlind: return "spray-blind";
  }
  return "?";
}

void ExperimentResult::merge(const ExperimentResult& other) {
  sim_delivered.merge(other.sim_delivered);
  sim_delay.merge(other.sim_delay);
  sim_transmissions.merge(other.sim_transmissions);
  sim_traceable.merge(other.sim_traceable);
  sim_anonymity.merge(other.sim_anonymity);
  sim_throughput.merge(other.sim_throughput);
  sim_p99_delay.merge(other.sim_p99_delay);
  ana_delivery.merge(other.ana_delivery);
  ana_traceable_paper.merge(other.ana_traceable_paper);
  ana_traceable_exact.merge(other.ana_traceable_exact);
  ana_anonymity.merge(other.ana_anonymity);
  ana_cost_bound.merge(other.ana_cost_bound);
  ana_cost_non_anonymous.merge(other.ana_cost_non_anonymous);
  delivered_runs += other.delivered_runs;
  failed_runs.insert(failed_runs.end(), other.failed_runs.begin(),
                     other.failed_runs.end());
  metrics.merge(other.metrics);
}

namespace {

// Everything one realization contributes to the result. Workers fill these
// into a per-run slot; the engine folds the slots in run-index order on a
// single thread, which keeps the floating-point accumulation independent
// of how runs were scheduled.
struct RunOutcome {
  bool delivered = false;
  double transmissions = 0.0;
  double delay = 0.0;       // delivered only
  double traceable = 0.0;   // delivered only
  double anonymity = 0.0;   // delivered only
  double ana_delivery = 0.0;
  /// Loaded-traffic run (config.traffic enabled): `delivered` means "any
  /// message delivered", `delay` is the run's mean delivery delay, and the
  /// fields below carry the workload-level samples. The per-message
  /// closed-form ana_delivery does not apply and is not folded.
  bool loaded = false;
  double delivery_fraction = 0.0;
  double throughput = 0.0;  // delivered msgs per time unit of horizon
  double p99_delay = 0.0;   // of the run's delivered messages
  /// Quarantine: the run body threw. The run contributes only a FailedRun
  /// record; every other field (including metrics) is dropped.
  bool failed = false;
  std::string error;
  /// Per-run metrics sink (empty unless config.collect_metrics); folded
  /// into ExperimentResult::metrics in run order.
  metrics::Registry metrics;
};

// Shared per-realization kernel, once a contact model, rates-for-analysis,
// endpoints and start time are fixed. Every random draw comes from `rng`,
// which the engine seeds from (config.seed, run index). `reg` is the run's
// private metrics sink (null = off). Backend-neutral: `analysis_graph` is
// the ContactRates surface both the dense and the sparse backend implement.
RunOutcome run_once(const ExperimentConfig& cfg, sim::ContactModel& contacts,
                    const graph::ContactRates& analysis_graph, NodeId src,
                    NodeId dst, Time start, util::Rng& rng,
                    metrics::Registry* reg) {
  RunOutcome out;
  std::size_t n = contacts.node_count();

  // group_shards == 0 is the historical global permutation (same RNG
  // consumption as ever); sharded directories draw one seed and permute
  // lazily per shard.
  groups::GroupDirectory directory =
      cfg.group_shards > 0
          ? groups::GroupDirectory(
                n, cfg.group_size,
                groups::GroupDirectory::Sharded{cfg.group_shards, rng.next()})
          : groups::GroupDirectory(n, cfg.group_size, &rng);
  groups::KeyManager keys(directory, rng.next());
  onion::OnionCodec codec;

  routing::OnionContext ctx;
  ctx.directory = &directory;
  ctx.keys = &keys;
  ctx.codec = &codec;
  ctx.crypto = cfg.crypto;
  ctx.metrics = reg;
  ctx.wire_cells = cfg.wire_cells;
  ctx.cell_size = cfg.cell_size;

  // Recovery layer (retransmission + suspicion-biased retries). The
  // tracker is run-local: it converges within one message's retries. No
  // RNG is drawn here, so the disabled path is untouched.
  std::optional<recovery::SuspicionTracker> suspicion;
  if (cfg.recovery.enabled()) {
    ctx.recovery = &cfg.recovery;
    if (cfg.recovery.suspicion_alpha > 0.0) {
      suspicion.emplace(cfg.recovery.suspicion_alpha,
                        cfg.recovery.suspicion_threshold);
      ctx.suspicion = &*suspicion;
    }
  }

  routing::MessageSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.start = start;
  spec.ttl = cfg.ttl;
  spec.num_relays = cfg.num_relays;
  spec.copies = cfg.copies;
  if (cfg.crypto == routing::CryptoMode::kReal) {
    spec.payload = util::to_bytes("odtn experiment payload");
  }

  // Select the relay groups once so simulation and analysis see the same
  // realization.
  std::vector<GroupId> relay_groups =
      directory.select_relay_groups(src, dst, cfg.num_relays, rng);

  // One fresh fault realization per run, seeded from the run's RNG stream
  // so faulty sweeps keep the derive_seed reproducibility story. The
  // endpoints are exempt from the blackhole set (the knob measures relay
  // droppers, not trivially-dead destinations). When faults are disabled no
  // plan is built and no RNG is drawn — the fault-free path is untouched.
  std::optional<faults::FaultPlan> fault_plan;
  if (cfg.faults.enabled()) {
    const NodeId exempt[2] = {src, dst};
    fault_plan.emplace(cfg.faults, n, start + cfg.ttl, rng.next(),
                       std::span<const NodeId>(exempt));
    ctx.faults = &*fault_plan;
  }

  routing::DeliveryResult result;
  if (cfg.copies == 1) {
    routing::SingleCopyOnionRouting protocol(ctx);
    result = protocol.route(contacts, spec, rng, &relay_groups);
  } else {
    routing::MultiCopyOnionRouting protocol(ctx, cfg.spray);
    result = protocol.route(contacts, spec, rng, &relay_groups);
  }

  out.transmissions = static_cast<double>(result.transmissions);
  metrics::counter(reg, "experiment.runs").inc();
  metrics::histogram(reg, "experiment.transmissions")
      .observe(out.transmissions);
  if (cfg.wire_cells) {
    // Registered only in wire mode: the zero-knob export carries no
    // experiment.wire_* entries (byte-identity contract).
    metrics::histogram(reg, "experiment.wire_cells")
        .observe(static_cast<double>(result.wire_cells));
    metrics::histogram(reg, "experiment.wire_bytes")
        .observe(static_cast<double>(result.wire_bytes));
  }
  if (result.delivered) {
    out.delivered = true;
    out.delay = result.delay;
    metrics::counter(reg, "experiment.delivered").inc();
    metrics::histogram(reg, "experiment.delay").observe(result.delay);
    metrics::histogram(reg, "experiment.path_hops")
        .observe(static_cast<double>(result.relay_path.size() + 1));

    adversary::CompromiseModel compromise =
        adversary::CompromiseModel::from_fraction(n, cfg.compromise_fraction,
                                                  rng);
    out.traceable =
        adversary::measured_traceable_rate(src, result.relay_path, compromise);
    out.anonymity = adversary::measured_path_anonymity(
        src, result.relays_per_hop, compromise, n, cfg.group_size);
  }

  // Analysis on the same realization.
  auto rates = analysis::opportunistic_onion_rates(analysis_graph, src, dst,
                                                   directory, relay_groups);
  out.ana_delivery = analysis::delivery_rate(rates, cfg.ttl, cfg.copies);
  return out;
}

// Loaded-traffic realization kernel (config.traffic enabled): one run =
// one whole workload pushed through sim::run_network_sim over a sampled
// contact trace. Every random quantity — the directory, the traffic plan,
// the fault plan, the compromise set — derives from `rng` exactly like
// run_once, so loaded sweeps keep the bit-identical-at-any-thread-count
// contract.
RunOutcome run_loaded(const ExperimentConfig& cfg,
                      const trace::ContactTrace& contact_trace,
                      util::Rng& rng, metrics::Registry* reg) {
  RunOutcome out;
  out.loaded = true;
  const std::size_t n = contact_trace.node_count();

  groups::GroupDirectory directory =
      cfg.group_shards > 0
          ? groups::GroupDirectory(
                n, cfg.group_size,
                groups::GroupDirectory::Sharded{cfg.group_shards, rng.next()})
          : groups::GroupDirectory(n, cfg.group_size, &rng);

  traffic::TrafficPlan plan(cfg.traffic, n, rng.next());

  std::optional<faults::FaultPlan> fault_plan;
  if (cfg.faults.enabled()) {
    // No per-message endpoints to exempt under a whole workload: every
    // node is a source/destination of some flow.
    fault_plan.emplace(cfg.faults, n, contact_trace.end_time(), rng.next(),
                       std::span<const NodeId>());
  }

  const bool onion = cfg.load_forwarder == LoadForwarder::kOnion;
  std::optional<routing::UtilityForwarder> forwarder;
  if (!onion) {
    routing::UtilityForwarderConfig fc;
    if (cfg.load_forwarder == LoadForwarder::kSprayBlind) {
      fc.min_utility_ratio = 0.0;  // replicate to anyone...
      fc.backoff_occupancy = 2.0;  // ...and never back off
    }
    fc.failure_penalty = cfg.utility_failure_penalty;
    forwarder.emplace(n, fc);
  }

  sim::NetworkSimConfig sim_cfg;
  sim_cfg.buffer_capacity = cfg.buffer_capacity;
  sim_cfg.policy = cfg.buffer_policy;
  sim_cfg.metrics = reg;
  sim_cfg.faults = fault_plan ? &*fault_plan : nullptr;
  sim_cfg.bandwidth = cfg.bandwidth;
  sim_cfg.record_paths = onion;  // the anonymity measurement needs paths
  sim_cfg.utility = forwarder ? &*forwarder : nullptr;
  if (cfg.wire_cells) {
    // Loaded runs route abstract copies; wire accounting charges every
    // transfer the number of cells the full onion packet occupies on the
    // contact, against the (cell-denominated) bandwidth budget.
    onion::OnionCodec codec;
    circuit::CellCodec cells(cfg.cell_size);
    sim_cfg.cells_per_message = cells.cells_for(codec.wire_size());
    sim_cfg.cell_size = cfg.cell_size;
  }

  // Recovery layer: the per-message retry/jitter sub-streams derive from
  // one seed drawn here — after every other per-run draw, and only when
  // the layer is on, so disabled runs consume the identical RNG sequence.
  // The suspicion tracker is run-local (shared by all of the run's
  // messages, so later flows avoid groups earlier flows timed out on).
  std::optional<recovery::SuspicionTracker> suspicion;
  if (cfg.recovery.enabled()) {
    sim_cfg.recovery = &cfg.recovery;
    sim_cfg.recovery_seed = rng.next();
    if (cfg.recovery.suspicion_alpha > 0.0) {
      suspicion.emplace(cfg.recovery.suspicion_alpha,
                        cfg.recovery.suspicion_threshold);
      sim_cfg.suspicion = &*suspicion;
    }
  }

  sim::NetworkSimReport report = sim::run_network_sim(
      contact_trace, directory, plan.specs(), plan.priorities(), sim_cfg, rng);

  // Workload-level samples. p99 is exact over this run's delivered delays
  // (nearest-rank on the sorted list) — no histogram approximation.
  std::vector<double> delays;
  delays.reserve(report.outcomes.size());
  double anonymity_sum = 0.0;
  double traceable_sum = 0.0;
  std::size_t delivered = 0;
  std::optional<adversary::CompromiseModel> compromise;
  if (onion) {
    compromise = adversary::CompromiseModel::from_fraction(
        n, cfg.compromise_fraction, rng);
  }
  for (std::size_t m = 0; m < report.outcomes.size(); ++m) {
    const sim::MessageOutcome& o = report.outcomes[m];
    if (!o.delivered) continue;
    ++delivered;
    delays.push_back(o.delay);
    if (onion) {
      const auto& spec = plan.messages()[m].spec;
      traceable_sum += adversary::measured_traceable_rate(
          spec.src, o.relay_path, *compromise);
      anonymity_sum += adversary::measured_path_anonymity(
          spec.src, o.relays_per_hop, *compromise, n, cfg.group_size);
    }
  }

  out.transmissions = static_cast<double>(report.total_transmissions);
  out.delivery_fraction =
      plan.size() == 0
          ? 0.0
          : static_cast<double>(delivered) / static_cast<double>(plan.size());
  out.throughput = static_cast<double>(delivered) / cfg.traffic.horizon;
  if (delivered > 0) {
    out.delivered = true;
    double sum = 0.0;
    for (double d : delays) sum += d;
    out.delay = sum / static_cast<double>(delivered);
    std::sort(delays.begin(), delays.end());
    out.p99_delay = delays[((delays.size() - 1) * 99) / 100];
    if (onion) {
      out.traceable = traceable_sum / static_cast<double>(delivered);
      out.anonymity = anonymity_sum / static_cast<double>(delivered);
    }
  }

  metrics::counter(reg, "traffic.offered").inc(plan.size());
  metrics::counter(reg, "traffic.delivered").inc(delivered);
  metrics::histogram(reg, "traffic.run_throughput").observe(out.throughput);
  metrics::histogram(reg, "traffic.run_p99_delay").observe(out.p99_delay);
  return out;
}

// Closed-form metrics that depend only on the configuration (and node
// count), not on the realization; each run contributes one (identical)
// sample so the analysis side merges like every other accumulator.
struct AnalysisConstants {
  double traceable_paper;
  double traceable_exact;
  double anonymity;
  double cost_bound;
  double cost_non_anonymous;
};

AnalysisConstants analysis_constants(const ExperimentConfig& cfg,
                                     std::size_t n) {
  std::size_t eta = cfg.num_relays + 1;
  double p = cfg.compromise_fraction;
  AnalysisConstants k;
  k.traceable_paper = analysis::traceable_rate_paper(eta, p);
  k.traceable_exact = analysis::traceable_rate_exact(eta, p);
  k.anonymity =
      analysis::path_anonymity_model(eta, p, n, cfg.group_size, cfg.copies);
  k.cost_bound =
      cfg.copies == 1
          ? static_cast<double>(analysis::single_copy_cost(cfg.num_relays))
          : static_cast<double>(
                analysis::multi_copy_cost_bound(cfg.num_relays, cfg.copies));
  k.cost_non_anonymous =
      static_cast<double>(analysis::non_anonymous_cost(cfg.copies));
  return k;
}

// Shards `config.runs` calls of `body(run, rng, reg)` across the worker
// pool and folds the outcomes deterministically. `body` must derive all
// randomness from the passed rng (seeded per run), record metrics only into
// the passed per-run sink (null when collection is off), and must not touch
// shared state.
//
// A throwing body quarantines its run (FailedRun record; the shard
// continues and the fold skips it), so one poisoned realization cannot
// abort a sweep. With config.checkpoint_path set, runs are processed in
// checkpoint_interval-sized chunks and the folded state is snapshotted
// after each chunk; chunking preserves the fold order, so the chunked
// engine — and a resumed one — produces byte-identical results.
template <typename RunBody>
ExperimentResult run_engine(const ExperimentConfig& config, std::size_t n,
                            const std::string& scenario_tag,
                            const RunBody& body) {
  if (config.runs == 0) {
    throw std::invalid_argument("experiment: runs must be >= 1");
  }
  config.faults.validate();
  // odtn-lint: allow(banned-api) — kWall timer site: wall_time_s is the
  // experiment stopwatch, reported outside the deterministic result fields.
  auto t0 = std::chrono::steady_clock::now();
  const bool collect = config.collect_metrics;
  const bool checkpointing = !config.checkpoint_path.empty();
  const std::uint64_t config_hash =
      checkpointing ? checkpoint_config_hash(config, scenario_tag) : 0;

  // Wall-clock phase timers and pool stats land in this engine-local
  // registry (all Stability::kWall) and are merged into the result after
  // the deterministic fold.
  metrics::Registry engine_reg;

  ExperimentResult out;
  std::size_t start_run = 0;
  if (checkpointing && config.resume) {
    if (auto cp = load_checkpoint(config.checkpoint_path, config_hash)) {
      if (cp->completed_runs > config.runs) {
        throw std::runtime_error(
            "experiment: checkpoint already covers more runs than requested");
      }
      start_run = cp->completed_runs;
      out = std::move(cp->result);
    }
  }

  AnalysisConstants k = analysis_constants(config, n);
  const std::size_t chunk_size =
      checkpointing
          ? std::max<std::size_t>(std::size_t{1}, config.checkpoint_interval)
          : std::max<std::size_t>(std::size_t{1}, config.runs);

  for (std::size_t chunk_start = start_run; chunk_start < config.runs;
       chunk_start += chunk_size) {
    const std::size_t count = std::min(chunk_size, config.runs - chunk_start);
    std::vector<RunOutcome> outcomes(count);
    {
      metrics::ScopedTimer t(
          metrics::timer(collect ? &engine_reg : nullptr,
                         "experiment.phase.simulate_seconds"));
      util::parallel_for(
          count, config.threads,
          [&](std::size_t slot) {
            const std::size_t run = chunk_start + slot;
            util::Rng rng(util::derive_seed(config.seed, run));
            RunOutcome o;
            metrics::Registry reg;
            try {
              if (config.faults.p_run_abort > 0.0 &&
                  rng.chance(config.faults.p_run_abort)) {
                throw faults::InjectedFault(
                    "injected run abort (p_run_abort)");
              }
              o = body(run, rng, collect ? &reg : nullptr);
              o.metrics = std::move(reg);
            } catch (const std::exception& e) {
              o = RunOutcome{};  // quarantine: drop partial samples/metrics
              o.failed = true;
              o.error = e.what();
            }
            outcomes[slot] = std::move(o);
          },
          collect ? &engine_reg : nullptr);
    }

    {
      metrics::ScopedTimer t(metrics::timer(
          collect ? &engine_reg : nullptr, "experiment.phase.fold_seconds"));
      for (std::size_t slot = 0; slot < count; ++slot) {
        const RunOutcome& o = outcomes[slot];
        if (o.failed) {
          const std::size_t run = chunk_start + slot;
          out.failed_runs.push_back(
              {run, util::derive_seed(config.seed, run), o.error});
          continue;
        }
        out.sim_delivered.add(o.loaded ? o.delivery_fraction
                                       : (o.delivered ? 1.0 : 0.0));
        out.sim_transmissions.add(o.transmissions);
        if (o.delivered) {
          ++out.delivered_runs;
          out.sim_delay.add(o.delay);
          out.sim_traceable.add(o.traceable);
          out.sim_anonymity.add(o.anonymity);
        }
        if (o.loaded) {
          out.sim_throughput.add(o.throughput);
          out.sim_p99_delay.add(o.p99_delay);
        } else {
          out.ana_delivery.add(o.ana_delivery);
        }
        out.ana_traceable_paper.add(k.traceable_paper);
        out.ana_traceable_exact.add(k.traceable_exact);
        out.ana_anonymity.add(k.anonymity);
        out.ana_cost_bound.add(k.cost_bound);
        out.ana_cost_non_anonymous.add(k.cost_non_anonymous);
        if (collect) out.metrics.merge(o.metrics);
      }
    }

    if (checkpointing) {
      CheckpointData snapshot;
      snapshot.completed_runs = chunk_start + count;
      snapshot.result = out;  // engine_reg (wall-only) is deliberately absent
      save_checkpoint(config.checkpoint_path, config_hash, snapshot);
    }
  }
  if (collect) out.metrics.merge(engine_reg);
  // odtn-lint: allow(banned-api) — kWall timer site (same stopwatch).
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_time_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

// Picks (src, dst) uniformly among distinct pairs.
void pick_endpoints(util::Rng& rng, std::size_t n, NodeId& src, NodeId& dst) {
  src = static_cast<NodeId>(rng.below(n));
  dst = static_cast<NodeId>(rng.below(n - 1));
  if (dst >= src) ++dst;
}

// Sparse complete graphs store n(n-1)/2 edges explicitly; past a few
// thousand nodes that is strictly worse than the dense triangle. Force the
// avg_degree generator instead.
constexpr std::size_t kSparseCompleteGraphCap = 5000;

// One-line diagnostics for unsupported backend/knob combinations
// (validated at run() time so every entry point — CLI, benches, tests —
// reports the same message).
void validate_backend(const ExperimentConfig& cfg, const Scenario& scenario) {
  if (cfg.backend == ContactBackend::kDense) {
    if (cfg.avg_degree != 0 || cfg.communities != 0) {
      throw std::invalid_argument(
          "experiment: avg_degree/communities require "
          "--contact-backend=sparse");
    }
    if (std::holds_alternative<SparseTraceScenario>(scenario)) {
      throw std::invalid_argument(
          "experiment: streaming-trace scenario requires "
          "--contact-backend=sparse (use an in-memory TraceScenario on the "
          "dense backend)");
    }
    return;
  }
  // Sparse backend.
  if (std::holds_alternative<TraceScenario>(scenario)) {
    throw std::invalid_argument(
        "experiment: in-memory trace scenario runs on the dense backend; "
        "use a streaming sparse-trace scenario with "
        "--contact-backend=sparse");
  }
  if (std::holds_alternative<RandomGraphScenario>(scenario) &&
      cfg.avg_degree == 0 && cfg.nodes > kSparseCompleteGraphCap) {
    throw std::invalid_argument(
        "experiment: sparse complete graph capped at 5000 nodes; set "
        "avg_degree for larger networks");
  }
  if (cfg.communities != 0 && cfg.avg_degree == 0) {
    throw std::invalid_argument(
        "experiment: communities requires avg_degree > 0");
  }
}

// One-line diagnostics for the traffic/load knobs; the zero-knob default
// passes untouched.
void validate_traffic(const ExperimentConfig& cfg, const Scenario& scenario) {
  cfg.bandwidth.validate();
  cfg.recovery.validate();
  if (cfg.utility_failure_penalty < 0.0 || cfg.utility_failure_penalty > 1.0) {
    throw std::invalid_argument(
        "experiment: --utility-failure-penalty must be in [0, 1]");
  }
  if (cfg.utility_failure_penalty > 0.0 &&
      cfg.load_forwarder == LoadForwarder::kOnion) {
    throw std::invalid_argument(
        "experiment: --utility-failure-penalty applies to the utility/"
        "spray-blind forwarders only (--load-forwarder=utility)");
  }
  if (!cfg.traffic.enabled()) {
    cfg.traffic.validate(cfg.nodes);  // catches horizon-without-flows etc.
    if (cfg.bandwidth.enabled() || cfg.buffer_capacity != 0 ||
        cfg.load_forwarder != LoadForwarder::kOnion) {
      throw std::invalid_argument(
          "experiment: bandwidth/buffer/load-forwarder knobs require "
          "--traffic-* flows (they only apply to loaded runs)");
    }
    if (cfg.recovery.acks || cfg.recovery.shedding()) {
      throw std::invalid_argument(
          "experiment: --ack-vaccine/--shed-* are network-simulator "
          "semantics; they require --traffic-* flows");
    }
    return;
  }
  if (!std::holds_alternative<RandomGraphScenario>(scenario)) {
    throw std::invalid_argument(
        "experiment: traffic workloads run on random-graph scenarios only");
  }
  cfg.traffic.validate(cfg.nodes);
  if (cfg.load_forwarder == LoadForwarder::kOnion) {
    for (const auto& f : cfg.traffic.flows) {
      if (f.num_relays == 0) {
        throw std::invalid_argument(
            "experiment: onion load forwarding needs num_relays >= 1 per "
            "flow (utility/spray-blind ignore relay groups)");
      }
    }
  }
}

// One-line diagnostics for the wire-accurate circuit layer; the zero-knob
// default passes untouched.
void validate_wire(const ExperimentConfig& cfg) {
  if (!cfg.wire_cells) return;
  if (cfg.crypto != routing::CryptoMode::kReal) {
    throw std::invalid_argument(
        "experiment: --wire-cells fragments real sealed packets; it "
        "requires CryptoMode::kReal");
  }
  if (cfg.cell_size < circuit::kMinCellSize ||
      cfg.cell_size > circuit::kMaxCellSize) {
    throw std::invalid_argument(
        "experiment: --cell-size must be in [" +
        std::to_string(circuit::kMinCellSize) + ", " +
        std::to_string(circuit::kMaxCellSize) + "]");
  }
}

// Horizon the per-run contact trace must cover: the arrival window plus
// the longest TTL any flow stamps on a message.
Time loaded_trace_horizon(const ExperimentConfig& cfg) {
  Time max_ttl = 0.0;
  for (const auto& f : cfg.traffic.flows) max_ttl = std::max(max_ttl, f.ttl);
  return cfg.traffic.horizon + max_ttl;
}

}  // namespace

ExperimentResult Experiment::run(const Scenario& scenario) const {
  validate_backend(config_, scenario);
  validate_traffic(config_, scenario);
  validate_wire(config_);
  return std::visit(
      [this](const auto& s) -> ExperimentResult {
        using S = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<S, RandomGraphScenario>) {
          return run_random_graph(s);
        } else if constexpr (std::is_same_v<S, TraceScenario>) {
          return run_trace(s);
        } else {
          return run_sparse_trace(s);
        }
      },
      scenario);
}

ExperimentResult Experiment::run_random_graph(
    const RandomGraphScenario&) const {
  const ExperimentConfig& cfg = config_;
  const bool loaded = cfg.traffic.enabled();
  if (cfg.backend == ContactBackend::kSparse) {
    return run_engine(
        cfg, cfg.nodes, "random_graph",
        [&](std::size_t, util::Rng& rng, metrics::Registry* reg) {
          // avg_degree == 0 draws the identical RNG sequence as the dense
          // generator, so paper-scale sparse runs reproduce dense results
          // bit-for-bit; avg_degree > 0 is the O(n·degree) scale regime.
          graph::SparseContactGraph graph =
              cfg.avg_degree == 0
                  ? graph::sparse_random_contact_graph(cfg.nodes, rng,
                                                       cfg.min_ict, cfg.max_ict)
                  : graph::sparse_community_contact_graph(
                        cfg.nodes, cfg.avg_degree,
                        std::max<std::size_t>(std::size_t{1}, cfg.communities),
                        rng, cfg.min_ict, cfg.max_ict);
          if (loaded) {
            // The sampler visits pairs in the same (i, j) order on both
            // backends, so paper-scale loaded runs match across backends
            // bit-for-bit too.
            trace::ContactTrace events = trace::sample_poisson_trace(
                graph, loaded_trace_horizon(cfg), rng);
            return run_loaded(cfg, events, rng, reg);
          }
          sim::PoissonContactModel contacts(graph, rng);

          NodeId src, dst;
          pick_endpoints(rng, cfg.nodes, src, dst);
          return run_once(cfg, contacts, graph, src, dst, /*start=*/0.0, rng,
                          reg);
        });
  }
  return run_engine(cfg, cfg.nodes, "random_graph",
                    [&](std::size_t, util::Rng& rng, metrics::Registry* reg) {
    graph::ContactGraph graph = graph::random_contact_graph(
        cfg.nodes, rng, cfg.min_ict, cfg.max_ict);
    if (loaded) {
      trace::ContactTrace events =
          trace::sample_poisson_trace(graph, loaded_trace_horizon(cfg), rng);
      return run_loaded(cfg, events, rng, reg);
    }
    sim::PoissonContactModel contacts(graph, rng);

    NodeId src, dst;
    pick_endpoints(rng, cfg.nodes, src, dst);
    return run_once(cfg, contacts, graph, src, dst, /*start=*/0.0, rng, reg);
  });
}

ExperimentResult Experiment::run_trace(const TraceScenario& scenario) const {
  if (scenario.trace == nullptr) {
    throw std::invalid_argument("experiment: TraceScenario.trace is null");
  }
  const ExperimentConfig& cfg = config_;
  const trace::ContactTrace& trace = *scenario.trace;

  // Rates are trained once and shared read-only across workers; the phase
  // timer lands in the result's registry after the engine fold.
  metrics::Registry train_reg;
  graph::ContactGraph trained = [&] {
    metrics::ScopedTimer t(
        metrics::timer(cfg.collect_metrics ? &train_reg : nullptr,
                       "experiment.phase.train_seconds"));
    return cfg.trace_training_gap > 0.0
               ? trace.estimate_rates_active(cfg.trace_training_gap)
               : trace.estimate_rates();
  }();

  // Each node's contact times, in trace order: a run starts at one of its
  // source's contacts ("a source node initiates a message transmission at
  // any time after it has a contact"). Built once, read by every worker.
  std::vector<std::vector<Time>> contact_times(trace.node_count());
  for (const trace::ContactEvent& e : trace.events()) {
    contact_times[e.a].push_back(e.time);
    contact_times[e.b].push_back(e.time);
  }

  ExperimentResult result = run_engine(
      cfg, trace.node_count(),
      cfg.checkpoint_path.empty() ? "trace" : trace_scenario_tag(trace),
      [&](std::size_t, util::Rng& rng, metrics::Registry* reg) {
        NodeId src, dst;
        pick_endpoints(rng, trace.node_count(), src, dst);

        const std::vector<Time>& times = contact_times[src];
        if (times.empty()) {
          metrics::counter(reg, "experiment.runs").inc();
          metrics::counter(reg, "experiment.isolated_sources").inc();
          return RunOutcome{};  // isolated node: a failed run
        }
        Time start = times[rng.below(times.size())];

        sim::TraceContactModel contacts(trace);
        return run_once(cfg, contacts, trained, src, dst, start, rng, reg);
      });
  if (cfg.collect_metrics) result.metrics.merge(train_reg);
  return result;
}

ExperimentResult Experiment::run_sparse_trace(
    const SparseTraceScenario& scenario) const {
  const ExperimentConfig& cfg = config_;
  if (scenario.path.empty()) {
    throw std::invalid_argument("experiment: SparseTraceScenario.path empty");
  }
  if (scenario.nodes < 2) {
    throw std::invalid_argument(
        "experiment: SparseTraceScenario.nodes must be >= 2");
  }

  // ONE streaming pass over the file: no event list, no whole-file buffer —
  // just the trained CSR rates. Runs then sample live Poisson contacts from
  // those rates (the model the training fits), so neither the simulation
  // nor the analysis side ever needs the events again.
  metrics::Registry train_reg;
  trace::SparseTraceSummary summary = [&] {
    metrics::ScopedTimer t(
        metrics::timer(cfg.collect_metrics ? &train_reg : nullptr,
                       "experiment.phase.train_seconds"));
    return trace::ingest_sparse_trace_file(scenario.path, scenario.format,
                                           scenario.nodes,
                                           cfg.trace_training_gap);
  }();

  ExperimentResult result = run_engine(
      cfg, summary.node_count,
      cfg.checkpoint_path.empty() ? "sparse_trace"
                                  : trace_scenario_tag(summary),
      [&](std::size_t, util::Rng& rng, metrics::Registry* reg) {
        NodeId src, dst;
        pick_endpoints(rng, summary.node_count, src, dst);

        if (summary.rates.degree(src) == 0) {
          metrics::counter(reg, "experiment.runs").inc();
          metrics::counter(reg, "experiment.isolated_sources").inc();
          return RunOutcome{};  // isolated node: a failed run
        }

        sim::PoissonContactModel contacts(summary.rates, rng);
        return run_once(cfg, contacts, summary.rates, src, dst,
                        /*start=*/summary.start_time, rng, reg);
      });
  if (cfg.collect_metrics) result.metrics.merge(train_reg);
  return result;
}

}  // namespace odtn::core
