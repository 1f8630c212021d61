// End-to-end benchmark: the e2ebench binary that run.py builds and runs.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--points P]
//
// A workload is a sequence of *points*; point i is one core::Experiment::run
// call at threads=1 whose seed is util::derive_seed(seed, i). The driver
// runs the workload's outcome prefix once, then re-runs its timed set round
// robin for the rest of the budget; each timed point keeps its fastest
// time. With --trace 0 it prints every end-to-end metric. With --trace 1 it
// also rebuilds every realization it runs from the layers' public calls,
// with a timing span around each call, and prints the per-layer split. The
// last line of output is the JSON result.
//
// Set-up runs from launch to the end of one untimed warm-up point. run.py
// also launches the binary with --setup-only before and after the main run
// and reports the median set-up time over all launches.
//
// Correctness gate: every point's deterministic ExperimentResult fields are
// hashed into a digest. The traced reconstruction must reproduce each
// point's digest exactly (--trace 1: every traced run; --trace 0: the
// first three points), and so must every re-run of a timed point and a
// replay of the first two points at threads=min(4, nproc). A mismatch
// counts the point's realizations as failed and makes the run incorrect.
// Independently of --seed, the simulated outcomes of the first points at
// the default seed must match the committed reference values in
// kWorkloads. README.md has the workload rationale and the
// metric -> layer -> workload table.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/anonymity.hpp"
#include "analysis/cost.hpp"
#include "analysis/delivery.hpp"
#include "analysis/traceable.hpp"
#include "circuit/cell.hpp"
#include "core/experiment.hpp"
#include "faults/faults.hpp"
#include "graph/contact_graph.hpp"
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

namespace {

using namespace odtn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CLOCK_MONOTONIC in nanoseconds, the clock Python's time.monotonic_ns()
// reads on Linux, so run.py's launch timestamp compares with it directly.
std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// Taken during static initialization, before main(): the start of set-up
// when no launch timestamp is given.
const std::int64_t g_process_start_ns = monotonic_ns();

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kPaperFigures, kWireCrypto, kLoadedRecovery, kLoadedUtility };

/// Mean simulated delivery, transmissions and delay over some points.
struct Outcomes {
  double delivery = 0.0;
  double transmissions = 0.0;
  double delay = 0.0;
};

/// The default seed, at which the reference outcomes are taken.
constexpr std::uint64_t kReferenceSeed = 1;

struct Workload {
  const char* name;
  Kind kind;
  /// Realizations per point (ExperimentConfig::runs).
  std::size_t runs_per_point;
  /// The simulated outcomes and the per-layer work counts cover exactly
  /// this many leading points, which every run completes however fast the
  /// host is, so they are a pure function of the seed.
  std::size_t outcome_points;
  /// The timed set: this many leading points are re-run round robin for
  /// the whole run, and each keeps its fastest time.
  std::size_t timed_points;
  /// Every run recomputes the outcomes of this many leading points at
  /// kReferenceSeed and requires `reference` (relative tolerance 1e-9).
  /// The traced digest check cannot see a layer whose output changes, as
  /// both of its sides call the same layer; this check does. A change
  /// meant to move simulated outcomes updates these values from the
  /// run's "# reference" line.
  std::size_t reference_points;
  Outcomes reference;
};

constexpr Workload kWorkloads[] = {
    {"paper_figures", Kind::kPaperFigures, 200, 270, 54, 3,
     {0.15500000000000003, 7.0616666666666674, 42.389560924293697}},
    {"wire_crypto", Kind::kWireCrypto, 50, 30, 12, 2,
     {1, 8, 195.45258592239736}},
    {"loaded_recovery", Kind::kLoadedRecovery, 1, 32, 32, 1,
     {0.72761194029850751, 2316, 466.15006124411042}},
    {"loaded_utility", Kind::kLoadedUtility, 1, 32, 16, 1,
     {0.62790697674418605, 1091, 33.526679287635524}},
};

// Fig. 10's grid: deadlines x copies, n=100, K=3, g=5, c/n=0.1.
constexpr double kDeadlines[] = {60, 120, 240, 360, 600, 900, 1200, 1500, 1800};
constexpr std::size_t kGridCopies[] = {1, 3, 5};
constexpr std::size_t kGridCells = std::size(kDeadlines) * std::size(kGridCopies);

// The loaded stack shared by both loaded workloads (ablation_recovery's and
// ablation_anonymity_vs_load's): one Poisson flow, L=4, horizon 600, two
// transfers per contact, eight-message drop-oldest buffers.
void make_loaded(core::ExperimentConfig& cfg, double rate) {
  cfg.copies = 4;
  traffic::FlowConfig flow;
  flow.rate = rate;
  flow.ttl = cfg.ttl;
  flow.num_relays = cfg.num_relays;
  flow.copies = cfg.copies;
  cfg.traffic.flows.push_back(flow);
  cfg.traffic.horizon = 600.0;
  cfg.bandwidth.messages_per_contact = 2;
  cfg.buffer_capacity = 8;
  cfg.buffer_policy = sim::BufferPolicy::kDropOldest;
}

core::ExperimentConfig point_config(const Workload& w, std::uint64_t seed,
                                    std::size_t point) {
  core::ExperimentConfig cfg;  // the paper's defaults (Table II)
  cfg.seed = util::derive_seed(seed, point);
  cfg.runs = w.runs_per_point;
  cfg.threads = 1;
  switch (w.kind) {
    case Kind::kPaperFigures: {
      const std::size_t cell = point % kGridCells;
      cfg.ttl = kDeadlines[cell / std::size(kGridCopies)];
      cfg.copies = kGridCopies[cell % std::size(kGridCopies)];
      break;
    }
    case Kind::kWireCrypto:
      cfg.crypto = routing::CryptoMode::kReal;
      cfg.wire_cells = true;
      cfg.cell_size = 512;
      // One single-copy point per two multi-copy points: the two cost
      // modes are not split evenly, so the median point is not on the
      // boundary between them.
      cfg.copies = point % 3 == 0 ? 1 : 3;
      break;
    case Kind::kLoadedRecovery:
      make_loaded(cfg, 0.4);
      cfg.faults.p_fail = 0.2;
      cfg.faults.mean_uptime = 400.0;
      cfg.faults.mean_downtime = 100.0;
      cfg.faults.blackhole_fraction = 0.2;
      cfg.recovery.acks = true;
      cfg.recovery.retx_timeout = 300.0;
      cfg.recovery.retx_max = 3;
      cfg.recovery.retx_backoff = 2.0;
      cfg.recovery.retx_jitter = 0.1;
      cfg.recovery.suspicion_alpha = 0.3;
      cfg.recovery.suspicion_threshold = 0.75;
      cfg.recovery.shed_occupancy = 0.95;
      cfg.recovery.shed_saturation = 0.8;
      break;
    case Kind::kLoadedUtility:
      make_loaded(cfg, 0.8);
      cfg.load_forwarder = core::LoadForwarder::kUtility;
      break;
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Digest of the deterministic ExperimentResult fields
// ---------------------------------------------------------------------------

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

std::uint64_t digest(const core::ExperimentResult& r) {
  Fnv1a f;
  for (const util::RunningStats* s :
       {&r.sim_delivered, &r.sim_delay, &r.sim_transmissions, &r.sim_traceable,
        &r.sim_anonymity, &r.sim_throughput, &r.sim_p99_delay, &r.ana_delivery,
        &r.ana_traceable_paper, &r.ana_traceable_exact, &r.ana_anonymity,
        &r.ana_cost_bound, &r.ana_cost_non_anonymous}) {
    const util::RunningStats::State st = s->state();
    f.u64(st.n);
    f.f64(st.mean);
    f.f64(st.m2);
    f.f64(st.min);
    f.f64(st.max);
  }
  f.u64(r.delivered_runs);
  for (const auto& failed : r.failed_runs) {
    f.u64(failed.run);
    f.u64(failed.seed);
    f.bytes(failed.message.data(), failed.message.size());
  }
  return f.h;
}

// ---------------------------------------------------------------------------
// Tracing: spans with self time, plus work counts from return values
// ---------------------------------------------------------------------------

enum Span : std::size_t {
  kGraphBuild,
  kTraceSample,
  kGroupsDirectory,
  kGroupsKeys,
  kGroupsSelect,
  kTrafficPlan,
  kFaultsPlan,
  kRoutingRoute,
  kContactPrepare,
  kContactQuery,
  kSimNetwork,
  kAdversaryMeasure,
  kAnalysisRates,
  kAnalysisDelivery,
  kSpanCount
};

constexpr const char* kSpanNames[kSpanCount] = {
    "graph.build",      "trace.sample",        "groups.directory",
    "groups.keys",      "groups.select",       "traffic.plan",
    "faults.plan",      "routing.route",       "sim.contact.prepare",
    "sim.contact.query", "sim.network",        "adversary.measure",
    "analysis.rates",   "analysis.delivery"};

// Work counts read from public return values (DeliveryResult,
// NetworkSimReport, trace and plan sizes).
struct Counts {
  std::uint64_t realizations = 0;
  std::uint64_t routing_transmissions = 0;
  std::uint64_t circuit_cells = 0;
  std::uint64_t circuit_bytes = 0;
  std::uint64_t trace_contacts = 0;
  std::uint64_t traffic_offered = 0;
  std::uint64_t net_transmissions = 0;
  std::uint64_t buffer_rejections = 0;
  std::uint64_t evicted = 0;
  std::uint64_t expired = 0;
  std::uint64_t queue_deferred = 0;
  std::uint64_t contacts_saturated = 0;
  std::uint64_t suppressed_contacts = 0;
  std::uint64_t transfer_failures = 0;
  std::uint64_t blackhole_absorbed = 0;
  std::uint64_t crash_flushed = 0;
  std::uint64_t acks_created = 0;
  std::uint64_t ack_gc_copies = 0;
  std::uint64_t acked_at_source = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t shed = 0;
  std::uint64_t suspicion_flips = 0;
};

struct Tally {
  std::array<std::uint64_t, kSpanCount> calls{};
  std::array<std::int64_t, kSpanCount> self_ns{};
  std::int64_t point_ns = 0;  // wall time of the traced points
  Counts counts;
};

class Tracer {
 public:
  Tally tally;

  class Scope {
   public:
    Scope(Tracer& t, Span id) : t_(t), id_(id), start_(Clock::now()) {
      t_.child_ns_.push_back(0);
    }
    ~Scope() {
      const std::int64_t d =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start_)
              .count();
      const std::int64_t children = t_.child_ns_.back();
      t_.child_ns_.pop_back();
      t_.tally.self_ns[id_] += d - children;
      ++t_.tally.calls[id_];
      if (!t_.child_ns_.empty()) t_.child_ns_.back() += d;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    Span id_;
    Clock::time_point start_;
  };

 private:
  std::vector<std::int64_t> child_ns_;  // per open span: its children's time
};

template <typename F>
auto timed(Tracer& t, Span id, F&& f) {
  Tracer::Scope s(t, id);
  return f();
}

// Timing decorator around a contact model: the sim.contact.* spans. Plans
// prepared through it are owned by (and answered by) the wrapped model.
class TimedContactModel final : public sim::ContactModel {
 public:
  TimedContactModel(sim::ContactModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::size_t node_count() const override { return inner_.node_count(); }

  using ContactModel::first_cross_contact;
  using ContactModel::prepare;
  using ContactModel::prepare_complement;

  void prepare(sim::ContactQuery& q, std::span<const NodeId> from,
               std::span<const NodeId> to) override {
    Tracer::Scope s(tracer_, kContactPrepare);
    inner_.prepare(q, from, to);
  }
  void prepare_complement(sim::ContactQuery& q, std::span<const NodeId> from,
                          std::span<const NodeId> excluded) override {
    Tracer::Scope s(tracer_, kContactPrepare);
    inner_.prepare_complement(q, from, excluded);
  }
  std::optional<sim::CrossContact> first_cross_contact(
      const sim::ContactQuery& q, Time after, Time horizon) override {
    Tracer::Scope s(tracer_, kContactQuery);
    return inner_.first_cross_contact(q, after, horizon);
  }

 private:
  sim::ContactModel& inner_;
  Tracer& tracer_;
};

// ---------------------------------------------------------------------------
// Traced reconstruction of Experiment::run (dense random-graph scenario)
// ---------------------------------------------------------------------------

// What one realization contributes to the fold (the engine's RunOutcome).
struct Outcome {
  bool delivered = false;
  double transmissions = 0.0;
  double delay = 0.0;
  double traceable = 0.0;
  double anonymity = 0.0;
  double ana_delivery = 0.0;
  bool loaded = false;
  double delivery_fraction = 0.0;
  double throughput = 0.0;
  double p99_delay = 0.0;
};

Outcome realize_unloaded(const core::ExperimentConfig& cfg, util::Rng& rng,
                         Tracer& tr) {
  Outcome out;
  const std::size_t n = cfg.nodes;
  graph::ContactGraph graph = timed(tr, kGraphBuild, [&] {
    return graph::random_contact_graph(n, rng, cfg.min_ict, cfg.max_ict);
  });
  sim::PoissonContactModel poisson(graph, rng);
  TimedContactModel contacts(poisson, tr);

  NodeId src = static_cast<NodeId>(rng.below(n));
  NodeId dst = static_cast<NodeId>(rng.below(n - 1));
  if (dst >= src) ++dst;

  groups::GroupDirectory directory = timed(tr, kGroupsDirectory, [&] {
    return groups::GroupDirectory(n, cfg.group_size, &rng);
  });
  groups::KeyManager keys = timed(tr, kGroupsKeys, [&] {
    return groups::KeyManager(directory, rng.next());
  });
  onion::OnionCodec codec;

  routing::OnionContext ctx;
  ctx.directory = &directory;
  ctx.keys = &keys;
  ctx.codec = &codec;
  ctx.crypto = cfg.crypto;
  ctx.wire_cells = cfg.wire_cells;
  ctx.cell_size = cfg.cell_size;

  routing::MessageSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.start = 0.0;
  spec.ttl = cfg.ttl;
  spec.num_relays = cfg.num_relays;
  spec.copies = cfg.copies;
  if (cfg.crypto == routing::CryptoMode::kReal) {
    spec.payload = util::to_bytes("odtn experiment payload");
  }

  std::vector<GroupId> relay_groups = timed(tr, kGroupsSelect, [&] {
    return directory.select_relay_groups(src, dst, cfg.num_relays, rng);
  });

  routing::DeliveryResult result = timed(tr, kRoutingRoute, [&] {
    if (cfg.copies == 1) {
      routing::SingleCopyOnionRouting protocol(ctx);
      return protocol.route(contacts, spec, rng, &relay_groups);
    }
    routing::MultiCopyOnionRouting protocol(ctx, cfg.spray);
    return protocol.route(contacts, spec, rng, &relay_groups);
  });
  Counts& c = tr.tally.counts;
  c.routing_transmissions += result.transmissions;
  c.circuit_cells += result.wire_cells;
  c.circuit_bytes += result.wire_bytes;

  out.transmissions = static_cast<double>(result.transmissions);
  if (result.delivered) {
    out.delivered = true;
    out.delay = result.delay;
    Tracer::Scope s(tr, kAdversaryMeasure);
    adversary::CompromiseModel compromise =
        adversary::CompromiseModel::from_fraction(n, cfg.compromise_fraction,
                                                  rng);
    out.traceable =
        adversary::measured_traceable_rate(src, result.relay_path, compromise);
    out.anonymity = adversary::measured_path_anonymity(
        src, result.relays_per_hop, compromise, n, cfg.group_size);
  }

  std::vector<double> rates = timed(tr, kAnalysisRates, [&] {
    return analysis::opportunistic_onion_rates(graph, src, dst, directory,
                                               relay_groups);
  });
  out.ana_delivery = timed(tr, kAnalysisDelivery, [&] {
    return analysis::delivery_rate(rates, cfg.ttl, cfg.copies);
  });
  return out;
}

Outcome realize_loaded(const core::ExperimentConfig& cfg, util::Rng& rng,
                       Tracer& tr) {
  Outcome out;
  out.loaded = true;
  const std::size_t n = cfg.nodes;
  graph::ContactGraph graph = timed(tr, kGraphBuild, [&] {
    return graph::random_contact_graph(n, rng, cfg.min_ict, cfg.max_ict);
  });
  Time max_ttl = 0.0;
  for (const auto& f : cfg.traffic.flows) max_ttl = std::max(max_ttl, f.ttl);
  trace::ContactTrace events = timed(tr, kTraceSample, [&] {
    return trace::sample_poisson_trace(graph, cfg.traffic.horizon + max_ttl,
                                       rng);
  });

  groups::GroupDirectory directory = timed(tr, kGroupsDirectory, [&] {
    return groups::GroupDirectory(n, cfg.group_size, &rng);
  });

  traffic::TrafficPlan plan = timed(tr, kTrafficPlan, [&] {
    return traffic::TrafficPlan(cfg.traffic, n, rng.next());
  });

  std::optional<faults::FaultPlan> fault_plan;
  if (cfg.faults.enabled()) {
    Tracer::Scope s(tr, kFaultsPlan);
    fault_plan.emplace(cfg.faults, n, events.end_time(), rng.next(),
                       std::span<const NodeId>());
  }

  const bool onion = cfg.load_forwarder == core::LoadForwarder::kOnion;
  std::optional<routing::UtilityForwarder> forwarder;
  if (!onion) forwarder.emplace(n);

  sim::NetworkSimConfig sim_cfg;
  sim_cfg.buffer_capacity = cfg.buffer_capacity;
  sim_cfg.policy = cfg.buffer_policy;
  sim_cfg.faults = fault_plan ? &*fault_plan : nullptr;
  sim_cfg.bandwidth = cfg.bandwidth;
  sim_cfg.record_paths = onion;
  sim_cfg.utility = forwarder ? &*forwarder : nullptr;

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

  sim::NetworkSimReport report = timed(tr, kSimNetwork, [&] {
    return sim::run_network_sim(events, directory, plan.specs(),
                                plan.priorities(), sim_cfg, rng);
  });
  Counts& c = tr.tally.counts;
  c.trace_contacts += events.event_count();
  c.traffic_offered += plan.size();
  c.net_transmissions += report.total_transmissions;
  c.buffer_rejections += report.total_buffer_rejections;
  c.evicted += report.evicted_copies;
  c.expired += report.expired_copies;
  c.queue_deferred += report.queue_deferred;
  c.contacts_saturated += report.contacts_saturated;
  c.suppressed_contacts += report.suppressed_contacts;
  c.transfer_failures += report.transfer_failures;
  c.blackhole_absorbed += report.blackhole_absorbed;
  c.crash_flushed += report.crash_flushed_copies;
  c.acks_created += report.acks_created;
  c.ack_gc_copies += report.ack_gc_copies;
  c.acked_at_source += report.acked_at_source;
  c.retransmissions += report.retransmissions;
  c.shed += report.shed_messages;
  c.suspicion_flips += report.suspicion_flips;

  std::vector<double> delays;
  delays.reserve(report.outcomes.size());
  double anonymity_sum = 0.0;
  double traceable_sum = 0.0;
  std::size_t delivered = 0;
  {
    Tracer::Scope s(tr, kAdversaryMeasure);
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
        const NodeId src = plan.messages()[m].spec.src;
        traceable_sum +=
            adversary::measured_traceable_rate(src, o.relay_path, *compromise);
        anonymity_sum += adversary::measured_path_anonymity(
            src, o.relays_per_hop, *compromise, n, cfg.group_size);
      }
    }
  }

  out.transmissions = static_cast<double>(report.total_transmissions);
  out.delivery_fraction =
      plan.size() == 0 ? 0.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(plan.size());
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
  return out;
}

// Runs every realization of one point through the traced layers and folds
// the outcomes in run order, as the engine does.
core::ExperimentResult run_traced(const core::ExperimentConfig& cfg,
                                  Tracer& tr) {
  const bool loaded = cfg.traffic.enabled();
  if (cfg.backend != core::ContactBackend::kDense || cfg.group_shards != 0 ||
      cfg.faults.p_run_abort > 0.0 || cfg.collect_metrics ||
      (loaded && (cfg.wire_cells ||
                  cfg.load_forwarder == core::LoadForwarder::kSprayBlind ||
                  cfg.utility_failure_penalty != 0.0)) ||
      (!loaded && (cfg.faults.enabled() || cfg.recovery.enabled()))) {
    throw std::logic_error(
        "e2ebench: the traced run mirrors only the configurations the "
        "workloads use");
  }
  const std::size_t eta = cfg.num_relays + 1;
  const double p = cfg.compromise_fraction;
  const double traceable_paper = analysis::traceable_rate_paper(eta, p);
  const double traceable_exact = analysis::traceable_rate_exact(eta, p);
  const double anonymity = analysis::path_anonymity_model(
      eta, p, cfg.nodes, cfg.group_size, cfg.copies);
  const double cost_bound =
      cfg.copies == 1
          ? static_cast<double>(analysis::single_copy_cost(cfg.num_relays))
          : static_cast<double>(
                analysis::multi_copy_cost_bound(cfg.num_relays, cfg.copies));
  const double cost_non_anonymous =
      static_cast<double>(analysis::non_anonymous_cost(cfg.copies));

  core::ExperimentResult r;
  for (std::size_t run = 0; run < cfg.runs; ++run) {
    const std::uint64_t seed = util::derive_seed(cfg.seed, run);
    util::Rng rng(seed);
    Outcome o;
    try {
      o = loaded ? realize_loaded(cfg, rng, tr)
                 : realize_unloaded(cfg, rng, tr);
    } catch (const std::exception& e) {
      r.failed_runs.push_back({run, seed, e.what()});
      continue;
    }
    ++tr.tally.counts.realizations;
    r.sim_delivered.add(o.loaded ? o.delivery_fraction
                                 : (o.delivered ? 1.0 : 0.0));
    r.sim_transmissions.add(o.transmissions);
    if (o.delivered) {
      ++r.delivered_runs;
      r.sim_delay.add(o.delay);
      r.sim_traceable.add(o.traceable);
      r.sim_anonymity.add(o.anonymity);
    }
    if (o.loaded) {
      r.sim_throughput.add(o.throughput);
      r.sim_p99_delay.add(o.p99_delay);
    } else {
      r.ana_delivery.add(o.ana_delivery);
    }
    r.ana_traceable_paper.add(traceable_paper);
    r.ana_traceable_exact.add(traceable_exact);
    r.ana_anonymity.add(anonymity);
    r.ana_cost_bound.add(cost_bound);
    r.ana_cost_non_anonymous.add(cost_non_anonymous);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct Point {
  double ms = 0.0;
  std::uint64_t digest = 0;
  std::size_t failed = 0;  // quarantined realizations
};

// Times one Experiment::run call. The full result is handed back only when
// asked for (the outcome prefix), so memory, and peak_rss_mb with it, does
// not grow with the number of points a run fits.
Point run_point(const core::ExperimentConfig& config,
                core::ExperimentResult* keep = nullptr) {
  const Clock::time_point t0 = Clock::now();
  core::ExperimentResult r =
      core::Experiment(config).run(core::RandomGraphScenario{});
  const Point pt{seconds_since(t0) * 1e3, digest(r), r.failed_runs.size()};
  if (keep != nullptr) *keep = std::move(r);
  return pt;
}

// Nearest-rank quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Peak resident set of this process image: VmHWM. getrusage's ru_maxrss
// survives execve on Linux, so under run.py it would report the Python
// parent's larger peak instead.
double peak_rss_mb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("%-40s %-20s %s%s\n", m.name.c_str(), json_number(m.value).c_str(),
              m.unit, note.empty() ? "" : ("  " + note).c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::size_t points = 0;  // > 0: exactly this many points, no time budget
  std::int64_t launched_ns = 0;  // launcher's CLOCK_MONOTONIC; 0: none
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--points P] [--launched-ns NS]\n"
               "                [--setup-only]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  auto bad = [](std::string_view flag, std::string_view text) {
    usage("bad value for " + std::string(flag) + ": " + std::string(text));
  };
  auto integer = [&](std::string_view flag, std::string_view text) {
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size()) bad(flag, text);
    return v;
  };
  const auto real = [&](std::string_view flag, const char* text) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v > 0.0)) bad(flag, text);
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = integer(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = real(flag, value);
    } else if (flag == "--trace") {
      const std::uint64_t t = integer(flag, value);
      a.trace = t <= 1 ? static_cast<int>(t) : -1;
    } else if (flag == "--points") {
      a.points = static_cast<std::size_t>(integer(flag, value));
    } else if (flag == "--launched-ns") {
      a.launched_ns = static_cast<std::int64_t>(integer(flag, value));
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.workload.empty() || (a.seconds <= 0.0 && a.points == 0)) {
    usage("--workload and --seconds are required");
  }
  return a;
}

int run(const Args& args) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) usage("unknown workload '" + args.workload + "'");
  const Workload& w = *wp;
  const bool traced = args.trace == 1;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("# build_type=%s compiler=%s optimized=%d sanitizer=%s nproc=%u\n",
              E2EBENCH_BUILD_TYPE, E2EBENCH_COMPILER, optimized ? 1 : 0,
              sanitized ? "on" : "off", nproc);
  if (!optimized || sanitized) {
    std::fprintf(stderr,
                 "e2ebench: WARNING: unoptimized or sanitizer build; "
                 "timings are not comparable\n");
  }

  // Set-up: from launch (run.py's timestamp, so loading and static
  // initialization count; else static initialization of this file) to the
  // end of config construction and one untimed warm-up point. run.py
  // replaces this launch's setup_s with the median over it and separate
  // --setup-only launches before and after it.
  run_point(point_config(w, args.seed, 0));
  const std::int64_t launched =
      args.launched_ns > 0 ? args.launched_ns : g_process_start_ns;
  const double setup = static_cast<double>(monotonic_ns() - launched) / 1e9;
  if (args.setup_only) {
    std::printf("setup_s %.17g\n", setup);
    return 0;
  }

  // Pass 0 runs the first max(prefix, timed) points once; the outcome
  // prefix keeps its results. Then the timed set is re-run round robin
  // until --seconds is used up (a fixed --points run, the smoke test: one
  // more pass, with prefix and timed set shrunk to fit), and each timed
  // point keeps its fastest time. Other tenants of the host slow the same
  // points by up to 1.9x in phases of a few seconds (cache contention:
  // an L2-resident pointer chase slows with them, an ALU loop does not),
  // so a time taken once says more about the host's state than about the
  // program. A point's fastest of many runs spread over the whole run
  // counts slow only if the host was busy every time it ran.
  const std::size_t prefix =
      args.points > 0 ? std::min(args.points, w.outcome_points)
                      : w.outcome_points;
  const std::size_t timed = args.points > 0 ? args.points : w.timed_points;
  const std::size_t first_pass = std::max(prefix, timed);
  const auto config = [&](std::size_t i) {
    return point_config(w, args.seed, i);
  };
  std::vector<Point> points;
  std::vector<core::ExperimentResult> results;  // of the prefix points
  std::vector<std::size_t> executions(first_pass, 1);  // untraced runs
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < first_pass; ++i) {
    points.push_back(
        run_point(config(i), i < prefix ? &results.emplace_back() : nullptr));
  }
  std::vector<double> best_ms(timed);
  for (std::size_t i = 0; i < timed; ++i) best_ms[i] = points[i].ms;

  // Correctness: every repeat, the traced reconstruction and a
  // multi-threaded replay must reproduce each checked point's digest; a
  // point that does not counts all its realizations as failed.
  std::size_t mismatches = 0;
  std::vector<bool> mismatched(points.size(), false);
  auto check = [&](std::size_t i, const char* what, std::uint64_t got) {
    if (got == points[i].digest) return;
    ++mismatches;
    mismatched[i] = true;
    std::printf("# DIGEST MISMATCH (%s) point %zu: %016llx != %016llx\n",
                what, i, static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(points[i].digest));
  };
  Tracer tracer;
  Tally prefix_tally;
  std::size_t traced_runs = 0;
  std::vector<double> traced_best_ms(timed, HUGE_VAL);
  const auto trace_point = [&](std::size_t i) {
    const Clock::time_point p0 = Clock::now();
    const std::uint64_t got = digest(run_traced(config(i), tracer));
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             p0)
            .count();
    tracer.tally.point_ns += ns;
    if (i < timed) traced_best_ms[i] = std::min(traced_best_ms[i], ns / 1e6);
    if (traced_runs < 3) {
      std::printf("# point %zu digest untraced=%016llx traced=%016llx\n", i,
                  static_cast<unsigned long long>(points[i].digest),
                  static_cast<unsigned long long>(got));
    }
    ++traced_runs;
    check(i, "traced", got);
  };
  // --trace 1 traces every point of pass 0 once (the per-layer counts
  // cover the prefix), then alternates untraced and traced runs of each
  // timed point; --trace 0 traces the first three points after timing.
  if (traced) {
    for (std::size_t i = 0; i < first_pass; ++i) {
      trace_point(i);
      if (i + 1 == prefix) prefix_tally = tracer.tally;
    }
  }
  std::size_t repeats = 0;
  while (args.points > 0 ? repeats < timed
                         : seconds_since(t0) < args.seconds) {
    const std::size_t i = repeats++ % timed;
    const Point again = run_point(config(i));
    ++executions[i];
    check(i, "repeat", again.digest);
    best_ms[i] = std::min(best_ms[i], again.ms);
    if (traced) trace_point(i);
  }
  if (!traced) {
    for (std::size_t i = 0; i < std::min<std::size_t>(3, first_pass); ++i) {
      trace_point(i);
    }
  }
  const std::size_t replay_threads = std::min(4u, nproc);
  const std::size_t replayed = std::min<std::size_t>(2, points.size());
  for (std::size_t i = 0; i < replayed; ++i) {
    core::ExperimentConfig c = config(i);
    c.threads = replay_threads;
    check(i, "threads replay", run_point(c).digest);
  }
  std::printf("# digests checked: %zu repeats, %zu traced runs, %zu points "
              "replayed at threads=%zu; %zu mismatches\n",
              repeats, traced_runs, replayed, replay_threads, mismatches);

  // Reference outcomes at the default seed, whatever --seed is.
  Outcomes ref;
  for (std::size_t i = 0; i < w.reference_points; ++i) {
    core::ExperimentResult r;
    run_point(point_config(w, kReferenceSeed, i), &r);
    ref.delivery += r.sim_delivered.mean();
    ref.transmissions += r.sim_transmissions.mean();
    ref.delay += r.sim_delay.mean();
  }
  const double nref = static_cast<double>(w.reference_points);
  ref = {ref.delivery / nref, ref.transmissions / nref, ref.delay / nref};
  const auto same = [](double got, double want) {
    return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
  };
  const bool ref_ok = same(ref.delivery, w.reference.delivery) &&
                      same(ref.transmissions, w.reference.transmissions) &&
                      same(ref.delay, w.reference.delay);
  std::printf("# reference seed=%llu points=%zu: {%.17g, %.17g, %.17g}%s\n",
              static_cast<unsigned long long>(kReferenceSeed),
              w.reference_points, ref.delivery, ref.transmissions, ref.delay,
              ref_ok ? "" : "  REFERENCE MISMATCH");
  if (!ref_ok) {
    ++mismatches;
    std::printf("# expected {%.17g, %.17g, %.17g}\n", w.reference.delivery,
                w.reference.transmissions, w.reference.delay);
  }

  // Every untraced run of a point counts as attempted, and so do the
  // reference realizations (failed on a mismatch). runs_per_s is the timed
  // set's realizations over the sum of its points' fastest times.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    attempted += executions[i] * w.runs_per_point;
    failed += executions[i] *
              (mismatched[i] ? w.runs_per_point : points[i].failed);
  }
  const std::size_t reference_runs = w.reference_points * w.runs_per_point;
  attempted += reference_runs;
  if (!ref_ok) failed += reference_runs;
  double timed_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < timed; ++i) {
    timed_s += best_ms[i] / 1e3;
    traced_s += traced_best_ms[i] / 1e3;
  }

  // Simulated outcomes over the fixed prefix.
  double delivery = 0.0, transmissions = 0.0, model_err = 0.0, delay_p99 = 0.0;
  double anonymity = 0.0;
  std::size_t anonymity_points = 0;
  for (std::size_t i = 0; i < prefix; ++i) {
    const core::ExperimentResult& r = results[i];
    delivery += r.sim_delivered.mean();
    transmissions += r.sim_transmissions.mean();
    if (r.ana_delivery.count() > 0) {
      model_err += std::fabs(r.sim_delivered.mean() - r.ana_delivery.mean());
    }
    delay_p99 += r.sim_p99_delay.mean();
    if (r.sim_anonymity.count() > 0) {
      anonymity += r.sim_anonymity.mean();
      ++anonymity_points;
    }
  }
  const double np = static_cast<double>(prefix);
  const bool loaded = w.kind == Kind::kLoadedRecovery ||
                      w.kind == Kind::kLoadedUtility;
  const bool onion = w.kind != Kind::kLoadedUtility;
  const std::vector<Metric> outcomes = {
      {"sim_anonymity",
       onion && anonymity_points > 0 ? anonymity / anonymity_points : 0.0,
       "ratio"},
      {"sim_delay_p99", loaded ? delay_p99 / np : 0.0, "min"},
      {"model_delivery_err", loaded ? 0.0 : model_err / np, "ratio"},
  };

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"setup_s", setup, "s"},
        {"runs_per_s",
         static_cast<double>(timed * w.runs_per_point) / timed_s, "1/s"},
        {"point_ms_p50", quantile(best_ms, 0.5), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_frac",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "ratio"},
        {"sim_delivery", delivery / np, "ratio"},
        {"sim_transmissions", transmissions / np, "count"},
    };
    // The tails are printed with the number of points beyond them but are
    // not benchmark metrics: the timed set is a few dozen points, too few
    // for a steady p90 on most workloads and for any p99.
    const auto tail_note = [&](double q) {
      const auto beyond = static_cast<std::size_t>(
          static_cast<double>(timed) * (1.0 - q));
      return "(points=" + std::to_string(timed) +
             ", beyond=" + std::to_string(beyond) + ")";
    };
    for (const Metric& m : metrics) {
      std::string note;
      if (m.name == "runs_per_s") {
        note = "(fastest of " + std::to_string(repeats / timed + 1) +
               "+ runs of each timed point)";
      } else if (m.name == "point_ms_p50") {
        note = tail_note(0.5);
      }
      print_metric(m, note);
    }
    print_metric({"# point_ms_p90", quantile(best_ms, 0.9), "ms"},
                 tail_note(0.9));
    print_metric({"# point_ms_p99", quantile(best_ms, 0.99), "ms"},
                 tail_note(0.99));
    std::printf("# failed_frac %.17g (failed=%zu of %zu realizations)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                failed, attempted);
    std::printf("# outcome metrics over the first %zu points:\n", prefix);
    for (const Metric& m : outcomes) print_metric(m, "(per-layer in --trace 1)");
  } else {
    const Tally& all = tracer.tally;
    const Tally& pre = prefix_tally;
    const double runs_all = static_cast<double>(std::max<std::uint64_t>(
        1, all.counts.realizations));
    const double runs_pre = static_cast<double>(std::max<std::uint64_t>(
        1, pre.counts.realizations));
    const double total_ns = static_cast<double>(std::max<std::int64_t>(
        1, all.point_ns));
    std::int64_t spans_ns = 0;
    for (std::size_t s = 0; s < kSpanCount; ++s) {
      const std::string name = kSpanNames[s];
      metrics.push_back({name + ".calls",
                         static_cast<double>(pre.calls[s]) / runs_pre,
                         "count/run"});
      metrics.push_back({name + ".ms",
                         static_cast<double>(all.self_ns[s]) / 1e6 / runs_all,
                         "ms/run"});
      metrics.push_back({name + ".share",
                         static_cast<double>(all.self_ns[s]) / total_ns,
                         "fraction"});
      spans_ns += all.self_ns[s];
    }
    metrics.push_back({"unspanned.share",
                       static_cast<double>(all.point_ns - spans_ns) / total_ns,
                       "fraction"});
    const Counts& c = pre.counts;
    const auto per_run = [&](std::uint64_t v) {
      return static_cast<double>(v) / runs_pre;
    };
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double tx = static_cast<double>(c.routing_transmissions);
    const double contacts = static_cast<double>(c.trace_contacts);
    metrics.insert(
        metrics.end(),
        {
            {"sim.contact.prepares_per_tx",
             ratio(static_cast<double>(pre.calls[kContactPrepare]), tx),
             "count/tx"},
            {"sim.contact.queries_per_tx",
             ratio(static_cast<double>(pre.calls[kContactQuery]), tx),
             "count/tx"},
            {"routing.transmissions", per_run(c.routing_transmissions),
             "count/run"},
            {"circuit.cells", per_run(c.circuit_cells), "count/run"},
            {"circuit.bytes", per_run(c.circuit_bytes), "B/run"},
            {"circuit.us_per_cell",
             ratio(static_cast<double>(all.self_ns[kRoutingRoute]) / 1e3,
                   static_cast<double>(all.counts.circuit_cells)),
             "us"},
            {"trace.contacts", per_run(c.trace_contacts), "count/run"},
            {"traffic.offered", per_run(c.traffic_offered), "count/run"},
            {"sim.network.us_per_contact",
             ratio(static_cast<double>(all.self_ns[kSimNetwork]) / 1e3,
                   static_cast<double>(all.counts.trace_contacts)),
             "us"},
            {"sim.network.transmissions", per_run(c.net_transmissions),
             "count/run"},
            {"sim.network.tx_per_contact",
             ratio(static_cast<double>(c.net_transmissions), contacts),
             "count/contact"},
            {"sim.network.buffer_rejections", per_run(c.buffer_rejections),
             "count/run"},
            {"sim.network.evicted", per_run(c.evicted), "count/run"},
            {"sim.network.expired", per_run(c.expired), "count/run"},
            {"sim.network.queue_deferred", per_run(c.queue_deferred),
             "count/run"},
            {"sim.network.contacts_saturated", per_run(c.contacts_saturated),
             "count/run"},
            {"sim.network.suppressed_contacts", per_run(c.suppressed_contacts),
             "count/run"},
            {"sim.network.transfer_failures", per_run(c.transfer_failures),
             "count/run"},
            {"sim.network.blackhole_absorbed", per_run(c.blackhole_absorbed),
             "count/run"},
            {"sim.network.crash_flushed", per_run(c.crash_flushed),
             "count/run"},
            {"recovery.acks_created", per_run(c.acks_created), "count/run"},
            {"recovery.ack_gc_copies", per_run(c.ack_gc_copies), "count/run"},
            {"recovery.acked_at_source", per_run(c.acked_at_source),
             "count/run"},
            {"recovery.retransmissions", per_run(c.retransmissions),
             "count/run"},
            {"recovery.shed", per_run(c.shed), "count/run"},
            {"recovery.suspicion_flips", per_run(c.suspicion_flips),
             "count/run"},
            {"trace.overhead_pct", ratio(traced_s - timed_s, timed_s) * 100.0,
             "%"},
        });
    metrics.insert(metrics.end(), outcomes.begin(), outcomes.end());
    for (const Metric& m : metrics) print_metric(m);
    std::printf("# %zu traced runs of points (%llu realizations); counts and "
                "calls over the first %zu points\n",
                traced_runs,
                static_cast<unsigned long long>(all.counts.realizations),
                prefix);
  }

  const bool correct = failed == 0 && mismatches == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
