#include "core/config_schema.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "circuit/cell.hpp"
#include "groups/group_directory.hpp"
#include "metrics/writer.hpp"

namespace odtn::core {

namespace {

std::string flag_name(const std::string& form) {
  return form.substr(0, form.find('='));
}

template <typename T>
std::string canon(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_floating_point_v<T>) {
    return metrics::format_double(v);
  } else {
    return std::to_string(v);
  }
}

template <typename T>
T read(const util::Args& args, const std::string& name, const T& def) {
  if constexpr (std::is_same_v<T, bool>) {
    return args.get_bool(name, def);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return args.get(name, def);
  } else if constexpr (std::is_floating_point_v<T>) {
    return args.get_double(name, def);
  } else {
    return static_cast<T>(
        args.get_unsigned(name, def, std::numeric_limits<T>::max()));
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
const Range kUnit{0.0, 1.0};
Range at_least(double lo) { return {lo, kInf, false, true}; }
Range above(double lo) { return {lo, kInf, true, true}; }

// Throws the row's one-line error when `v` is outside `range`; a label is
// "--flag (key)".
void require(const Range& range, double v, const std::string& label) {
  if (!range.contains(v)) {
    throw std::invalid_argument(label + " must be in " + range.text());
  }
}

std::string label(const Knob& k) {
  return "--" + flag_name(k.flags.at(0)) + " (" + k.key + ")";
}

// FIELD(path) expands to a row's canonical key and an accessor for the
// field, usable on const and non-const configs alike, so the key is the
// field path by construction.
#define FIELD(path) #path, [](auto& c) -> auto& { return c.path; }

std::vector<std::string> forms(const std::string& flag) {
  return flag.empty() ? std::vector<std::string>{} : std::vector{flag};
}

// A row holding one scalar field; `flag` is its usage form or "". A
// ranged row needs a flag, which its error names.
template <typename Get>
Knob scalar(std::string key, Get get, const std::string& flag,
            std::string doc, std::optional<Range> range = {},
            bool identity = true) {
  Knob k{std::move(key), forms(flag), std::move(doc), identity,
         [get, name = flag_name(flag)](const util::Args& a,
                                       ExperimentConfig& c) {
           auto& v = get(c);
           v = read(a, name, v);
         },
         [get](const ExperimentConfig& c) { return canon(get(c)); }};
  using T =
      std::remove_cvref_t<decltype(get(std::declval<ExperimentConfig&>()))>;
  if constexpr (std::is_arithmetic_v<T>) {
    if (range) {
      range->integral = std::is_integral_v<T>;
      k.range = range;
      k.check = [get, r = *range, l = label(k)](const ExperimentConfig& c) {
        require(r, static_cast<double>(get(c)), l);
      };
    }
  }
  return k;
}

// A row holding one enum field, parsed and written by name.
template <typename E, typename Get>
Knob choice(std::string key, Get get, const std::string& flag,
            std::string doc, std::vector<std::pair<std::string, E>> names) {
  std::string hint, list;
  for (std::size_t i = 0; i < names.size(); ++i) {
    hint += (i == 0 ? "" : "|") + names[i].first;
    list += (i == 0 ? "" : i + 1 == names.size() ? " or " : ", ") +
            names[i].first;
  }
  return {std::move(key), forms(flag.empty() ? "" : flag + "=" + hint),
          std::move(doc), true,
          [get, flag, list, names](const util::Args& a, ExperimentConfig& c) {
            if (!a.has(flag)) return;
            const auto it = std::find_if(
                names.begin(), names.end(),
                [&](const auto& n) { return n.first == a.get(flag, ""); });
            if (it == names.end()) {
              throw std::invalid_argument("--" + flag + " must be " + list);
            }
            get(c) = it->second;
          },
          [get, names](const ExperimentConfig& c) {
            for (const auto& [name, e] : names) {
              if (e == get(c)) return name;
            }
            return std::string("?");
          }};
}

Knob gilbert_elliott() {
  Knob k{"faults.gilbert_elliott",
          {"fault-ge=pgb:pbg:pfg:pfb"},
          "per-link Gilbert-Elliott loss chain; overrides --fault-p-fail",
          true,
          [](const util::Args& a, ExperimentConfig& c) {
            const std::string value = a.get("fault-ge", "");
            if (value.empty()) return;
            faults::GilbertElliott ge;
            char rest = 0;
            if (std::sscanf(value.c_str(), "%lf:%lf:%lf:%lf%c",
                            &ge.p_good_to_bad, &ge.p_bad_to_good,
                            &ge.p_fail_good, &ge.p_fail_bad, &rest) != 4) {
              throw std::invalid_argument("--fault-ge expects pgb:pbg:pfg:pfb");
            }
            c.faults.gilbert_elliott = ge;
          },
          [](const ExperimentConfig& c) {
            const auto& ge = c.faults.gilbert_elliott;
            if (!ge) return std::string("none");
            return canon(ge->p_good_to_bad) + ":" + canon(ge->p_bad_to_good) +
                   ":" + canon(ge->p_fail_good) + ":" + canon(ge->p_fail_bad);
          }};
  k.check = [l = label(k)](const ExperimentConfig& c) {
    if (const auto& ge = c.faults.gilbert_elliott) {
      for (double p : {ge->p_good_to_bad, ge->p_bad_to_good, ge->p_fail_good,
                       ge->p_fail_bad}) {
        require(kUnit, p, l);
      }
    }
  };
  return k;
}

// The flow list: --traffic-rate split evenly over --traffic-flows flows,
// each taking the config's K, L and T — so this row parses after theirs
// and after traffic.horizon. Its check is TrafficConfig::validate, which
// TrafficPlan also runs for flows built in code.
Knob traffic_flows() {
  Knob k{
      "traffic.flows",
      {"traffic-rate=R", "traffic-flows=F",
       "traffic-arrival=poisson|deterministic|mmpp", "traffic-burst-factor=B",
       "traffic-priorities=P0,P1,..."},
      "loaded runs: R msgs/time over F flows (1), classes cycled (0)",
      true,
      [](const util::Args& a, ExperimentConfig& c) {
        const double rate = a.get_double("traffic-rate", 0.0);
        const std::uint64_t flows = a.get_unsigned("traffic-flows", 1);
        traffic::FlowConfig flow{
            .arrival =
                traffic::parse_arrival(a.get("traffic-arrival", "poisson")),
            .burst_factor = a.get_double("traffic-burst-factor", 4.0),
            .num_relays = c.num_relays,
            .copies = c.copies,
            .ttl = c.ttl};
        const auto priorities =
            a.get_unsigned_list("traffic-priorities", "0", 255);
        if (rate <= 0.0 && c.traffic.horizon <= 0.0) return;
        if (flows == 0 || rate <= 0.0 || c.traffic.horizon <= 0.0) {
          throw std::invalid_argument(
              "traffic needs --traffic-rate > 0, --traffic-horizon > 0 and "
              "--traffic-flows >= 1");
        }
        flow.rate = rate / static_cast<double>(flows);
        c.traffic.flows.clear();
        for (std::uint64_t f = 0; f < flows; ++f) {
          flow.priority =
              static_cast<std::uint8_t>(priorities[f % priorities.size()]);
          c.traffic.flows.push_back(flow);
        }
      },
      [](const ExperimentConfig& c) {
        std::ostringstream os;
        for (const traffic::FlowConfig& f : c.traffic.flows) {
          os << traffic::arrival_name(f.arrival) << ',' << canon(f.rate) << ','
             << canon(f.burst_factor) << ',' << canon(f.mean_burst) << ','
             << canon(f.mean_idle) << ',' << int{f.priority} << ',' << f.src_lo
             << ',' << f.src_hi << ',' << f.dst_lo << ',' << f.dst_hi << ','
             << f.num_relays << ',' << f.copies << ',' << canon(f.ttl) << ';';
        }
        return os.str();
      }};
  k.check = [](const ExperimentConfig& c) { c.traffic.validate(c.nodes); };
  return k;
}

// Wire mode fragments real sealed packets: there is no simulated-crypto
// cell stream, so switching it on implies real crypto.
Knob wire_cells() {
  Knob k = scalar(FIELD(wire_cells), "wire-cells",
                  "split each contact crossing into sealed cells; real crypto");
  k.parse = [parse = k.parse](const util::Args& a, ExperimentConfig& c) {
    parse(a, c);
    if (c.wire_cells) c.crypto = routing::CryptoMode::kReal;
  };
  return k;
}

std::vector<Knob> make_knobs() {
  using enum ContactBackend;
  using enum LoadForwarder;
  using enum routing::CryptoMode;
  using enum routing::SprayMode;
  using enum sim::BufferPolicy;
  const bool kHarness = false;
  return {
      scalar(FIELD(nodes), "n=N", "nodes"),
      scalar(FIELD(min_ict), "", "least mean inter-contact time of a pair"),
      scalar(FIELD(max_ict), "", "most mean inter-contact time of a pair"),
      choice<ContactBackend>(FIELD(backend), "contact-backend",
                             "contact rates: O(n^2) graph, or CSR at scale",
                             {{"dense", kDense}, {"sparse", kSparse}}),
      scalar(FIELD(avg_degree), "avg-degree=D",
             "sparse graphs: mean contact degree (0 = complete graph)"),
      scalar(FIELD(communities), "communities=C",
             "sparse graphs: community blocks (0 = one)"),
      scalar(FIELD(group_shards), "group-shards=S",
             "group directory permuted per shard (0 = one permutation)"),
      scalar(FIELD(group_size), "g=G", "onion group size g", at_least(1)),
      scalar(FIELD(num_relays), "K=K", "relay groups per onion path K"),
      scalar(FIELD(copies), "L=L", "message copies L", at_least(1)),
      scalar(FIELD(ttl), "T=T", "message deadline T", above(0)),
      scalar(FIELD(compromise_fraction), "compromised=P",
             "fraction of compromised nodes", kUnit),
      scalar(FIELD(trace_training_gap), "",
             "trace training: cap on silent gaps (0 = wall-clock rates)"),
      scalar(FIELD(runs), "runs=N", "realizations", at_least(1), kHarness),
      scalar(FIELD(seed), "seed=S", "run i draws from derive_seed(S, i)"),
      scalar(FIELD(threads), "threads=T",
             "worker threads (0 = all); output is the same at every T",
             {}, kHarness),
      choice<routing::CryptoMode>(FIELD(crypto), "",
                                  "onion layers really sealed",
                                  {{"none", kNone}, {"real", kReal}}),
      choice<routing::SprayMode>(
          FIELD(spray), "", "how multi-copy messages leave the source",
          {{"direct", kDirectToFirstGroup}, {"spray-and-wait", kSprayAndWait}}),
      scalar(FIELD(collect_metrics), "", "set by --metrics-out"),
      scalar(FIELD(faults.mean_uptime), "fault-mean-uptime=U",
             "node churn: mean exponential up time", at_least(0)),
      scalar(FIELD(faults.mean_downtime), "fault-mean-downtime=D",
             "node churn: mean exponential down time (flushes buffers)",
             at_least(0)),
      scalar(FIELD(faults.p_fail), "fault-p-fail=P",
             "independent per-transfer failure probability", kUnit),
      gilbert_elliott(),
      scalar(FIELD(faults.blackhole_fraction), "fault-blackhole-fraction=F",
             "fraction of nodes (endpoints exempt) that never forward", kUnit),
      scalar(FIELD(faults.p_run_abort), "fault-p-run-abort=P",
             "each run throws with probability P (quarantine)", kUnit),
      scalar(FIELD(checkpoint_path), "checkpoint=FILE",
             "snapshot folded progress to FILE atomically", {}, kHarness),
      scalar(FIELD(checkpoint_interval), "checkpoint-interval=N",
             "runs per snapshot", {}, kHarness),
      scalar(FIELD(resume), "resume",
             "continue from --checkpoint FILE of this configuration",
             {}, kHarness),
      scalar(FIELD(traffic.horizon), "traffic-horizon=H",
             "loaded runs: arrivals on [0, H)"),
      traffic_flows(),
      scalar(FIELD(bandwidth.messages_per_contact), "bandwidth-capacity=C",
             "loaded runs: transfers per contact (0 = unlimited)"),
      scalar(FIELD(bandwidth.mean_duration), "bandwidth-mean-duration=D",
             "loaded runs: each contact carries floor(Exp(D) / S)",
             at_least(0)),
      scalar(FIELD(bandwidth.transfer_time), "bandwidth-transfer-time=S",
             "loaded runs: time per transfer", at_least(0)),
      scalar(FIELD(buffer_capacity), "buffer-capacity=B",
             "loaded runs: buffer slots per node (0 = unlimited)"),
      choice<sim::BufferPolicy>(
          FIELD(buffer_policy), "buffer-policy",
          "loaded runs: when a buffer is full",
          {{"reject-new", kRejectNew}, {"drop-oldest", kDropOldest}}),
      choice<LoadForwarder>(FIELD(load_forwarder), "load-forwarder",
                            "loaded runs: forwarding family",
                            {{"onion", kOnion},
                             {"utility", kUtility},
                             {"spray-blind", kSprayBlind}}),
      scalar(FIELD(utility_failure_penalty), "utility-failure-penalty=P",
             "utility forwarders: EWMA discount of failing receivers", kUnit),
      scalar(FIELD(recovery.acks), "ack-vaccine",
             "loaded runs: delivery ACKs garbage-collect copies"),
      scalar(FIELD(recovery.retx_timeout), "recovery-retx-timeout=T",
             "> 0: re-onion an unacked message after T", at_least(0)),
      scalar(FIELD(recovery.retx_max), "recovery-retx-max=N",
             "retransmissions per message"),
      scalar(FIELD(recovery.retx_backoff), "recovery-retx-backoff=B",
             "timeout multiplier per retransmission", at_least(1)),
      scalar(FIELD(recovery.retx_jitter), "recovery-retx-jitter=J",
             "seeded +/-J fractional jitter of each retry delay",
             Range{.lo = 0.0, .hi = 1.0, .hi_open = true}),
      scalar(FIELD(recovery.suspicion_alpha), "recovery-suspicion-alpha=A",
             "> 0: retries avoid groups with a high EWMA of unacked sends",
             kUnit),
      scalar(FIELD(recovery.suspicion_threshold),
             "recovery-suspicion-threshold=S",
             "EWMA at which a relay group is suspected",
             Range{.lo = 0.0, .hi = 1.0, .lo_open = true}),
      scalar(FIELD(recovery.shed_occupancy), "shed-occupancy=F",
             "loaded runs: shed while the source buffer is >= F full", kUnit),
      scalar(FIELD(recovery.shed_saturation), "shed-saturation=F",
             "loaded runs: shed while >= F of recent contacts saturate", kUnit),
      scalar(FIELD(recovery.shed_priority_floor), "shed-priority-floor=P",
             "only priority classes >= P are shed"),
      wire_cells(),
      scalar(FIELD(cell_size), "cell-size=N", "wire cell size in bytes",
             Range{circuit::kMinCellSize, circuit::kMaxCellSize}),
  };
}

#undef FIELD

// The node count a run's group directory is built over: --n, or the
// trace's. Empty for a scenario its own check refuses (a null trace,
// fewer than two streamed nodes), which is left to that check.
std::optional<std::size_t> scenario_nodes(const ExperimentConfig& c,
                                          const Scenario& s) {
  if (const auto* t = std::get_if<TraceScenario>(&s)) {
    if (t->trace == nullptr) return std::nullopt;
    return t->trace->node_count();
  }
  if (const auto* t = std::get_if<SparseTraceScenario>(&s)) {
    if (t->nodes < 2) return std::nullopt;
    return t->nodes;
  }
  return c.nodes;
}

// Whether a run's K relay groups cannot be drawn from a directory over n
// nodes: an onion path needs K >= 1, and select_relay_groups throws when
// K exceeds the directory's group count. Unloaded runs draw the config's
// K, onion-loaded runs each flow's, utility forwarders none.
bool bad_relay_count(const ExperimentConfig& c, std::optional<std::size_t> n) {
  std::vector<std::size_t> ks;
  if (!c.traffic.enabled()) {
    ks.push_back(c.num_relays);
  } else if (c.load_forwarder == LoadForwarder::kOnion) {
    for (const auto& f : c.traffic.flows) ks.push_back(f.num_relays);
  }
  if (ks.empty()) return false;
  const auto [lo, hi] = std::minmax_element(ks.begin(), ks.end());
  if (*lo == 0) return true;
  if (!n) return false;
  // One shard holds the unsharded directory's ceil(n/g) groups.
  const std::size_t shards = std::max<std::size_t>(c.group_shards, 1);
  return *hi > groups::GroupDirectory(*n, c.group_size,
                                      groups::GroupDirectory::Sharded{shards, 0})
                   .group_count();
}

// Sparse complete graphs store n(n-1)/2 edges explicitly; past a few
// thousand nodes that is strictly worse than the dense triangle.
constexpr std::size_t kSparseCompleteGraphCap = 5000;

template <typename S>
bool is(const Scenario& s) {
  return std::holds_alternative<S>(s);
}

bool accepts(const Knob& k, const std::vector<std::string>& flags) {
  return std::any_of(k.flags.begin(), k.flags.end(), [&](const auto& f) {
    return std::find(flags.begin(), flags.end(), flag_name(f)) != flags.end();
  });
}

}  // namespace

ExperimentConfig entry_defaults() {
  ExperimentConfig config;
  config.runs = 200;
  config.threads = 0;
  return config;
}

const std::vector<Knob>& knobs() {
  static const std::vector<Knob> kKnobs = make_knobs();
  return kKnobs;
}

std::vector<std::string> knob_flags() {
  std::vector<std::string> names;
  for (const Knob& k : knobs()) {
    for (const std::string& f : k.flags) names.push_back(flag_name(f));
  }
  return names;
}

void parse_knobs(const util::Args& args, ExperimentConfig& config,
                 const std::vector<std::string>& flags) {
  for (const Knob& k : knobs()) {
    if (accepts(k, flags)) k.parse(args, config);
  }
}

std::string knob_usage(const ExperimentConfig& defaults,
                       const std::vector<std::string>& flags) {
  std::ostringstream os;
  for (const Knob& k : knobs()) {
    if (!accepts(k, flags)) continue;
    for (const std::string& f : k.flags) os << "  --" << f << "\n";
    const std::string value = k.write(defaults);
    os << "      " << k.doc << (value.empty() ? "" : " [" + value + "]")
       << "\n";
  }
  return os.str();
}

std::string Range::text() const {
  return (lo_open ? "(" : "[") + metrics::format_double(lo) + ", " +
         metrics::format_double(hi) + (hi_open ? ")" : "]");
}

void check_knobs(const ExperimentConfig& config) {
  for (const Knob& k : knobs()) {
    if (k.check) k.check(config);
  }
}

// The rules that relate two knobs, or a knob and the scenario, one line
// each: the broken combination, then its refusal. Every value is already
// in its row's range.
void check_cross_rules(const ExperimentConfig& c, const Scenario& s) {
  const auto rule = [](bool broken, const char* message) {
    if (broken) throw std::invalid_argument(message);
  };
  const bool dense = c.backend == ContactBackend::kDense;
  const bool loaded = c.traffic.enabled();
  const bool onion = c.load_forwarder == LoadForwarder::kOnion;
  rule(c.resume && c.checkpoint_path.empty(),
       "--resume requires --checkpoint=FILE");
  rule(dense && (c.avg_degree != 0 || c.communities != 0),
       "--avg-degree and --communities require --contact-backend=sparse");
  rule(dense && is<SparseTraceScenario>(s),
       "a streamed trace requires --contact-backend=sparse");
  rule(!dense && is<TraceScenario>(s),
       "an in-memory trace runs on the dense backend; stream it under "
       "--contact-backend=sparse");
  rule(!dense && is<RandomGraphScenario>(s) && c.avg_degree == 0 &&
           c.nodes > kSparseCompleteGraphCap,
       "--contact-backend=sparse: sparse complete graph capped at 5000 "
       "nodes; set --avg-degree for larger networks");
  rule(c.communities != 0 && c.avg_degree == 0,
       "--communities requires --avg-degree > 0");
  rule((c.faults.mean_uptime > 0.0) != (c.faults.mean_downtime > 0.0),
       "--fault-mean-uptime and --fault-mean-downtime must be set together");
  rule((c.bandwidth.mean_duration > 0.0) != (c.bandwidth.transfer_time > 0.0),
       "--bandwidth-mean-duration and --bandwidth-transfer-time must be set "
       "together");
  rule(c.recovery.retx_timeout > 0.0 && c.recovery.retx_max == 0,
       "--recovery-retx-max must be >= 1 when --recovery-retx-timeout > 0");
  rule(c.recovery.suspicion_alpha > 0.0 && c.recovery.retx_timeout <= 0.0,
       "--recovery-suspicion-alpha learns from retransmission timeouts; it "
       "requires --recovery-retx-timeout > 0");
  rule(c.utility_failure_penalty > 0.0 && onion,
       "--utility-failure-penalty requires --load-forwarder=utility or "
       "spray-blind");
  rule(!loaded && (c.bandwidth.enabled() || c.buffer_capacity != 0 || !onion),
       "--bandwidth-*, --buffer-capacity and --load-forwarder require "
       "--traffic-* flows");
  rule(!loaded && (c.recovery.acks || c.recovery.shedding()),
       "--ack-vaccine and --shed-* require --traffic-* flows");
  rule(loaded && !is<RandomGraphScenario>(s),
       "--traffic-* workloads run on random-graph scenarios only");
  rule(c.wire_cells && c.crypto != routing::CryptoMode::kReal,
       "--wire-cells fragments real sealed packets; it requires real crypto");
  // The directory's bounds, ahead of the K rule that builds one.
  const std::optional<std::size_t> n = scenario_nodes(c, s);
  const std::size_t shards = std::max<std::size_t>(c.group_shards, 1);
  rule(n && *n < 2,
       "--n must be >= 2: a message needs a source and a distinct "
       "destination");
  rule(n && c.group_size > *n, "--g must be <= the node count (--n)");
  rule(n && shards > *n, "--group-shards must be <= the node count (--n)");
  rule(n && (*n + shards - 1) / shards < c.group_size,
       "--group-shards leaves shards smaller than --g: ceil(n / shards) "
       "must be >= g");
  rule(bad_relay_count(c, n),
       "--K must be in [1, the directory's group count]: ceil(n/g), or per "
       "shard under --group-shards");
}

std::string canonical_identity(const ExperimentConfig& config) {
  std::string s;
  for (const Knob& k : knobs()) {
    if (k.identity) s += "|" + k.key + "=" + k.write(config);
  }
  return s;
}

}  // namespace odtn::core
