#include "core/config_schema.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

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

// FIELD(path) expands to a row's canonical key and an accessor for the
// field, usable on const and non-const configs alike, so the key is the
// field path by construction.
#define FIELD(path) #path, [](auto& c) -> auto& { return c.path; }

std::vector<std::string> forms(const std::string& flag) {
  return flag.empty() ? std::vector<std::string>{} : std::vector{flag};
}

// A row holding one scalar field; `flag` is its usage form or "".
template <typename Get>
Knob scalar(std::string key, Get get, const std::string& flag,
            std::string doc, bool identity = true) {
  return {std::move(key), forms(flag), std::move(doc), identity,
          [get, name = flag_name(flag)](const util::Args& a,
                                        ExperimentConfig& c) {
            auto& v = get(c);
            v = read(a, name, v);
          },
          [get](const ExperimentConfig& c) { return canon(get(c)); }};
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
  return {"faults.gilbert_elliott",
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
}

// The flow list: --traffic-rate split evenly over --traffic-flows flows,
// each taking the config's K, L and T — so this row parses after theirs
// and after traffic.horizon.
Knob traffic_flows() {
  return {
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
      scalar(FIELD(group_size), "g=G", "onion group size g"),
      scalar(FIELD(num_relays), "K=K", "relay groups per onion path K"),
      scalar(FIELD(copies), "L=L", "message copies L"),
      scalar(FIELD(ttl), "T=T", "message deadline T"),
      scalar(FIELD(compromise_fraction), "compromised=P",
             "fraction of compromised nodes"),
      scalar(FIELD(trace_training_gap), "",
             "trace training: cap on silent gaps (0 = wall-clock rates)"),
      scalar(FIELD(runs), "runs=N", "realizations", kHarness),
      scalar(FIELD(seed), "seed=S", "run i draws from derive_seed(S, i)"),
      scalar(FIELD(threads), "threads=T",
             "worker threads (0 = all); output is the same at every T",
             kHarness),
      choice<routing::CryptoMode>(FIELD(crypto), "",
                                  "onion layers really sealed",
                                  {{"none", kNone}, {"real", kReal}}),
      choice<routing::SprayMode>(
          FIELD(spray), "", "how multi-copy messages leave the source",
          {{"direct", kDirectToFirstGroup}, {"spray-and-wait", kSprayAndWait}}),
      scalar(FIELD(collect_metrics), "", "set by --metrics-out"),
      scalar(FIELD(faults.mean_uptime), "fault-mean-uptime=U",
             "node churn: mean exponential up time"),
      scalar(FIELD(faults.mean_downtime), "fault-mean-downtime=D",
             "node churn: mean exponential down time (flushes buffers)"),
      scalar(FIELD(faults.p_fail), "fault-p-fail=P",
             "independent per-transfer failure probability"),
      gilbert_elliott(),
      scalar(FIELD(faults.blackhole_fraction), "fault-blackhole-fraction=F",
             "fraction of nodes (endpoints exempt) that never forward"),
      scalar(FIELD(faults.p_run_abort), "fault-p-run-abort=P",
             "each run throws with probability P (quarantine)"),
      scalar(FIELD(checkpoint_path), "checkpoint=FILE",
             "snapshot folded progress to FILE atomically", kHarness),
      scalar(FIELD(checkpoint_interval), "checkpoint-interval=N",
             "runs per snapshot", kHarness),
      scalar(FIELD(resume), "resume",
             "continue from --checkpoint FILE of this configuration",
             kHarness),
      scalar(FIELD(traffic.horizon), "traffic-horizon=H",
             "loaded runs: arrivals on [0, H)"),
      traffic_flows(),
      scalar(FIELD(bandwidth.messages_per_contact), "bandwidth-capacity=C",
             "loaded runs: transfers per contact (0 = unlimited)"),
      scalar(FIELD(bandwidth.mean_duration), "bandwidth-mean-duration=D",
             "loaded runs: each contact carries floor(Exp(D) / S)"),
      scalar(FIELD(bandwidth.transfer_time), "bandwidth-transfer-time=S",
             "loaded runs: time per transfer"),
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
             "utility forwarders: EWMA discount of failing receivers"),
      scalar(FIELD(recovery.acks), "ack-vaccine",
             "loaded runs: delivery ACKs garbage-collect copies"),
      scalar(FIELD(recovery.retx_timeout), "recovery-retx-timeout=T",
             "> 0: re-onion an unacked message after T"),
      scalar(FIELD(recovery.retx_max), "recovery-retx-max=N",
             "retransmissions per message"),
      scalar(FIELD(recovery.retx_backoff), "recovery-retx-backoff=B",
             "timeout multiplier per retransmission"),
      scalar(FIELD(recovery.retx_jitter), "recovery-retx-jitter=J",
             "seeded +/-J fractional jitter of each retry delay"),
      scalar(FIELD(recovery.suspicion_alpha), "recovery-suspicion-alpha=A",
             "> 0: retries avoid groups with a high EWMA of unacked sends"),
      scalar(FIELD(recovery.suspicion_threshold),
             "recovery-suspicion-threshold=S",
             "EWMA at which a relay group is suspected"),
      scalar(FIELD(recovery.shed_occupancy), "shed-occupancy=F",
             "loaded runs: shed while the source buffer is >= F full"),
      scalar(FIELD(recovery.shed_saturation), "shed-saturation=F",
             "loaded runs: shed while >= F of recent contacts saturate"),
      scalar(FIELD(recovery.shed_priority_floor), "shed-priority-floor=P",
             "only priority classes >= P are shed"),
      wire_cells(),
      scalar(FIELD(cell_size), "cell-size=N", "wire cell size in bytes"),
  };
}

#undef FIELD

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

std::string canonical_identity(const ExperimentConfig& config) {
  std::string s;
  for (const Knob& k : knobs()) {
    if (k.identity) s += "|" + k.key + "=" + k.write(config);
  }
  return s;
}

}  // namespace odtn::core
