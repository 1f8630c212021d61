#include "core/checkpoint.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "metrics/writer.hpp"

namespace odtn::core {

namespace {

constexpr const char* kMagic = "odtn.checkpoint.v1";

struct StatField {
  const char* name;
  util::RunningStats ExperimentResult::*member;
};

constexpr StatField kStatFields[] = {
    {"sim_delivered", &ExperimentResult::sim_delivered},
    {"sim_delay", &ExperimentResult::sim_delay},
    {"sim_transmissions", &ExperimentResult::sim_transmissions},
    {"sim_traceable", &ExperimentResult::sim_traceable},
    {"sim_anonymity", &ExperimentResult::sim_anonymity},
    {"ana_delivery", &ExperimentResult::ana_delivery},
    {"ana_traceable_paper", &ExperimentResult::ana_traceable_paper},
    {"ana_traceable_exact", &ExperimentResult::ana_traceable_exact},
    {"ana_anonymity", &ExperimentResult::ana_anonymity},
    {"ana_cost_bound", &ExperimentResult::ana_cost_bound},
    {"ana_cost_non_anonymous", &ExperimentResult::ana_cost_non_anonymous},
    // Loaded-traffic stats (appended in PR 7; the loader tolerates their
    // absence from older checkpoint files, which zero-traffic configs can
    // still resume from).
    {"sim_throughput", &ExperimentResult::sim_throughput},
    {"sim_p99_delay", &ExperimentResult::sim_p99_delay},
};

std::string fmt(double v) { return metrics::format_double(v); }

/// Exact inverse of format_double: from_chars of a shortest-round-trip
/// string recovers the identical double (correctly-rounded, locale-free).
double parse_double(const std::string& token, const std::string& context) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  double v = 0.0;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end || token.empty()) {
    throw std::runtime_error("checkpoint: bad number '" + token + "' in " +
                             context);
  }
  return v;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

// FNV-1a over `size` bytes at `data`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(kFnvBasis, s.data(), s.size());
}

template <typename T>
std::uint64_t fold(std::uint64_t h, T v) {
  return fnv1a(h, &v, sizeof v);
}

[[noreturn]] void malformed(const std::string& line) {
  throw std::runtime_error("checkpoint: malformed line '" + line + "'");
}

}  // namespace

std::uint64_t checkpoint_config_hash(const ExperimentConfig& c,
                                     const std::string& scenario_tag) {
  std::ostringstream os;
  os << scenario_tag << "|nodes=" << c.nodes << "|min_ict=" << fmt(c.min_ict)
     << "|max_ict=" << fmt(c.max_ict)
     << "|backend=" << static_cast<int>(c.backend)
     << "|deg=" << c.avg_degree << "|comm=" << c.communities
     << "|shards=" << c.group_shards << "|g=" << c.group_size
     << "|K=" << c.num_relays << "|L=" << c.copies << "|ttl=" << fmt(c.ttl)
     << "|p=" << fmt(c.compromise_fraction)
     << "|gap=" << fmt(c.trace_training_gap) << "|seed=" << c.seed
     << "|crypto=" << static_cast<int>(c.crypto)
     << "|spray=" << static_cast<int>(c.spray)
     << "|metrics=" << (c.collect_metrics ? 1 : 0)
     << "|f.up=" << fmt(c.faults.mean_uptime)
     << "|f.down=" << fmt(c.faults.mean_downtime)
     << "|f.pfail=" << fmt(c.faults.p_fail);
  if (c.faults.gilbert_elliott.has_value()) {
    const auto& ge = *c.faults.gilbert_elliott;
    os << "|f.ge=" << fmt(ge.p_good_to_bad) << "," << fmt(ge.p_bad_to_good)
       << "," << fmt(ge.p_fail_good) << "," << fmt(ge.p_fail_bad);
  }
  os << "|f.bh=" << fmt(c.faults.blackhole_fraction)
     << "|f.abort=" << fmt(c.faults.p_run_abort);
  // Traffic/load fields are appended only when the workload engine is on,
  // preserving every pre-traffic config hash (zero-knob configs resume
  // from checkpoints written by older builds).
  if (c.traffic.enabled()) {
    os << "|t.h=" << fmt(c.traffic.horizon)
       << "|t.fwd=" << static_cast<int>(c.load_forwarder)
       << "|t.cap=" << c.buffer_capacity
       << "|t.pol=" << static_cast<int>(c.buffer_policy)
       << "|t.bw=" << c.bandwidth.messages_per_contact << ","
       << fmt(c.bandwidth.mean_duration) << ","
       << fmt(c.bandwidth.transfer_time);
    for (const auto& f : c.traffic.flows) {
      os << "|t.flow=" << static_cast<int>(f.arrival) << "," << fmt(f.rate)
         << "," << fmt(f.burst_factor) << "," << fmt(f.mean_burst) << ","
         << fmt(f.mean_idle) << "," << static_cast<int>(f.priority) << ","
         << f.src_lo << "," << f.src_hi << "," << f.dst_lo << "," << f.dst_hi
         << "," << f.num_relays << "," << f.copies << "," << fmt(f.ttl);
    }
  }
  // Recovery fields follow the same append-only-when-enabled pattern:
  // zero-knob configs hash identically to builds without the layer.
  if (c.recovery.enabled()) {
    const auto& r = c.recovery;
    os << "|r.ack=" << (r.acks ? 1 : 0) << "|r.to=" << fmt(r.retx_timeout)
       << "|r.max=" << r.retx_max << "|r.bo=" << fmt(r.retx_backoff)
       << "|r.j=" << fmt(r.retx_jitter) << "|r.sa=" << fmt(r.suspicion_alpha)
       << "|r.st=" << fmt(r.suspicion_threshold)
       << "|r.so=" << fmt(r.shed_occupancy)
       << "|r.ss=" << fmt(r.shed_saturation)
       << "|r.sp=" << static_cast<int>(r.shed_priority_floor);
  }
  if (c.utility_failure_penalty > 0.0) {
    os << "|r.ufp=" << fmt(c.utility_failure_penalty);
  }
  // Wire-accurate circuit fields: same append-only-when-enabled pattern,
  // so wire-off configs keep every pre-circuit hash.
  if (c.wire_cells) {
    os << "|w.cells=1|w.cs=" << c.cell_size;
  }
  return fnv1a(os.str());
}

std::string trace_scenario_tag(const trace::ContactTrace& trace) {
  std::uint64_t h = fold(kFnvBasis, trace.node_count());
  for (const trace::ContactEvent& e : trace.events()) {
    h = fold(fold(fold(h, e.time), e.a), e.b);
  }
  return "trace#" + std::to_string(h);
}

std::string trace_scenario_tag(const trace::SparseTraceSummary& summary) {
  std::uint64_t h =
      fold(fold(kFnvBasis, summary.node_count), summary.start_time);
  for (NodeId i = 0; i < summary.node_count; ++i) {
    for (NodeId j : summary.rates.neighbor_ids(i)) h = fold(h, j);
    for (double r : summary.rates.neighbor_rates(i)) h = fold(h, r);
  }
  return "sparse_trace#" + std::to_string(h);
}

void save_checkpoint(const std::string& path, std::uint64_t config_hash,
                     const CheckpointData& data) {
  const ExperimentResult& r = data.result;
  std::ostringstream os;
  os << kMagic << "\n";
  os << "hash " << config_hash << "\n";
  os << "completed " << data.completed_runs << "\n";
  os << "delivered_runs " << r.delivered_runs << "\n";
  for (const StatField& f : kStatFields) {
    util::RunningStats::State s = (r.*(f.member)).state();
    os << "stat " << f.name << " " << s.n << " " << fmt(s.mean) << " "
       << fmt(s.m2) << " " << fmt(s.min) << " " << fmt(s.max) << "\n";
  }
  for (const ExperimentResult::FailedRun& fr : r.failed_runs) {
    std::string msg = fr.message;
    for (char& ch : msg) {
      if (ch == '\n' || ch == '\r') ch = ' ';
    }
    os << "failed " << fr.run << " " << fr.seed << " " << msg << "\n";
  }
  for (const auto& [name, m] : r.metrics.entries()) {
    os << "metric " << name << " " << static_cast<int>(m.kind) << " "
       << static_cast<int>(m.stability);
    switch (m.kind) {
      case metrics::Kind::kCounter:
        os << " " << m.counter;
        break;
      case metrics::Kind::kGauge:
        os << " " << (m.gauge_set ? 1 : 0) << " " << fmt(m.gauge);
        break;
      case metrics::Kind::kHistogram:
      case metrics::Kind::kTimer: {
        const auto& buckets = m.hist.raw_buckets();
        os << " " << m.hist.count() << " " << fmt(m.hist.sum()) << " "
           << fmt(m.hist.min()) << " " << fmt(m.hist.max()) << " "
           << buckets.size();
        for (const auto& [index, n] : buckets) {
          os << " " << index << " " << n;
        }
        break;
      }
    }
    os << "\n";
  }
  os << "end\n";

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot open " + tmp +
                               " for writing");
    }
    out << os.str();
    out.flush();
    if (!out) throw std::runtime_error("checkpoint: write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
  }
}

std::optional<CheckpointData> load_checkpoint(const std::string& path,
                                              std::uint64_t config_hash) {
  std::ifstream in(path);
  if (!in) return std::nullopt;  // nothing to resume from

  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error("checkpoint: " + path +
                             " is not an odtn.checkpoint.v1 file");
  }

  CheckpointData data;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "hash") {
      std::uint64_t h = 0;
      if (!(ls >> h)) malformed(line);
      if (h != config_hash) {
        throw std::runtime_error(
            "checkpoint: " + path +
            " was written by a different experiment configuration");
      }
    } else if (tag == "completed") {
      if (!(ls >> data.completed_runs)) malformed(line);
    } else if (tag == "delivered_runs") {
      if (!(ls >> data.result.delivered_runs)) malformed(line);
    } else if (tag == "stat") {
      std::string name, mean, m2, mn, mx;
      util::RunningStats::State s;
      if (!(ls >> name >> s.n >> mean >> m2 >> mn >> mx)) malformed(line);
      s.mean = parse_double(mean, line);
      s.m2 = parse_double(m2, line);
      s.min = parse_double(mn, line);
      s.max = parse_double(mx, line);
      bool known = false;
      for (const StatField& f : kStatFields) {
        if (name == f.name) {
          data.result.*(f.member) = util::RunningStats::from_state(s);
          known = true;
          break;
        }
      }
      if (!known) {
        throw std::runtime_error("checkpoint: unknown stat '" + name + "'");
      }
    } else if (tag == "failed") {
      ExperimentResult::FailedRun fr;
      if (!(ls >> fr.run >> fr.seed)) malformed(line);
      std::getline(ls, fr.message);
      if (!fr.message.empty() && fr.message.front() == ' ') {
        fr.message.erase(fr.message.begin());
      }
      data.result.failed_runs.push_back(std::move(fr));
    } else if (tag == "metric") {
      std::string name;
      int kind_i = 0, stability_i = 0;
      if (!(ls >> name >> kind_i >> stability_i)) malformed(line);
      metrics::Registry::Metric m;
      m.kind = static_cast<metrics::Kind>(kind_i);
      m.stability = static_cast<metrics::Stability>(stability_i);
      switch (m.kind) {
        case metrics::Kind::kCounter:
          if (!(ls >> m.counter)) malformed(line);
          break;
        case metrics::Kind::kGauge: {
          int set = 0;
          std::string value;
          if (!(ls >> set >> value)) malformed(line);
          m.gauge_set = (set != 0);
          m.gauge = parse_double(value, line);
          break;
        }
        case metrics::Kind::kHistogram:
        case metrics::Kind::kTimer: {
          std::uint64_t count = 0;
          std::string sum, mn, mx;
          std::size_t n_buckets = 0;
          if (!(ls >> count >> sum >> mn >> mx >> n_buckets)) malformed(line);
          std::map<int, std::uint64_t> buckets;
          for (std::size_t i = 0; i < n_buckets; ++i) {
            int index = 0;
            std::uint64_t n = 0;
            if (!(ls >> index >> n)) malformed(line);
            buckets[index] = n;
          }
          m.hist = metrics::Histogram::from_state(
              count, parse_double(sum, line), parse_double(mn, line),
              parse_double(mx, line), std::move(buckets));
          break;
        }
        default:
          malformed(line);
      }
      data.result.metrics.restore(name, m);
    } else {
      malformed(line);
    }
  }
  if (!saw_end) {
    throw std::runtime_error("checkpoint: " + path +
                             " is truncated (no end marker)");
  }
  return data;
}

}  // namespace odtn::core
