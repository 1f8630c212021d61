#include "core/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/config_schema.hpp"
#include "metrics/writer.hpp"

namespace odtn::core {

namespace {

constexpr const char* kMagic = "odtn.checkpoint.v3";

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
  const std::string canonical = scenario_tag + canonical_identity(c);
  return fnv1a(kFnvBasis, canonical.data(), canonical.size());
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
  for (const ResultStat& f : kResultStats) {
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
    os << "metric " << name << " " << metrics::kind_name(m.kind);
    if (m.kind == metrics::Kind::kCounter) {
      os << " " << m.counter;
    } else {
      const auto& buckets = m.hist.raw_buckets();
      os << " " << m.hist.count() << " " << fmt(m.hist.sum()) << " "
         << fmt(m.hist.min()) << " " << fmt(m.hist.max()) << " "
         << buckets.size();
      for (const auto& [index, n] : buckets) {
        os << " " << index << " " << n;
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
    const bool retired =
        line == "odtn.checkpoint.v1" || line == "odtn.checkpoint.v2";
    throw std::runtime_error(
        "checkpoint: " + path +
        (retired ? " is an " + line +
                       " file, which this build no longer reads; rerun the "
                       "sweep"
                 : std::string(" is not an ") + kMagic + " file"));
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
      const ResultStat* f = std::find_if(
          std::begin(kResultStats), std::end(kResultStats),
          [&](const ResultStat& r) { return name == r.name; });
      if (f == std::end(kResultStats)) {
        throw std::runtime_error("checkpoint: unknown stat '" + name + "'");
      }
      data.result.*(f->member) = util::RunningStats::from_state(s);
    } else if (tag == "failed") {
      ExperimentResult::FailedRun fr;
      if (!(ls >> fr.run >> fr.seed)) malformed(line);
      std::getline(ls, fr.message);
      if (!fr.message.empty() && fr.message.front() == ' ') {
        fr.message.erase(fr.message.begin());
      }
      data.result.failed_runs.push_back(std::move(fr));
    } else if (tag == "metric") {
      std::string name, kind;
      if (!(ls >> name >> kind)) malformed(line);
      metrics::Registry::Metric m;
      if (kind == "counter") {
        m.kind = metrics::Kind::kCounter;
        if (!(ls >> m.counter)) malformed(line);
      } else if (kind == "histogram") {
        m.kind = metrics::Kind::kHistogram;
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
      } else {
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
