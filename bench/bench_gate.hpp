// Shared driver for the google-benchmark micro benches (micro_sim,
// micro_crypto): median capture, odtn.bench.v1 export, and the CI
// perf-regression gate.
//
// Custom flags (peeled off before google-benchmark sees argv):
//   --json=FILE               append odtn.bench.v1 records (median real
//                             time per benchmark, stamped with build type,
//                             nproc and git sha) to FILE; a baseline read
//                             back keeps each benchmark's last record
//   --baseline=FILE           committed BENCH_<figure_id>.json to compare
//                             against; adds baseline_median_real_time and
//                             regression_pct to the records
//   --max-regression-pct=N    exit 2 if any benchmark regresses by more
//                             than N percent against the baseline, or has
//                             no record there (the tools/ci.sh perf-smoke
//                             gate); needs --baseline
//
// The gate fails closed: an unwritable --json, an unreadable baseline (or
// one with no record), a band that is not a finite number >= 0, or a band
// without a baseline exits 2 with one stderr line before any benchmark
// runs.
//
// Usage: define the benchmarks, then
//   int main(int argc, char** argv) {
//     return odtn::bench_gate::run(argc, argv, "micro_crypto");
//   }
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/provenance.hpp"
#include "util/args.hpp"

namespace odtn::bench_gate {

struct Median {
  double value = 0.0;          // in `unit`
  std::string unit = "ns";
  std::int64_t repetitions = 1;
  std::map<std::string, double> counters;  // e.g. allocs_per_query
};

inline double to_ns_factor(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

// Console output passes through untouched; medians (or, without
// repetitions, the single run) are captured per benchmark name.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  std::map<std::string, Median> medians;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const std::string name = run.run_name.str();
      const bool is_median =
          run.run_type == Run::RT_Aggregate && run.aggregate_name == "median";
      // Single-repetition fallback: the lone run is its own median.
      const bool is_fallback = run.run_type != Run::RT_Aggregate &&
                               medians.find(name) == medians.end();
      if (!is_median && !is_fallback) continue;
      Median m;
      m.value = run.GetAdjustedRealTime();
      m.unit = benchmark::GetTimeUnitString(run.time_unit);
      m.repetitions = is_median ? run.repetitions : 1;
      for (const auto& [cname, counter] : run.counters) {
        m.counters[cname] = counter.value;
      }
      medians[name] = std::move(m);
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

// Minimal parser for our own odtn.bench.v1 lines: pulls "benchmark",
// "median_real_time", and "time_unit" fields.
inline bool parse_field(const std::string& line, const std::string& key,
                        std::string* out) {
  const std::string needle = "\"" + key + "\": ";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  auto end = pos;
  if (line[pos] == '"') {
    ++pos;
    end = line.find('"', pos);
  } else {
    end = line.find_first_of(",}", pos);
  }
  if (end == std::string::npos) return false;
  *out = line.substr(pos, end - pos);
  return true;
}

// An unreadable file, or one with no record, is a usage error (one line,
// exit 2): a gate against nothing would pass every benchmark.
inline std::map<std::string, Median> load_baseline(const std::string& path) {
  std::map<std::string, Median> out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "error: --baseline=%s cannot be read\n",
                 path.c_str());
    std::exit(2);
  }
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    std::string line(buf);
    std::string name, value, unit;
    if (!parse_field(line, "benchmark", &name) ||
        !parse_field(line, "median_real_time", &value)) {
      continue;
    }
    Median m;
    m.value = std::strtod(value.c_str(), nullptr);
    if (parse_field(line, "time_unit", &unit)) m.unit = unit;
    out[name] = m;
  }
  std::fclose(f);
  if (out.empty()) {
    std::fprintf(stderr, "error: --baseline=%s holds no benchmark record\n",
                 path.c_str());
    std::exit(2);
  }
  return out;
}

// Runs the registered benchmarks under the capturing reporter, exports
// odtn.bench.v1 records, and enforces the baseline gate. `figure_id` names
// the records and doubles as the tool name in diagnostics. Returns the
// process exit code (2 = a flag error, or the gate failed).
inline int run(int argc, char** argv, const std::string& figure_id) {
  // Peel driver flags; everything else goes to google-benchmark.
  std::vector<char*> gate_argv{argv[0]};
  std::vector<char*> bench_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    const bool ours = arg.rfind("--json=", 0) == 0 ||
                      arg.rfind("--baseline=", 0) == 0 ||
                      arg.rfind("--max-regression-pct=", 0) == 0;
    (ours ? gate_argv : bench_argv).push_back(argv[i]);
  }
  const util::Args args(static_cast<int>(gate_argv.size()), gate_argv.data());
  const std::string json_path = args.get_output("json");
  const std::string baseline_path = args.get("baseline", "");
  const bool gated = args.has("max-regression-pct");
  const double max_regression_pct = args.get_double("max-regression-pct", 0.0);
  if (gated && !(std::isfinite(max_regression_pct) &&
                 max_regression_pct >= 0.0)) {
    std::fprintf(stderr,
                 "error: --max-regression-pct=%s is not a finite number >= "
                 "0\n",
                 args.get("max-regression-pct", "").c_str());
    return 2;
  }
  if (gated && baseline_path.empty()) {
    std::fprintf(stderr, "error: --max-regression-pct needs --baseline\n");
    return 2;
  }
  std::map<std::string, Median> baseline;
  if (!baseline_path.empty()) baseline = load_baseline(baseline_path);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  bool regressed = false;
  std::FILE* out = nullptr;
  bench::Provenance prov;
  if (!json_path.empty()) {
    prov = bench::provenance();
    out = std::fopen(json_path.c_str(), "a");
    if (out == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", figure_id.c_str(),
                   json_path.c_str());
      return 1;
    }
  }
  for (const auto& [name, m] : reporter.medians) {
    double regression_pct = 0.0;
    bool have_base = false;
    auto it = baseline.find(name);
    if (it != baseline.end()) {
      const double base_ns = it->second.value * to_ns_factor(it->second.unit);
      const double cur_ns = m.value * to_ns_factor(m.unit);
      if (base_ns > 0.0) {
        regression_pct = (cur_ns - base_ns) / base_ns * 100.0;
        have_base = true;
        if (gated && regression_pct > max_regression_pct) {
          std::fprintf(stderr,
                       "%s: %s regressed %.2f%% vs baseline (limit %.2f%%)\n",
                       figure_id.c_str(), name.c_str(), regression_pct,
                       max_regression_pct);
          regressed = true;
        } else {
          std::fprintf(stderr, "%s: %s vs baseline: %+.2f%%\n",
                       figure_id.c_str(), name.c_str(), regression_pct);
        }
      }
    }
    if (gated && !have_base) {
      // A benchmark the band cannot judge fails it: passing would let a
      // renamed or newly gated benchmark through unmeasured.
      std::fprintf(stderr, "%s: %s has no baseline record in %s\n",
                   figure_id.c_str(), name.c_str(), baseline_path.c_str());
      regressed = true;
    }
    if (out != nullptr) {
      std::fprintf(out,
                   "{\"schema\": \"odtn.bench.v1\", \"figure_id\": "
                   "\"%s\", \"benchmark\": \"%s\", "
                   "\"median_real_time\": %.17g, \"time_unit\": \"%s\", "
                   "\"repetitions\": %lld, \"build_type\": \"%s\", "
                   "\"nproc\": %u, \"git_sha\": \"%s\"",
                   figure_id.c_str(), name.c_str(), m.value, m.unit.c_str(),
                   static_cast<long long>(m.repetitions),
                   prov.build_type.c_str(), prov.nproc, prov.git_sha.c_str());
      if (have_base) {
        std::fprintf(out,
                     ", \"baseline_median_real_time\": %.17g, "
                     "\"regression_pct\": %.2f",
                     it->second.value, regression_pct);
      }
      for (const auto& [cname, cvalue] : m.counters) {
        std::fprintf(out, ", \"%s\": %.17g", cname.c_str(), cvalue);
      }
      std::fprintf(out, "}\n");
    }
  }
  if (out != nullptr) std::fclose(out);
  return regressed ? 2 : 0;
}

}  // namespace odtn::bench_gate
