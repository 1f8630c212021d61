// Shared driver for the google-benchmark micro benches (micro_sim,
// micro_crypto): median capture, odtn.bench.v1 export, and the CI
// perf-regression gate.
//
// Custom flags (peeled off before google-benchmark sees argv):
//   --json=FILE               append odtn.bench.v1 records (median real
//                             time per benchmark) to FILE; a baseline
//                             read back keeps each benchmark's last record
//   --baseline=FILE           committed BENCH_<figure_id>.json to compare
//                             against; adds baseline_median_real_time and
//                             regression_pct to the records
//   --max-regression-pct=N    exit non-zero if any benchmark present in the
//                             baseline regresses by more than N percent
//                             (the tools/ci.sh perf-smoke gate)
//
// Usage: define the benchmarks, then
//   int main(int argc, char** argv) {
//     return odtn::bench_gate::run(argc, argv, "micro_crypto");
//   }
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

inline std::map<std::string, Median> load_baseline(const std::string& tool,
                                                   const std::string& path) {
  std::map<std::string, Median> out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot read baseline %s\n", tool.c_str(),
                 path.c_str());
    return out;
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
  return out;
}

// Runs the registered benchmarks under the capturing reporter, exports
// odtn.bench.v1 records, and enforces the baseline gate. `figure_id` names
// the records and doubles as the tool name in diagnostics. Returns the
// process exit code (2 = regression over the limit).
inline int run(int argc, char** argv, const std::string& figure_id) {
  std::string json_path, baseline_path;
  double max_regression_pct = -1.0;

  // Peel driver flags; everything else goes to google-benchmark.
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--max-regression-pct=", 0) == 0) {
      max_regression_pct = std::strtod(arg.substr(21).c_str(), nullptr);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::map<std::string, Median> baseline;
  if (!baseline_path.empty()) {
    baseline = load_baseline(figure_id, baseline_path);
  }

  bool regressed = false;
  std::FILE* out = nullptr;
  if (!json_path.empty()) {
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
        if (max_regression_pct >= 0.0 && regression_pct > max_regression_pct) {
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
    if (out != nullptr) {
      std::fprintf(out,
                   "{\"schema\": \"odtn.bench.v1\", \"figure_id\": "
                   "\"%s\", \"benchmark\": \"%s\", "
                   "\"median_real_time\": %.17g, \"time_unit\": \"%s\", "
                   "\"repetitions\": %lld",
                   figure_id.c_str(), name.c_str(), m.value, m.unit.c_str(),
                   static_cast<long long>(m.repetitions));
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
