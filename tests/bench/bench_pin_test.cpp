// Byte-identity pins for the 16 figure and 15 ablation benches: each bench,
// run at a small --runs at --threads=1 and at --threads=4, must reproduce
// its section of data/bench_pins.txt exactly. A section is the bench's
// stdout minus the timing and thread-count lines, followed, for a bench
// that exports metrics, by the FNV-1a digest and size of its --metrics-out
// file. So any drift in a figure table, a banner, the run order or a
// metric fold fails here.
//
// On a mismatch the test writes the section it got to
// pin_<bench>_t<threads>.actual in its working directory; after an
// intended output change, the new golden file is those sections
// concatenated in kCases order.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "support/fnv1a.hpp"

namespace {

struct Case {
  const char* bench;
  const char* args;
  bool metrics;  // takes --metrics-out (everything run_experiment drives)
};

// fig06 keeps the --runs=40 --seed=7 case the contact-query redesign was
// pinned at. The two loaded ablations run 4 realizations per point: at 20
// they take seconds per call even without a sanitizer.
constexpr Case kCases[] = {
    {"fig04_delivery_vs_deadline_group", "--runs=20 --seed=1", true},
    {"fig05_delivery_vs_deadline_onions", "--runs=20 --seed=1", true},
    {"fig06_traceable_vs_compromised", "--runs=40 --seed=7", true},
    {"fig07_traceable_vs_onions", "--runs=20 --seed=1", true},
    {"fig08_anonymity_vs_compromised", "--runs=20 --seed=1", true},
    {"fig09_anonymity_vs_group", "--runs=20 --seed=1", true},
    {"fig10_delivery_vs_deadline_copies", "--runs=20 --seed=1", true},
    {"fig11_cost_vs_copies", "--runs=20 --seed=1", true},
    {"fig12_anonymity_vs_compromised_copies", "--runs=20 --seed=1", true},
    {"fig13_anonymity_vs_group_copies", "--runs=20 --seed=1", true},
    {"fig14_cambridge_delivery", "--runs=20 --seed=1", true},
    {"fig15_cambridge_traceable", "--runs=20 --seed=1", true},
    {"fig16_cambridge_anonymity", "--runs=20 --seed=1", true},
    {"fig17_infocom_delivery", "--runs=20 --seed=1", true},
    {"fig18_infocom_traceable", "--runs=20 --seed=1", true},
    {"fig19_infocom_anonymity", "--runs=20 --seed=1", true},
    {"ablation_anonymity_vs_load", "--runs=4 --seed=1", true},
    {"ablation_buffer_contention", "--runs=20 --seed=1", true},
    {"ablation_delay_quantiles", "--runs=20 --seed=1", false},
    {"ablation_dest_group", "--runs=20 --seed=1", false},
    {"ablation_fault_resilience", "--runs=20 --seed=1", true},
    {"ablation_history_routing", "--runs=20 --seed=1", false},
    {"ablation_mobility", "--runs=20 --seed=1", true},
    {"ablation_recovery", "--runs=4 --seed=1", true},
    {"ablation_source_hiding", "--runs=20 --seed=1", false},
    {"ablation_sparse_graph", "--runs=20 --seed=1", false},
    {"ablation_spray_mode", "--runs=20 --seed=1", false},
    {"ablation_targeted_adversary", "--runs=20 --seed=1", false},
    {"ablation_tps_vs_onion", "--runs=20 --seed=1", false},
    {"ablation_trace_training", "--runs=20 --seed=1", true},
    {"ablation_wire_overhead", "--runs=20 --seed=1", false},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Drops the timing/environment lines the goldens exclude: wall time, the
// metrics-path echo, and the runs/seed/threads banner line.
std::string stable_lines(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# wall_time_s", 0) == 0) continue;
    if (line.rfind("# metrics:", 0) == 0) continue;
    if (line.find("threads:") != std::string::npos) continue;
    out << line << "\n";
  }
  return out.str();
}

std::string header(const Case& c) {
  return std::string("=== ") + c.bench + " " + c.args;
}

// The golden file's sections, keyed by their "=== bench args" line.
const std::map<std::string, std::string>& golden_sections() {
  static const std::map<std::string, std::string> sections = [] {
    std::map<std::string, std::string> out;
    std::istringstream in(read_file(ODTN_BENCH_PINS));
    std::string line;
    std::string* body = nullptr;
    while (std::getline(in, line)) {
      if (line.rfind("=== ", 0) == 0) {
        body = &out[line];
      } else if (body != nullptr) {
        *body += line + "\n";
      }
    }
    return out;
  }();
  return sections;
}

void check_pin(const Case& c, int threads) {
  const std::string stem =
      std::string("pin_") + c.bench + "_t" + std::to_string(threads);
  const std::string out_path = stem + ".out";
  const std::string metrics_path = stem + ".jsonl";
  std::remove(metrics_path.c_str());
  std::remove((stem + ".actual").c_str());
  std::string cmd = std::string(ODTN_BENCH_DIR) + "/" + c.bench + " " +
                    c.args + " --threads=" + std::to_string(threads);
  if (c.metrics) cmd += " --metrics-out=" + metrics_path;
  cmd += " > " + out_path + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::string actual = stable_lines(read_file(out_path));
  if (c.metrics) {
    const std::string metrics = read_file(metrics_path);
    odtn::test_support::Fnv1a h;
    for (char ch : metrics) h.byte(static_cast<unsigned char>(ch));
    char digest[80];
    std::snprintf(digest, sizeof digest,
                  "metrics-out: fnv1a64=%016llx bytes=%zu\n",
                  static_cast<unsigned long long>(h.value()), metrics.size());
    actual += digest;
  }

  const auto& golden = golden_sections();
  const auto it = golden.find(header(c));
  const bool match = it != golden.end() && it->second == actual;
  if (!match) {
    std::ofstream(stem + ".actual") << header(c) << "\n" << actual;
  }
  ASSERT_NE(it, golden.end()) << "no golden section for " << header(c)
                              << "; got section written to " << stem
                              << ".actual";
  EXPECT_EQ(it->second, actual)
      << c.bench << " drifted at --threads=" << threads
      << "; got section written to " << stem << ".actual";
}

class BenchPin : public ::testing::Test {
 public:
  BenchPin(const Case& c, int threads) : case_(c), threads_(threads) {}
  void TestBody() override { check_pin(case_, threads_); }

 private:
  Case case_;
  int threads_;
};

// One test per bench and thread count: BenchPin.<bench>_t1 and _t4.
[[maybe_unused]] const bool kRegistered = [] {
  for (const Case& c : kCases) {
    for (int threads : {1, 4}) {
      const std::string name = std::string(c.bench) + "_t" +
                               std::to_string(threads);
      ::testing::RegisterTest("BenchPin", name.c_str(), nullptr, nullptr,
                              __FILE__, __LINE__, [c, threads]() -> BenchPin* {
                                return new BenchPin(c, threads);
                              });
    }
  }
  return true;
}();

}  // namespace
