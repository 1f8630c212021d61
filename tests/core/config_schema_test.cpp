// The knob table: every row is perturbable, the checkpoint hash moves with
// every identity row and with no harness row, each single-flag row parses
// its own canonical value, the README flag tables match the rows, and
// checkpoints round-trip under odtn.checkpoint.v2 while v1 files are
// refused.
#include "core/config_schema.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"

namespace odtn::core {
namespace {

util::Args make_args(std::vector<std::string> argv) {
  static std::vector<std::vector<char>> storage;
  storage.clear();
  std::vector<char*> ptrs;
  argv.insert(argv.begin(), "prog");
  for (auto& s : argv) {
    storage.emplace_back(s.begin(), s.end());
    storage.back().push_back('\0');
    ptrs.push_back(storage.back().data());
  }
  return util::Args(static_cast<int>(ptrs.size()), ptrs.data());
}

// One perturbation per row key, away from the default. A new row needs an
// entry here, or EveryRowHasAPerturbation fails.
const std::map<std::string, std::function<void(ExperimentConfig&)>>&
perturbations() {
  static const std::map<std::string, std::function<void(ExperimentConfig&)>>
      kPerturb = {
          {"nodes", [](auto& c) { c.nodes = 50; }},
          {"min_ict", [](auto& c) { c.min_ict = 5.0; }},
          {"max_ict", [](auto& c) { c.max_ict = 400.0; }},
          {"backend", [](auto& c) { c.backend = ContactBackend::kSparse; }},
          {"avg_degree", [](auto& c) { c.avg_degree = 12; }},
          {"communities", [](auto& c) { c.communities = 4; }},
          {"group_shards", [](auto& c) { c.group_shards = 8; }},
          {"group_size", [](auto& c) { c.group_size = 3; }},
          {"num_relays", [](auto& c) { c.num_relays = 2; }},
          {"copies", [](auto& c) { c.copies = 4; }},
          {"ttl", [](auto& c) { c.ttl = 900.0; }},
          {"compromise_fraction", [](auto& c) { c.compromise_fraction = 0.2; }},
          {"trace_training_gap", [](auto& c) { c.trace_training_gap = 0.0; }},
          {"runs", [](auto& c) { c.runs = 7; }},
          {"seed", [](auto& c) { c.seed = 9; }},
          {"threads", [](auto& c) { c.threads = 4; }},
          {"crypto", [](auto& c) { c.crypto = routing::CryptoMode::kReal; }},
          {"spray",
           [](auto& c) { c.spray = routing::SprayMode::kDirectToFirstGroup; }},
          {"collect_metrics", [](auto& c) { c.collect_metrics = true; }},
          {"faults.mean_uptime", [](auto& c) { c.faults.mean_uptime = 300.0; }},
          {"faults.mean_downtime",
           [](auto& c) { c.faults.mean_downtime = 40.0; }},
          {"faults.p_fail", [](auto& c) { c.faults.p_fail = 0.2; }},
          {"faults.gilbert_elliott",
           [](auto& c) {
             c.faults.gilbert_elliott =
                 faults::GilbertElliott{0.1, 0.2, 0.01, 0.5};
           }},
          {"faults.blackhole_fraction",
           [](auto& c) { c.faults.blackhole_fraction = 0.1; }},
          {"faults.p_run_abort", [](auto& c) { c.faults.p_run_abort = 0.05; }},
          {"checkpoint_path", [](auto& c) { c.checkpoint_path = "cp"; }},
          {"checkpoint_interval", [](auto& c) { c.checkpoint_interval = 3; }},
          {"resume", [](auto& c) { c.resume = true; }},
          {"traffic.horizon", [](auto& c) { c.traffic.horizon = 600.0; }},
          {"traffic.flows",
           [](auto& c) {
             traffic::FlowConfig flow;
             flow.rate = 0.4;
             c.traffic.flows.push_back(flow);
           }},
          {"bandwidth.messages_per_contact",
           [](auto& c) { c.bandwidth.messages_per_contact = 2; }},
          {"bandwidth.mean_duration",
           [](auto& c) { c.bandwidth.mean_duration = 5.0; }},
          {"bandwidth.transfer_time",
           [](auto& c) { c.bandwidth.transfer_time = 1.0; }},
          {"buffer_capacity", [](auto& c) { c.buffer_capacity = 8; }},
          {"buffer_policy",
           [](auto& c) { c.buffer_policy = sim::BufferPolicy::kDropOldest; }},
          {"load_forwarder",
           [](auto& c) { c.load_forwarder = LoadForwarder::kUtility; }},
          {"utility_failure_penalty",
           [](auto& c) { c.utility_failure_penalty = 0.3; }},
          {"recovery.acks", [](auto& c) { c.recovery.acks = true; }},
          {"recovery.retx_timeout",
           [](auto& c) { c.recovery.retx_timeout = 300.0; }},
          {"recovery.retx_max", [](auto& c) { c.recovery.retx_max = 5; }},
          {"recovery.retx_backoff",
           [](auto& c) { c.recovery.retx_backoff = 1.5; }},
          {"recovery.retx_jitter",
           [](auto& c) { c.recovery.retx_jitter = 0.2; }},
          {"recovery.suspicion_alpha",
           [](auto& c) { c.recovery.suspicion_alpha = 0.3; }},
          {"recovery.suspicion_threshold",
           [](auto& c) { c.recovery.suspicion_threshold = 0.6; }},
          {"recovery.shed_occupancy",
           [](auto& c) { c.recovery.shed_occupancy = 0.9; }},
          {"recovery.shed_saturation",
           [](auto& c) { c.recovery.shed_saturation = 0.8; }},
          {"recovery.shed_priority_floor",
           [](auto& c) { c.recovery.shed_priority_floor = 2; }},
          {"wire_cells", [](auto& c) { c.wire_cells = true; }},
          {"cell_size", [](auto& c) { c.cell_size = 1024; }},
      };
  return kPerturb;
}

std::string flag_name(const std::string& form) {
  return form.substr(0, form.find('='));
}

TEST(ConfigSchema, EveryRowHasAPerturbation) {
  std::set<std::string> keys;
  for (const Knob& k : knobs()) {
    EXPECT_TRUE(keys.insert(k.key).second) << "duplicate row " << k.key;
    EXPECT_TRUE(perturbations().count(k.key)) << "no perturbation: " << k.key;
  }
  for (const auto& [key, perturb] : perturbations()) {
    EXPECT_TRUE(keys.count(key)) << "perturbation of no row: " << key;
  }
}

TEST(ConfigSchema, IdentityRowsMoveTheHashHarnessRowsDoNot) {
  const ExperimentConfig base;
  const auto base_hash = checkpoint_config_hash(base, "random_graph");
  std::set<std::string> harness;
  for (const Knob& k : knobs()) {
    ExperimentConfig c = base;
    perturbations().at(k.key)(c);
    EXPECT_NE(k.write(c), k.write(base)) << k.key << " perturbation is a no-op";
    if (k.identity) {
      EXPECT_NE(checkpoint_config_hash(c, "random_graph"), base_hash)
          << k.key;
    } else {
      harness.insert(k.key);
      EXPECT_EQ(checkpoint_config_hash(c, "random_graph"), base_hash)
          << k.key;
    }
  }
  EXPECT_EQ(harness,
            (std::set<std::string>{"runs", "threads", "checkpoint_path",
                                   "checkpoint_interval", "resume"}));
  EXPECT_NE(checkpoint_config_hash(base, "trace#1"), base_hash);
}

TEST(ConfigSchema, CanonicalIdentityListsEveryIdentityRow) {
  const std::string canon = canonical_identity(ExperimentConfig{});
  for (const Knob& k : knobs()) {
    EXPECT_EQ(canon.find("|" + k.key + "=") != std::string::npos, k.identity)
        << k.key;
  }
}

TEST(ConfigSchema, SingleFlagRowsParseTheirCanonicalValue) {
  for (const Knob& k : knobs()) {
    if (k.flags.size() != 1) continue;
    ExperimentConfig perturbed;
    perturbations().at(k.key)(perturbed);
    const std::string name = flag_name(k.flags[0]);
    const std::string value = k.write(perturbed);
    ExperimentConfig parsed;
    parse_knobs(make_args({"--" + name + "=" + value}), parsed, {name});
    EXPECT_EQ(k.write(parsed), value) << "--" << name << "=" << value;
  }
}

TEST(ConfigSchema, TrafficFlagsBuildTheFlowList) {
  ExperimentConfig c;
  parse_knobs(make_args({"--K=2", "--L=4", "--T=900", "--traffic-rate=0.6",
                         "--traffic-horizon=100", "--traffic-flows=3",
                         "--traffic-arrival=mmpp", "--traffic-burst-factor=2",
                         "--traffic-priorities=0,2"}),
              c);
  ASSERT_EQ(c.traffic.flows.size(), 3u);
  EXPECT_DOUBLE_EQ(c.traffic.horizon, 100.0);
  const std::uint8_t expected_priority[] = {0, 2, 0};
  for (std::size_t f = 0; f < 3; ++f) {
    const traffic::FlowConfig& flow = c.traffic.flows[f];
    EXPECT_DOUBLE_EQ(flow.rate, 0.2);
    EXPECT_EQ(flow.arrival, traffic::Arrival::kMmpp);
    EXPECT_DOUBLE_EQ(flow.burst_factor, 2.0);
    EXPECT_EQ(flow.priority, expected_priority[f]);
    EXPECT_EQ(flow.num_relays, 2u);
    EXPECT_EQ(flow.copies, 4u);
    EXPECT_DOUBLE_EQ(flow.ttl, 900.0);
  }
  // No rate and no horizon: traffic stays off.
  ExperimentConfig off;
  parse_knobs(make_args({"--traffic-flows=3"}), off);
  EXPECT_TRUE(off.traffic.flows.empty());
  EXPECT_THROW(parse_knobs(make_args({"--traffic-rate=1"}), off),
               std::invalid_argument);
}

TEST(ConfigSchema, ExplicitFlagsWinOverPreparedDefaults) {
  ExperimentConfig defaults;
  defaults.runs = 8;
  defaults.avg_degree = 12;
  defaults.communities = 16;
  ExperimentConfig c = defaults;
  parse_knobs(make_args({"--avg-degree=0", "--runs=3"}), c);
  EXPECT_EQ(c.avg_degree, 0u);
  EXPECT_EQ(c.runs, 3u);
  EXPECT_EQ(c.communities, 16u);  // not given: the prepared default stays
  // Rows outside the accepted list are not read.
  ExperimentConfig only_runs = defaults;
  parse_knobs(make_args({"--avg-degree=0", "--runs=3"}), only_runs, {"runs"});
  EXPECT_EQ(only_runs.avg_degree, 12u);
  EXPECT_EQ(only_runs.runs, 3u);
}

TEST(ConfigSchema, WireCellsImplyRealCrypto) {
  ExperimentConfig c;
  parse_knobs(make_args({"--wire-cells"}), c);
  EXPECT_TRUE(c.wire_cells);
  EXPECT_EQ(c.crypto, routing::CryptoMode::kReal);
}

TEST(ConfigSchema, BadValuesAreOneLineErrors) {
  ExperimentConfig c;
  try {
    parse_knobs(make_args({"--load-forwarder=bogus"}), c);
    FAIL() << "accepted --load-forwarder=bogus";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--load-forwarder must be onion, utility or spray-blind");
  }
  EXPECT_THROW(parse_knobs(make_args({"--fault-ge=0.1:0.2"}), c),
               std::invalid_argument);
  EXPECT_EXIT(parse_knobs(make_args({"--cell-size=-5"}), c),
              ::testing::ExitedWithCode(2),
              "--cell-size=-5 is not a non-negative integer");
  EXPECT_EXIT(parse_knobs(make_args({"--shed-priority-floor=256"}), c),
              ::testing::ExitedWithCode(2),
              "--shed-priority-floor=256 exceeds 255");
}

TEST(ConfigSchema, UsageShowsEveryFlagWithTheEntryPointDefault) {
  ExperimentConfig defaults;
  defaults.runs = 8;
  const std::string usage = knob_usage(defaults);
  for (const std::string& name : knob_flags()) {
    EXPECT_NE(usage.find("  --" + name), std::string::npos) << name;
  }
  EXPECT_NE(usage.find("  --runs=N\n      realizations [8]\n"),
            std::string::npos);
  EXPECT_NE(usage.find("[dense]"), std::string::npos);
  // A flag subset lists only its rows.
  const std::string model = knob_usage(defaults, {"n", "threads"});
  EXPECT_NE(model.find("--n=N"), std::string::npos);
  EXPECT_EQ(model.find("--runs"), std::string::npos);
}

// The README flag tables and the knob rows name the same flags: every
// README flag is a row odtn simulate accepts, and every row is documented.
TEST(ConfigSchema, ReadmeFlagTablesMatchTheRows) {
  std::ifstream readme(ODTN_README_PATH);
  ASSERT_TRUE(readme) << ODTN_README_PATH;
  const std::vector<std::string> rows = knob_flags();
  const std::regex flag(R"(`--([A-Za-z][A-Za-z0-9-]*))");
  std::set<std::string> documented;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.rfind("| `--", 0) != 0) continue;  // flag-table rows only
    for (std::sregex_iterator it(line.begin(), line.end(), flag), end;
         it != end; ++it) {
      const std::string name = (*it)[1];
      EXPECT_NE(std::find(rows.begin(), rows.end(), name), rows.end())
          << "README names --" << name << ", which is no knob row";
      documented.insert(name);
    }
  }
  for (const std::string& name : rows) {
    EXPECT_TRUE(documented.count(name)) << "--" << name << " not in README";
  }
}

TEST(ConfigSchema, CheckpointRoundTripsUnderV2AndRefusesV1) {
  const std::string path = testing::TempDir() + "odtn_config_schema_cp";
  CheckpointData data;
  data.completed_runs = 3;
  data.result.delivered_runs = 2;
  for (const ResultStat& s : kResultStats) {
    (data.result.*(s.member)).add(0.25);
    (data.result.*(s.member)).add(1.0 / 3.0);
  }
  data.result.failed_runs.push_back({1, 77, "injected"});
  data.result.metrics.counter("experiment.runs").inc(3);
  save_checkpoint(path, 42, data);
  {
    std::ifstream in(path);
    std::string magic;
    std::getline(in, magic);
    EXPECT_EQ(magic, "odtn.checkpoint.v2");
  }
  auto loaded = load_checkpoint(path, 42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->completed_runs, 3u);
  EXPECT_EQ(loaded->result.delivered_runs, 2u);
  for (const ResultStat& s : kResultStats) {
    const auto a = (data.result.*(s.member)).state();
    const auto b = (loaded->result.*(s.member)).state();
    EXPECT_EQ(a.n, b.n) << s.name;
    EXPECT_EQ(a.mean, b.mean) << s.name;
    EXPECT_EQ(a.m2, b.m2) << s.name;
    EXPECT_EQ(a.min, b.min) << s.name;
    EXPECT_EQ(a.max, b.max) << s.name;
  }
  ASSERT_EQ(loaded->result.failed_runs.size(), 1u);
  EXPECT_EQ(loaded->result.failed_runs[0].message, "injected");
  EXPECT_EQ(loaded->result.metrics.entries().at("experiment.runs").counter,
            3u);

  {
    std::ofstream v1(path, std::ios::trunc);
    v1 << "odtn.checkpoint.v1\nhash 42\ncompleted 3\nend\n";
  }
  try {
    load_checkpoint(path, 42);
    FAIL() << "a v1 checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("odtn.checkpoint.v1"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace odtn::core
