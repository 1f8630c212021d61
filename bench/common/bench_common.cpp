#include "common/bench_common.hpp"

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "metrics/writer.hpp"

namespace odtn::bench {

namespace {

// An exception that escapes a bench's main ends the process here: a
// std::invalid_argument (bad flag value or configuration) is a usage error
// and exits 2, anything else exits 1 — one line on stderr either way,
// never an abort.
[[noreturn]] void report_uncaught() {
  int code = 1;
  std::string what = "terminated";
  if (std::exception_ptr current = std::current_exception()) {
    try {
      std::rethrow_exception(current);
    } catch (const std::invalid_argument& e) {
      code = 2;
      what = e.what();
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
      what = "unknown exception";
    }
  }
  std::cout.flush();
  std::cerr << "error: " << what << "\n";
  std::_Exit(code);
}

}  // namespace

core::ExperimentConfig base_config(const util::Args& args,
                                   const std::vector<std::string>& extra_flags,
                                   core::ExperimentConfig config) {
  std::set_terminate(report_uncaught);
  std::vector<std::string> known = {
      "runs",        "seed",        "threads",     "contact-backend",
      "avg-degree",  "communities", "group-shards", "json",
      "metrics-out"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  args.reject_unknown(known);
  args.get_output("json");
  args.get_output("metrics-out");
  config.collect_metrics = args.has("metrics-out");
  core::parse_knobs(args, config, known);
  return config;
}

core::ExperimentConfig loaded(core::ExperimentConfig config, double rate) {
  config.traffic.flows.push_back({.rate = rate,
                                  .num_relays = config.num_relays,
                                  .copies = config.copies,
                                  .ttl = config.ttl});
  config.traffic.horizon = 600.0;
  config.bandwidth.messages_per_contact = 2;
  config.buffer_capacity = 8;
  config.buffer_policy = sim::BufferPolicy::kDropOldest;
  return config;
}

metrics::Registry& bench_metrics() {
  static metrics::Registry registry;
  return registry;
}

core::ExperimentResult run_experiment(const core::ExperimentConfig& config,
                                      const core::Scenario& scenario) {
  core::ExperimentResult result = core::Experiment(config).run(scenario);
  if (config.collect_metrics) bench_metrics().merge(result.metrics);
  return result;
}

void print_header(const std::string& figure_id, const std::string& title,
                  const std::string& fixed_params,
                  const core::ExperimentConfig& config) {
  std::cout << "# " << figure_id << ": " << title << "\n"
            << "# fixed: " << fixed_params << "\n"
            << "# runs/point: " << config.runs << ", seed: " << config.seed
            << ", threads: ";
  if (config.threads == 0) {
    std::cout << "auto";
  } else {
    std::cout << config.threads;
  }
  std::cout << "\n";
}

void finish(const core::ExperimentConfig& config, const util::Args& args,
            const WallTimer& timer, const std::string& extra_json) {
  double wall = timer.seconds();
  std::cout << "# wall_time_s: " << wall << "\n";

  std::string metrics_path = args.get("metrics-out", "");
  if (!metrics_path.empty()) {
    metrics::write_file(metrics_path, bench_metrics());
    std::cout << "# metrics: " << metrics_path << "\n";
  }

  std::string path = args.get("json", "");
  if (path.empty()) return;
  std::string figure_id = args.program();
  auto slash = figure_id.find_last_of('/');
  if (slash != std::string::npos) figure_id = figure_id.substr(slash + 1);
  std::ostringstream record;
  record << "{\"schema\":\"odtn.bench.v1\",\"figure_id\":\"" << figure_id
         << "\",\"runs\":" << config.runs << ",\"seed\":" << config.seed
         << ",\"threads\":" << config.threads
         << ",\"wall_time_s\":" << metrics::format_double(wall);
  if (!extra_json.empty()) record << "," << extra_json;
  record << "}";
  std::ofstream out(path, std::ios::app);
  if (!out) {
    throw std::runtime_error("bench: cannot open --json file: " + path);
  }
  out << record.str() << "\n";
}

Sweep::Sweep(std::vector<std::string> columns, std::vector<double> xs,
             XFormat x_format)
    : table_(std::move(columns)), xs_(std::move(xs)), x_format_(x_format) {}

void Sweep::run(const std::function<void(double, util::Table&)>& point) {
  for (double x : xs_) {
    table_.new_row();
    if (x_format_ == XFormat::kInt) {
      table_.cell(static_cast<std::int64_t>(x));
    } else {
      table_.cell(x, 2);
    }
    point(x, table_);
  }
}

void Sweep::print(std::ostream& os) const { table_.print(os); }

const std::vector<double>& deadline_sweep() {
  static const std::vector<double> sweep = {60,  120, 240,  360, 600,
                                            900, 1200, 1500, 1800};
  return sweep;
}

const std::vector<double>& compromise_sweep() {
  static const std::vector<double> sweep = {0.10, 0.20, 0.30, 0.40, 0.50};
  return sweep;
}

}  // namespace odtn::bench
