#include "common/bench_common.hpp"

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/provenance.hpp"
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

// The shared body of base_config and direct_config: `known` is the
// entry point's common flag list.
core::ExperimentConfig parse_config(const util::Args& args,
                                    std::vector<std::string> known,
                                    const std::vector<std::string>& extra_flags,
                                    core::ExperimentConfig config) {
  std::set_terminate(report_uncaught);
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  args.reject_unknown(known);
  args.get_output("json");
  args.get_output("metrics-out");
  config.collect_metrics = args.has("metrics-out");
  core::parse_knobs(args, config, known);
  core::check_knobs(config);
  return config;
}

}  // namespace

core::ExperimentConfig base_config(const util::Args& args,
                                   const std::vector<std::string>& extra_flags,
                                   core::ExperimentConfig config) {
  return parse_config(args,
                      {"runs", "seed", "threads", "contact-backend",
                       "avg-degree", "communities", "group-shards", "json",
                       "metrics-out"},
                      extra_flags, std::move(config));
}

core::ExperimentConfig direct_config(
    const util::Args& args, const std::vector<std::string>& extra_flags,
    core::ExperimentConfig config) {
  return parse_config(args, {"runs", "seed", "threads", "json"}, extra_flags,
                      std::move(config));
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

void print_header(const std::string& label, const std::string& title,
                  const std::string& fixed_params,
                  const core::ExperimentConfig& config) {
  std::cout << "# " << label << ": " << title << "\n"
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

std::string figure_id(const util::Args& args) {
  const std::string& program = args.program();
  return program.substr(program.find_last_of('/') + 1);
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
  std::ostringstream record;
  record << "{\"schema\":\"odtn.bench.v1\",\"figure_id\":\""
         << figure_id(args) << "\",\"runs\":" << config.runs
         << ",\"seed\":" << config.seed
         << ",\"threads\":" << config.threads
         << ",\"wall_time_s\":" << metrics::format_double(wall);
  const Provenance prov = provenance();
  record << ",\"build_type\":\"" << prov.build_type
         << "\",\"nproc\":" << prov.nproc << ",\"git_sha\":\""
         << prov.git_sha << "\"";
  if (!extra_json.empty()) record << "," << extra_json;
  record << "}";
  std::ofstream out(path, std::ios::app);
  if (!out) {
    throw std::runtime_error("bench: cannot open --json file: " + path);
  }
  out << record.str() << "\n";
}

void print_sweep(std::vector<std::string> columns,
                 const std::vector<double>& xs, XFormat x_format,
                 const std::function<void(double, util::Table&)>& point) {
  util::Table table(std::move(columns));
  for (double x : xs) {
    table.new_row();
    if (x_format == XFormat::kInt) {
      table.cell(static_cast<std::int64_t>(x));
    } else {
      table.cell(x, static_cast<int>(x_format));
    }
    point(x, table);
  }
  table.print(std::cout);
}

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
