// Shared scaffolding for the figure-reproduction benches.
//
// Every bench binary regenerates one figure of the paper: it prints one row
// per x-value with analysis and simulation columns side by side — the same
// series the figure plots. Common flags: the knob-table rows --runs
// (default 200), --seed, --threads (0 = all hardware threads; results are
// bit-identical at every value) and the contact-backend knobs, plus
//   --json=FILE        append a one-line odtn.bench.v1 JSON record (figure
//                      id, parameters, wall time); the repo convention is
//                      BENCH_<figure_id>.json at the repo root
//   --metrics-out=FILE write the sweep's deterministic odtn::metrics
//                      (JSONL, or CSV for *.csv), byte-identical at every
//                      --threads value
// The ten ablations that drive the protocols directly (direct_config; the
// direct rows of ablations.cpp) take only --runs, --seed, --threads and
// --json, plus the flags they name, and draw their realizations through
// bench::Stream (common/realization.hpp); they run sequentially at any
// --threads.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/config_schema.hpp"
#include "core/experiment.hpp"
#include "metrics/metrics.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace odtn::bench {

/// Parses the common knob flags (--runs / --seed / --threads and the
/// contact-backend knobs), plus any knob flag named in `extra_flags`, onto
/// `config` — a bench sets its own defaults there first, so an explicit
/// flag always wins. --metrics-out switches config.collect_metrics on.
/// Every bench calls it first, before any run: it rejects a flag that is
/// neither a common one nor in `extra_flags`, checks that --json and
/// --metrics-out can be written and that every knob is in its range
/// (core::check_knobs: --runs=0 exits 2 before the banner), and from then
/// on reports an exception escaping main as one line on stderr — exit 2
/// for std::invalid_argument (bad input), exit 1 for anything else.
core::ExperimentConfig base_config(
    const util::Args& args, const std::vector<std::string>& extra_flags = {},
    core::ExperimentConfig config = core::entry_defaults());

/// base_config for the benches that drive the protocols directly instead
/// of through run_experiment: the common flags are only --runs, --seed,
/// --threads and --json, since such a bench reads no contact-backend knob
/// and exports no metrics unless it names "metrics-out" in `extra_flags`.
core::ExperimentConfig direct_config(
    const util::Args& args, const std::vector<std::string>& extra_flags = {},
    core::ExperimentConfig config = core::entry_defaults());

/// Runs the experiment and folds its metrics into the bench-wide registry
/// (bench_metrics()), which finish() exports when --metrics-out was given.
/// All benches go through this instead of core::Experiment directly.
core::ExperimentResult run_experiment(const core::ExperimentConfig& config,
                                      const core::Scenario& scenario);

/// The registry run_experiment accumulates into (sweep points fold in call
/// order, so the export is deterministic for a fixed sweep).
metrics::Registry& bench_metrics();

/// Prints the figure banner: label ("Figure 4"), title, and the fixed
/// parameters.
void print_header(const std::string& label, const std::string& title,
                  const std::string& fixed_params,
                  const core::ExperimentConfig& config);

/// Wall-clock stopwatch started at construction; benches create one first
/// thing in main() and hand it to finish().
class WallTimer {
 public:
  // odtn-lint: allow(banned-api) — wall-clock site: the bench stopwatch
  // feeds only the `# wall_time_s` banner line and --json timing records,
  // which the byte-identity goldens strip before comparing.
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    // odtn-lint: allow(banned-api) — wall-clock site (same stopwatch).
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  // odtn-lint: allow(banned-api) — wall-clock state for the stopwatch above.
  std::chrono::steady_clock::time_point start_;
};

/// The bench binary's name (argv[0] without its directory): the --json
/// figure_id, and the row a paper-figure binary runs.
std::string figure_id(const util::Args& args);

/// Prints the closing `# wall_time_s:` line; when --json=FILE was given,
/// appends one versioned record
/// `{"schema":"odtn.bench.v1","figure_id":...,"runs":...,"seed":...,
/// "threads":...,"wall_time_s":...}` to FILE (figure_id is the bench
/// binary's name); when --metrics-out=FILE was given, writes the
/// accumulated deterministic metrics there. `extra_json` (when non-empty)
/// is spliced verbatim into the record before the closing brace — pass
/// pre-formatted `"key":value` pairs, comma-separated, no leading comma.
void finish(const core::ExperimentConfig& config, const util::Args& args,
            const WallTimer& timer, const std::string& extra_json = "");

/// How a sweep prints its x cell: an integer, or fixed with that many
/// decimals.
enum class XFormat {
  kInt = -1,    ///< deadline sweeps: cell(static_cast<int64_t>(x))
  kFixed1 = 1,  ///< edge-probability sweeps: cell(x, 1)
  kFixed2 = 2,  ///< fraction sweeps: cell(x, 2)
  kFixed4 = 4,  ///< fault-knob sweeps: cell(x)
};

/// Prints one x-sweep table to std::cout: a row per x value, in order,
/// holding the x cell and then the cells `point(x, table)` appends.
void print_sweep(std::vector<std::string> columns,
                 const std::vector<double>& xs, XFormat x_format,
                 const std::function<void(double, util::Table&)>& point);

/// The deadline sweep (minutes) used by the delivery-rate figures.
const std::vector<double>& deadline_sweep();

/// The compromised-fraction sweep (10%..50%) of the security figures.
const std::vector<double>& compromise_sweep();

}  // namespace odtn::bench
