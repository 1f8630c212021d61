// Shared scaffolding for the figure-reproduction benches.
//
// Every bench binary regenerates one figure of the paper: it prints one row
// per x-value with analysis and simulation columns side by side — the same
// series the figure plots. Common flags:
//   --runs=N           simulation runs per point (default 200)
//   --seed=S           experiment seed (default 1)
//   --threads=T        worker threads per experiment (default 0 = all
//                      hardware threads; results are bit-identical at
//                      every T)
//   --json=FILE        append a one-line odtn.bench.v1 JSON record (figure
//                      id, parameters, wall time) so perf accumulates run
//                      over run — the repo convention is
//                      BENCH_<figure_id>.json at the repo root
//   --metrics-out=FILE write the deterministic odtn::metrics collected
//                      across every experiment of the sweep (JSONL, or CSV
//                      when FILE ends in .csv); byte-identical at every
//                      --threads value
//   --contact-backend=dense|sparse
//                      contact-rate storage (default dense; sparse enables
//                      the scale regime), plus --avg-degree / --communities
//                      / --group-shards sparse-side knobs
#pragma once

#include <chrono>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "metrics/metrics.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace odtn::bench {

/// Builds the Table II default configuration, with --runs / --seed /
/// --threads applied; --metrics-out switches cfg.collect_metrics on.
/// Every bench calls it first, before any run: it rejects a flag that is
/// neither a common one nor in `extra_flags`, checks that --json and
/// --metrics-out can be written, and from then on reports an exception
/// escaping main as one line on stderr — exit 2 for std::invalid_argument
/// (bad input), exit 1 for anything else.
core::ExperimentConfig base_config(
    const util::Args& args, const std::vector<std::string>& extra_flags = {});

/// Runs the experiment and folds its metrics into the bench-wide registry
/// (bench_metrics()), which finish() exports when --metrics-out was given.
/// All benches go through this instead of core::Experiment directly.
core::ExperimentResult run_experiment(const core::ExperimentConfig& config,
                                      const core::Scenario& scenario);

/// The registry run_experiment accumulates into (sweep points fold in call
/// order, so the export is deterministic for a fixed sweep).
metrics::Registry& bench_metrics();

/// Prints the figure banner: id, title, and the fixed parameters.
void print_header(const std::string& figure_id, const std::string& title,
                  const std::string& fixed_params,
                  const core::ExperimentConfig& config);

/// Wall-clock stopwatch started at construction; benches create one first
/// thing in main() and hand it to finish().
class WallTimer {
 public:
  // odtn-lint: allow(banned-api) — kWall timer site: the bench stopwatch
  // feeds only the `# wall_time_s` banner line and --json timing records,
  // which the byte-identity goldens strip before comparing.
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    // odtn-lint: allow(banned-api) — kWall timer site (same stopwatch).
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  // odtn-lint: allow(banned-api) — kWall timer state for the stopwatch above.
  std::chrono::steady_clock::time_point start_;
};

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

/// One x-sweep figure table: owns the util::Table, iterates the x-values,
/// opens each row and prints the x cell, then hands the row to a per-point
/// callback for the curve columns. The x cell renders exactly like the
/// hand-rolled loops this replaced (kInt -> cell(int64), kFixed2 ->
/// cell(x, 2)), so migrated benches stay byte-identical.
class Sweep {
 public:
  enum class XFormat {
    kInt,     ///< deadline sweeps: cell(static_cast<int64_t>(x))
    kFixed2,  ///< fraction sweeps: cell(x, 2)
  };

  Sweep(std::vector<std::string> columns, std::vector<double> xs,
        XFormat x_format);

  /// Runs `point(x, table)` once per x value, in order. The row is already
  /// open and the x cell printed; the callback appends the curve cells.
  void run(const std::function<void(double, util::Table&)>& point);

  /// Renders the completed table.
  void print(std::ostream& os) const;

 private:
  util::Table table_;
  std::vector<double> xs_;
  XFormat x_format_;
};

/// The deadline sweep (minutes) used by the delivery-rate figures.
const std::vector<double>& deadline_sweep();

/// The compromised-fraction sweep (10%..50%) of the security figures.
const std::vector<double>& compromise_sweep();

}  // namespace odtn::bench
