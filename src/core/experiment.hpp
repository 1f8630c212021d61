// Experiment engine: repeated protocol runs vs. the analytical models.
//
// This is the engine behind every figure-reproduction bench. Each run draws
// a fresh realization (contact graph or trace start time, endpoints, relay
// groups, compromise set), simulates the protocol on it, measures the
// paper's metrics on the realized paths, and evaluates the analytical
// models on the *same* realization — exactly how the paper compares
// "Analysis" and "Simulation" curves.
//
// Realizations are independent, so the engine shards them across a worker
// pool (config.threads). Run i draws every random quantity from an RNG
// seeded with util::derive_seed(config.seed, i), and per-run samples are
// folded into the result in run-index order on one thread — so results are
// *bit-identical* at every thread count, and an experiment is reproducible
// from (config, scenario) alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "metrics/metrics.hpp"
#include "trace/contact_trace.hpp"
#include "trace/trace_reader.hpp"
#include "util/stats.hpp"

namespace odtn::core {

// Every metric — simulation and analysis side — is a mergeable accumulator,
// so sharded results combine uniformly (RunningStats::merge) and expose the
// spread across realizations, not just the mean.
struct ExperimentResult {
  // Simulation side (means over runs).
  util::RunningStats sim_delivered;      // 1 if delivered within T else 0
  util::RunningStats sim_delay;          // delivered runs only
  util::RunningStats sim_transmissions;  // all runs (total network cost)
  util::RunningStats sim_traceable;      // delivered runs only
  util::RunningStats sim_anonymity;      // delivered runs only

  // Loaded-traffic runs only (config.traffic enabled; empty otherwise).
  // Per-run samples: sustained delivered msgs per time unit, and the p99
  // delivery delay of the run's delivered messages. Under load,
  // sim_delivered holds the per-run delivery *fraction* and sim_delay the
  // per-run mean delay — same fields, per-workload instead of per-message.
  util::RunningStats sim_throughput;
  util::RunningStats sim_p99_delay;

  // Analysis side (model evaluated per realization, averaged). The security
  // and cost models depend only on (K, g, L, c/n, n), so their per-run
  // samples coincide; keeping them as accumulators makes shard merging
  // uniform instead of silently averaging bare doubles with wrong weights.
  util::RunningStats ana_delivery;
  util::RunningStats ana_traceable_paper;
  util::RunningStats ana_traceable_exact;
  util::RunningStats ana_anonymity;
  util::RunningStats ana_cost_bound;
  util::RunningStats ana_cost_non_anonymous;

  std::size_t delivered_runs = 0;

  /// Quarantined runs: the run body threw (faults::InjectedFault from the
  /// p_run_abort knob, a parser error, anything std::exception). The sweep
  /// continues; a failed run contributes exactly this record — no samples,
  /// no metrics — and the fold skips it deterministically, so results stay
  /// bit-identical at every thread count. In run-index order.
  struct FailedRun {
    std::size_t run = 0;
    std::uint64_t seed = 0;  // derive_seed(config.seed, run)
    std::string message;
  };
  std::vector<FailedRun> failed_runs;

  /// Wall-clock seconds the engine spent producing this result (not merged;
  /// measured per engine invocation).
  double wall_time_s = 0.0;

  /// Observability (only populated when config.collect_metrics): per-run
  /// "experiment.*" delay/transmission histograms and the "routing.*" /
  /// "sim.*" event counters from inside the protocols. Folded from per-run
  /// registries in run order, so it is bit-identical at every thread count.
  metrics::Registry metrics;

  /// Folds another shard in: every accumulator merges, delivered_runs adds.
  void merge(const ExperimentResult& other);
};

/// Every RunningStats member of ExperimentResult with its name: merge and
/// the checkpoint reader and writer walk this one list.
struct ResultStat {
  const char* name;
  util::RunningStats ExperimentResult::*member;
};
inline constexpr ResultStat kResultStats[] = {
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
    {"sim_throughput", &ExperimentResult::sim_throughput},
    {"sim_p99_delay", &ExperimentResult::sim_p99_delay},
};

/// Random-contact-graph experiments (Sec. V-A "Random graphs"). Each run:
/// fresh graph, random (src, dst), random relay groups, random compromise
/// set. Graph parameters come from the ExperimentConfig (nodes, min_ict,
/// max_ict).
struct RandomGraphScenario {};

/// Experiments against a fixed contact trace (Sec. V-D/V-E). Per run:
/// random (src, dst), a start time sampled from the source's contact events
/// (the paper starts transmissions "after the source has a contact", i.e.
/// during business hours), random relay groups and compromise set. The
/// analysis side is trained on rates estimated from the trace. The trace
/// must outlive the run() call.
struct TraceScenario {
  const trace::ContactTrace* trace = nullptr;
};

/// Streaming-trace experiments for the scale regime: the trace file is
/// ingested in ONE bounded-memory pass (trace::ingest_sparse_trace_file)
/// that trains a sparse contact-rate graph directly — events are never
/// materialized. Runs then sample live Poisson contacts from the trained
/// rates (sim::PoissonContactModel), which is the analytical contact model
/// the training fits; the analysis side reads the same sparse rates.
/// Requires config.backend == ContactBackend::kSparse.
struct SparseTraceScenario {
  std::string path;
  trace::TraceFormat format = trace::TraceFormat::kPlain;
  /// Number of mobile nodes (same meaning as the in-memory parsers').
  std::size_t nodes = 0;
};

/// What an Experiment runs on: one of the realization sources above.
using Scenario =
    std::variant<RandomGraphScenario, TraceScenario, SparseTraceScenario>;

/// The unified entry point:
///
///   core::Experiment exp(config);
///   auto r = exp.run(core::RandomGraphScenario{});
///   auto t = exp.run(core::TraceScenario{&trace});
///
/// run() executes config.runs independent realizations of the scenario,
/// sharded over config.threads workers (0 = all hardware threads), and is
/// bit-identical across thread counts.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config) : config_(config) {}

  const ExperimentConfig& config() const { return config_; }

  ExperimentResult run(const Scenario& scenario) const;

  /// The checks run() makes before any run, check_knobs then
  /// check_cross_rules (core/config_schema): throws std::invalid_argument
  /// (one line) on a value outside its row's range or an unsupported knob
  /// combination for `scenario`.
  void validate(const Scenario& scenario) const;

 private:
  ExperimentResult run_random_graph(const RandomGraphScenario& s) const;
  ExperimentResult run_trace(const TraceScenario& s) const;
  ExperimentResult run_sparse_trace(const SparseTraceScenario& s) const;

  ExperimentConfig config_;
};

}  // namespace odtn::core
