// Checkpoint/resume for long experiment sweeps.
//
// Every `checkpoint_interval` runs the engine snapshots its progress — the
// number of completed runs, every folded accumulator (raw Welford state),
// the quarantine list, and the folded metrics registry — to a text file,
// atomically (tmp + rename). A killed sweep restarted with resume = true
// reloads the snapshot and continues from the first unfolded run; because
// runs are seeded by index (derive_seed) and folded in index order, the
// resumed result is byte-identical to an uninterrupted one. Doubles are
// serialized in shortest round-trip form (metrics::format_double) and
// parsed back with strtod, so the round trip is exact, not approximate.
//
// A checkpoint is only valid for the experiment that wrote it: the file
// (odtn.checkpoint.v3) carries a hash of the config's identity knobs plus a
// scenario tag, and load_checkpoint refuses a mismatch — and any v1 file
// (whose hash was computed differently) or v2 file (whose metric lines
// carried a kind number and a stability column). A v3 metric line names
// its kind: `metric NAME counter VALUE` or `metric NAME histogram COUNT
// SUM MIN MAX NBUCKETS (INDEX COUNT)...`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/experiment.hpp"

namespace odtn::core {

/// FNV-1a over `scenario_tag` ("random_graph", or a trace_scenario_tag)
/// and the canonical serialization of every identity row of the knob
/// table (canonical_identity in core/config_schema.hpp). The harness rows
/// — runs, threads and the checkpoint knobs — are not identity rows:
/// extending a sweep to more runs or resuming with a different thread
/// count is legitimate and changes nothing about the runs already folded.
std::uint64_t checkpoint_config_hash(const ExperimentConfig& config,
                                     const std::string& scenario_tag);

/// Scenario tags of the trace scenarios: the name ("trace",
/// "sparse_trace") plus a digest of the contact data the runs consume —
/// the event list, or the ingested summary's node count, start time and
/// every rate — so a checkpoint of one trace is refused against another.
std::string trace_scenario_tag(const trace::ContactTrace& trace);
std::string trace_scenario_tag(const trace::SparseTraceSummary& summary);

struct CheckpointData {
  /// Runs [0, completed_runs) are folded into `result`.
  std::size_t completed_runs = 0;
  ExperimentResult result;
};

/// Writes `data` to `path` atomically (write `path`.tmp, flush, rename).
/// Throws std::runtime_error when the file cannot be written.
void save_checkpoint(const std::string& path, std::uint64_t config_hash,
                     const CheckpointData& data);

/// Loads a checkpoint written by save_checkpoint. Returns nullopt when the
/// file does not exist (nothing to resume). Throws std::runtime_error on a
/// malformed file or a config-hash mismatch.
std::optional<CheckpointData> load_checkpoint(const std::string& path,
                                              std::uint64_t config_hash);

}  // namespace odtn::core
