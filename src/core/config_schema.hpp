// The ExperimentConfig knob table: one row per knob. odtn simulate/model
// and the benches parse their flags through it onto a default config the
// entry point prepares, their usage lines are generated from it, and the
// checkpoint hash is FNV-1a over the canonical serialization of its
// identity rows. A new knob is one field in config.hpp plus one row in
// config_schema.cpp.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "util/args.hpp"

namespace odtn::core {

struct Knob {
  std::string key;  ///< the field's path in ExperimentConfig
  /// CLI flags in usage form ("fault-p-fail=P", or a bare boolean switch);
  /// none for fields no entry point sets by flag, several for the traffic
  /// flow list's composite parser.
  std::vector<std::string> flags;
  std::string doc;  ///< one line, for the usage text
  /// Part of a run's identity, so in the checkpoint hash. Harness knobs
  /// (runs, threads, the checkpoint knobs) are not: extending a sweep or
  /// resuming it at another thread count leaves the folded runs as they are.
  bool identity = true;
  /// Reads the row's given flags onto the config; a bad value exits 2
  /// (util::Args) or throws std::invalid_argument (one line).
  std::function<void(const util::Args&, ExperimentConfig&)> parse;
  /// The canonical value; for a single-flag row also a valid flag value.
  std::function<std::string(const ExperimentConfig&)> write;
};

/// The config odtn simulate/model and the benches parse onto unless they
/// prepare their own: Table II, 200 runs on all hardware threads.
ExperimentConfig entry_defaults();

/// Every row, in parse order (rows that read other knobs come after them).
const std::vector<Knob>& knobs();

/// The flag name ("fault-p-fail") of every row's flags.
std::vector<std::string> knob_flags();

/// Parses, onto `config`, every row with a flag in `flags`; other rows keep
/// the value the caller prepared.
void parse_knobs(const util::Args& args, ExperimentConfig& config,
                 const std::vector<std::string>& flags = knob_flags());

/// Usage lines of the rows with a flag in `flags`: the flags, then the doc
/// with the default written from `defaults`.
std::string knob_usage(const ExperimentConfig& defaults,
                       const std::vector<std::string>& flags = knob_flags());

/// "|key=value" for every identity row, in table order, unconditionally:
/// the checkpoint hash input.
std::string canonical_identity(const ExperimentConfig& config);

}  // namespace odtn::core
