// The ExperimentConfig knob table: one row per knob. odtn simulate/model
// and the benches parse their flags through it onto a default config the
// entry point prepares, their usage lines are generated from it, the
// checkpoint hash is FNV-1a over the canonical serialization of its
// identity rows, and each row holds its allowed values. A new knob is one
// field in config.hpp plus one row in config_schema.cpp. Rules that relate
// two knobs, or a knob and the scenario, are one list beside the table.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "util/args.hpp"

namespace odtn::core {

/// The values a numeric row accepts: lo..hi, each end open or closed.
/// Float rows have a finite lo and a finite or open-infinite hi, so NaN
/// and +-inf fail every range.
struct Range {
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
  bool hi_open = false;
  bool integral = false;  ///< set by the row: a count field, not a float

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  /// "[0, 1]", "(0, inf)".
  std::string text() const;
};

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
  /// A single-field row's allowed values; none when its type allows all.
  std::optional<Range> range = std::nullopt;
  /// Throws std::invalid_argument, one line naming the flag and the key,
  /// when the row's value is not allowed: its range, or for the composite
  /// rows their own parts. Empty for rows that accept every value.
  std::function<void(const ExperimentConfig&)> check = nullptr;
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

/// Every row's check, in table order: the first bad value throws.
void check_knobs(const ExperimentConfig& config);

/// The rules that relate two knobs, or a knob and the scenario, in list
/// order: the first broken one throws std::invalid_argument (one line).
/// Run after check_knobs, so each rule sees in-range values.
void check_cross_rules(const ExperimentConfig& config,
                       const Scenario& scenario);

/// "|key=value" for every identity row, in table order, unconditionally:
/// the checkpoint hash input.
std::string canonical_identity(const ExperimentConfig& config);

}  // namespace odtn::core
