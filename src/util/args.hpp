// Minimal command-line flag parsing for the bench/example binaries.
//
// Accepts flags of the form `--name=value` or `--name value`; anything else
// is collected as a positional argument. Benches use this so runs, seeds and
// sweep ranges can be overridden without recompiling:
//
//   fig04_delivery_vs_deadline_group --runs=500 --seed=7
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace odtn::util {

class Args {
 public:
  Args(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  /// Numeric flags must parse completely: an empty, unparsable or
  /// trailing-garbage value (`--runs=12x`) prints a one-line error naming
  /// the flag and exits with status 2.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace odtn::util
