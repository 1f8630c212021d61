// Minimal command-line flag parsing for the odtn and bench binaries.
//
// Accepts flags of the form `--name=value` or `--name value`; anything else
// is collected as a positional argument. A binary lists the flags it
// accepts (reject_unknown), so a misspelt flag is an error, not a no-op:
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
  /// Count and size flags: a whole number in [0, max]. A negative, garbage
  /// or out-of-range value is a usage error (one line naming the flag, exit
  /// 2) — never a wrapped-around size_t.
  std::uint64_t get_unsigned(const std::string& name, std::uint64_t def,
                             std::uint64_t max = UINT64_MAX) const;
  /// A comma-separated list of such values (`def` when the flag is
  /// absent); an empty list is a usage error too.
  std::vector<std::uint64_t> get_unsigned_list(
      const std::string& name, const std::string& def,
      std::uint64_t max = UINT64_MAX) const;
  double get_double(const std::string& name, double def) const;
  /// Boolean flags take true/false, 1/0, yes/no or on/off (a bare `--flag`
  /// is true); any other value is a usage error (one line, exit 2).
  bool get_bool(const std::string& name, bool def) const;
  /// An output-file flag: its value, or "" when absent. A given path must
  /// open for writing (append mode; a file the check creates is removed
  /// again), else a one-line usage error and exit 2 — so a bad path fails
  /// before the run it would record, not after.
  std::string get_output(const std::string& name) const;

  /// Every flag given must be one of `known`: otherwise a one-line usage
  /// error naming the first unknown flag and listing the accepted ones, and
  /// exit 2.
  void reject_unknown(const std::vector<std::string>& known) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace odtn::util
