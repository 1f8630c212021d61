#include "util/args.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
// odtn-lint: allow(include) — std::exit for flag usage errors only
#include <cstdlib>

namespace odtn::util {

namespace {

// Flag usage errors are reported on one line naming the flag, with exit
// status 2, before the binary does any work.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* what) {
  usage_error("--" + name + "=" + value + " " + what);
}

// A numeric flag must parse completely: an empty, unparsable or
// trailing-garbage `token` — all of `value`, or one entry of a list value —
// is a usage error.
template <typename T>
T parse_number(const std::string& name, const std::string& value,
               const std::string& token, const char* what) {
  T v{};
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (token.empty() || ec != std::errc() || ptr != end) {
    bad_value(name, value, what);
  }
  return v;
}

// One count or size `token` of `value`: a whole number in [0, max].
std::uint64_t parse_unsigned(const std::string& name, const std::string& value,
                             const std::string& token, std::uint64_t max) {
  const auto v = parse_number<std::uint64_t>(name, value, token,
                                             "is not a non-negative integer");
  if (v > max) {
    bad_value(name, value, ("exceeds " + std::to_string(max)).c_str());
  }
  return v;
}

}  // namespace

Args::Args(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "true";
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Args::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Args::get(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::uint64_t Args::get_unsigned(const std::string& name, std::uint64_t def,
                                 std::uint64_t max) const {
  auto it = flags_.find(name);
  return it == flags_.end()
             ? def
             : parse_unsigned(name, it->second, it->second, max);
}

std::vector<std::uint64_t> Args::get_unsigned_list(const std::string& name,
                                                   const std::string& def,
                                                   std::uint64_t max) const {
  const std::string value = get(name, def);
  std::vector<std::uint64_t> values;
  std::istringstream in(value);
  for (std::string tok; std::getline(in, tok, ',');) {
    values.push_back(parse_unsigned(name, value, tok, max));
  }
  if (values.empty()) bad_value(name, value, "names no value");
  return values;
}

double Args::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return parse_number<double>(name, it->second, it->second, "is not a number");
}

bool Args::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  bad_value(name, v, "is not a boolean");
}

std::string Args::get_output(const std::string& name) const {
  const std::string path = get(name, "");
  if (path.empty()) return path;
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app)) {
    bad_value(name, path, "cannot be opened for writing");
  }
  if (!existed) std::filesystem::remove(path, ec);
  return path;
}

void Args::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& flag : flags_) {
    if (std::find(known.begin(), known.end(), flag.first) == known.end()) {
      std::string accepted;
      for (const std::string& name : known) {
        accepted += (accepted.empty() ? "--" : ", --") + name;
      }
      usage_error("unknown flag --" + flag.first + " (accepted: " +
                  (accepted.empty() ? "none" : accepted) + ")");
    }
  }
}

}  // namespace odtn::util
