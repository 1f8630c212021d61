#include "util/args.hpp"

#include <charconv>
#include <cstdio>
// odtn-lint: allow(include) — std::exit for flag usage errors only
#include <cstdlib>

namespace odtn::util {

namespace {

// A numeric flag must parse completely: an empty, unparsable or
// trailing-garbage value is a usage error, reported on one line naming the
// flag, with exit status 2 (an exception would abort the bench binaries,
// which do not catch).
template <typename T>
T parse_number(const std::string& name, const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "error: --%s=%s is not a number\n", name.c_str(),
                 s.c_str());
    std::exit(2);
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

std::int64_t Args::get_int(const std::string& name, std::int64_t def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def
                            : parse_number<std::int64_t>(name, it->second);
}

double Args::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : parse_number<double>(name, it->second);
}

bool Args::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace odtn::util
