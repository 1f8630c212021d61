// Provenance stamped on every odtn.bench.v1 record: the build type (fixed
// at configure time), the CPU count, and the git sha of the source tree the
// bench was built from. The sha is read when the record is written, not at
// configure time, so a build tree reused across commits still names the
// commit it measured. It ends in "-dirty" when tracked files other than the
// BENCH_*.json trajectories differ from HEAD, and reads "unknown" outside a
// git checkout or without git.
#pragma once

#include <array>
#include <cstdio>
#include <string>
#include <thread>

namespace odtn::bench {

struct Provenance {
  std::string build_type;
  unsigned nproc = 0;
  std::string git_sha;
};

// The standard output of the shell command `command`, "" if it fails.
inline std::string command_output(const std::string& command) {
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  std::array<char, 256> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    out += buf.data();
  }
  return pclose(pipe) == 0 ? out : "";
}

inline Provenance provenance() {
  Provenance p;
  p.build_type = ODTN_BUILD_TYPE;
  p.nproc = std::thread::hardware_concurrency();
  const std::string git = "git -C '" ODTN_SOURCE_DIR "' ";
  std::string sha = command_output(git + "rev-parse HEAD 2>/dev/null");
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.empty()) {
    p.git_sha = "unknown";
    return p;
  }
  const std::string changes = command_output(
      git + "status --porcelain --untracked-files=no -- . ':!BENCH_*.json' "
            "2>/dev/null");
  p.git_sha = changes.empty() ? sha : sha + "-dirty";
  return p;
}

}  // namespace odtn::bench
