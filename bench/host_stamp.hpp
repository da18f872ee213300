// Host context every timed row of the perf ledger (BENCH_solvers.json)
// carries: nproc, compiler, build type and commit.  SI_BENCH_COMPILER
// and SI_BENCH_BUILD_TYPE come from bench/CMakeLists.txt.
#pragma once

#include <cstdio>
#include <string>
#include <thread>

namespace si::bench {

struct HostStamp {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;
};

/// Short commit hash of the checkout the bench runs in ("-dirty" when
/// it has uncommitted changes), or "unknown" outside a git checkout.
inline std::string current_commit() {
  std::string out;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof buf, p)) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

inline HostStamp host_stamp() {
  return {std::thread::hardware_concurrency(), SI_BENCH_COMPILER,
          SI_BENCH_BUILD_TYPE, current_commit()};
}

}  // namespace si::bench
