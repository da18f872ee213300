// The one optional size argument a paper bench takes, `--<name>=N`, so
// that its ctest (which every sanitizer lane runs) can do a smaller
// study than the one the bench prints by default.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace si::bench {

/// N from `--<name>=N`, lo <= N <= hi, or `fallback` when the bench has
/// no argument.  Anything else prints a usage line and exits 2.
inline int size_arg(int argc, char** argv, const char* name, int fallback,
                    int lo, int hi) {
  const std::string flag = std::string("--") + name + "=";
  int value = fallback;
  for (int i = 1; i < argc; ++i) {
    const bool named = std::strncmp(argv[i], flag.c_str(), flag.size()) == 0;
    const char* v = named ? argv[i] + flag.size() : argv[i];
    const char* end = v + std::strlen(v);
    const auto [p, ec] = std::from_chars(v, end, value);
    if (!named || ec != std::errc() || p != end || value < lo || value > hi) {
      std::fprintf(stderr, "usage: %s [%sN]  (%d <= N <= %d)\n", argv[0],
                   flag.c_str(), lo, hi);
      std::exit(2);
    }
  }
  return value;
}

}  // namespace si::bench
