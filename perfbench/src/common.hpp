// Shared plumbing of the end-to-end benchmark: clocks, seeded input
// generation, order statistics, output checks, and the per-run report
// every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/json.hpp"

namespace pb {

namespace serve = si::serve;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the seed expander behind every generated input.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic generator over one workload seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return splitmix64(state_); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

/// Number of stored reference variants per workload.  A seed selects one
/// variant, so any seed maps onto inputs whose outputs are checkable.
constexpr int kVariants = 8;
int variant_of(std::uint64_t seed);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The statistic every reported timing uses: the 10th percentile of many
/// short samples.  On a 4-vCPU VM shared with other tenants, the median
/// of a fixed 3 ms CPU kernel drifted by up to 70 % between 5-second
/// windows while its fast tail moved by about 6 %: the fast tail tracks
/// the code, the median tracks the neighbours.
inline double fast(const std::vector<double>& v) { return quantile(v, 0.1); }

/// %.6g rendering and the repo's waveform-parity rule: two values agree
/// when their %.6g strings match, or when they differ by at most one unit
/// in the sixth significant digit (a rounding-boundary flip).
std::string fmt6(double v);
bool parity6(double got, double ref);

/// Output checks.  Every check is one attempt; a failed check is one
/// failure and keeps its message (the first few are printed).
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  /// Adds another checker's attempts, failures and messages.
  void absorb(const Checker& other);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// A workload-specific metric, printed by name with its unit and kept in
/// the result record (e.g. verify_s, hold_periods_per_s, op_p99_ms).
struct Detail {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" | "higher" | "" (context, not compared)
};

/// What one run of a workload measured.
struct RunReport {
  std::vector<double> setup_s;     ///< set-up samples
  std::vector<double> unit_s;      ///< host seconds per unit of work (rate = 1 / fast)
  std::vector<double> latency_ms;  ///< per-round latency samples
  /// Workload-specific sample series (e.g. "verify_s", "op.rtt_ms").
  std::map<std::string, std::vector<double>> samples;
  std::vector<Detail> detail;
  std::map<std::string, double> layers;  ///< per-layer metrics (traced)
  Checker check;
  int rounds = 0;
};

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);
serve::Json read_json(const std::string& path);

/// Command-line options of one benchmark invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string repo = ".";                 ///< checkout root (decks live here)
  std::string out_dir = ".bench_out";     ///< trace and record files
  std::string ref_dir;                    ///< defaults to <repo>/perfbench/reference
  bool write_references = false;
  bool dump_inputs = false;
};

}  // namespace pb
