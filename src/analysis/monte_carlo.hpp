// Monte-Carlo analysis over mismatch / noise seeds: the standard way an
// analog team turns the library's per-instance models into yield
// numbers (what fraction of manufactured modulators make 10 bits?).
//
// Trials execute on the si::runtime work-stealing pool.  Seeding is a
// pure function of (seed0, trial index) — si::runtime::trial_seed — so
// a run is bit-identical to the serial reference for any thread count
// and any scheduling order.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace si::obs {
class Histogram;
}

namespace si::analysis {

/// Summary statistics over Monte-Carlo trials.
///
/// Contract: `percentile` and `yield_above` both require at least one
/// sample and throw std::logic_error on an empty statistics object (an
/// empty yield is a meaningless 0/0, not 0.0).
struct McStatistics {
  std::vector<double> samples;  ///< sorted ascending
  double mean = 0.0;
  double sigma = 0.0;           ///< sample standard deviation
  double min = 0.0;
  double max = 0.0;

  /// p in [0, 1]: linear-interpolated percentile.
  /// Throws std::logic_error when no samples were collected.
  double percentile(double p) const;

  /// Fraction of trials with metric >= threshold (a yield).
  /// Throws std::logic_error when no samples were collected.
  double yield_above(double threshold) const;

  /// Loads the samples into the named si_obs 128-bin registry histogram
  /// (reset first, then one record() per sample) and returns it.  With
  /// telemetry disabled the histogram records nothing — callers must
  /// treat its contents as optional, like every other obs read.  Throws
  /// std::logic_error when empty.
  obs::Histogram& histogram(std::string_view name = "mc.samples") const;

  std::size_t count() const { return samples.size(); }
};

namespace detail {
/// Aggregates an already-sorted (ascending) sample vector into the
/// summary statistics.  The trial runners sort once, just before.
McStatistics aggregate_sorted(std::vector<double> sorted_samples);
}  // namespace detail

/// Execution options for monte_carlo().
struct McOptions {
  std::uint64_t seed0 = 1;   ///< root seed; trial k runs at trial_seed(seed0, k)
  std::size_t grain = 0;     ///< parallel_for chunk size; 0 = auto
  bool parallel = true;      ///< false forces the serial reference loop
};

/// Runs `trial(seed)` for `runs` distinct seeds derived from `seed0`
/// and aggregates the returned metric.
McStatistics monte_carlo(int runs,
                         const std::function<double(std::uint64_t)>& trial,
                         std::uint64_t seed0 = 1);

/// Full-control variant (seed, parallelism, grain).
McStatistics monte_carlo(int runs,
                         const std::function<double(std::uint64_t)>& trial,
                         const McOptions& opts);

}  // namespace si::analysis
