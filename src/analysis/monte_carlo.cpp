#include "analysis/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "runtime/parallel.hpp"
#include "runtime/rng_stream.hpp"

namespace si::analysis {

double McStatistics::percentile(double p) const {
  if (samples.empty())
    throw std::logic_error("McStatistics: no samples");
  if (p <= 0.0) return samples.front();
  if (p >= 1.0) return samples.back();
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

double McStatistics::yield_above(double threshold) const {
  if (samples.empty())
    throw std::logic_error("McStatistics: no samples");
  const auto it =
      std::lower_bound(samples.begin(), samples.end(), threshold);
  return static_cast<double>(samples.end() - it) /
         static_cast<double>(samples.size());
}

obs::Histogram& McStatistics::histogram(std::string_view name) const {
  if (samples.empty())
    throw std::logic_error("McStatistics: no samples");
  obs::Histogram& h = obs::histogram(name);
  h.reset();
  for (double v : samples) h.record(v);
  return h;
}

namespace detail {

McStatistics aggregate_sorted(std::vector<double> sorted_samples) {
  McStatistics st;
  st.samples = std::move(sorted_samples);
  st.min = st.samples.front();
  st.max = st.samples.back();
  double s1 = 0.0, s2 = 0.0;
  for (double v : st.samples) {
    s1 += v;
    s2 += v * v;
  }
  const double n = static_cast<double>(st.samples.size());
  st.mean = s1 / n;
  st.sigma = n > 1 ? std::sqrt(std::max(0.0, (s2 - n * st.mean * st.mean) /
                                                  (n - 1.0)))
                   : 0.0;
  return st;
}

}  // namespace detail

namespace {

std::vector<double> run_trials(
    int runs, const std::function<double(std::uint64_t)>& trial,
    const McOptions& opts) {
  std::vector<double> samples(static_cast<std::size_t>(runs));
  auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k)
      samples[k] = trial(runtime::trial_seed(opts.seed0, k));
  };
  if (opts.parallel) {
    runtime::parallel_for(samples.size(), body, opts.grain);
  } else {
    body(0, samples.size());
  }
  // Sort once here, at aggregation.
  std::sort(samples.begin(), samples.end());
  return samples;
}

}  // namespace

McStatistics monte_carlo(int runs,
                         const std::function<double(std::uint64_t)>& trial,
                         std::uint64_t seed0) {
  McOptions opts;
  opts.seed0 = seed0;
  return monte_carlo(runs, trial, opts);
}

McStatistics monte_carlo(int runs,
                         const std::function<double(std::uint64_t)>& trial,
                         const McOptions& opts) {
  if (runs < 1) throw std::invalid_argument("monte_carlo: runs >= 1");
  return detail::aggregate_sorted(run_trials(runs, trial, opts));
}

}  // namespace si::analysis
