#include "dsp/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/signal.hpp"

namespace si::dsp {

double enob_from_sndr_db(double sndr_db) { return (sndr_db - 1.76) / 6.02; }

double alias_frequency(double f0, int h, double fs) {
  double f = std::fmod(f0 * static_cast<double>(h), fs);
  if (f < 0) f += fs;
  if (f > fs / 2.0) f = fs - f;
  return f;
}

namespace {

/// Harmonics (2nd..7th) included in THD.
constexpr int kHarmonicCount = 6;
/// Bins around DC excluded from the noise sum and the fundamental search.
constexpr int kDcExclusionBins = 4;

/// Sums power[k] over [center-hw, center+hw] clamped to [0, size).
double cluster_sum(const std::vector<double>& power, long long center,
                   int hw) {
  double s = 0.0;
  const long long n = static_cast<long long>(power.size());
  for (long long k = center - hw; k <= center + hw; ++k)
    if (k >= 0 && k < n) s += power[static_cast<std::size_t>(k)];
  return s;
}

}  // namespace

ToneMetrics measure_tone(const PowerSpectrum& s,
                         const ToneMeasurementOptions& opt) {
  if (s.power.size() < 4)
    throw std::invalid_argument("measure_tone: spectrum too short");

  ToneMetrics m;
  const double band_hi = opt.band_hi_hz.value_or(s.fs / 2.0);
  const int hw = leakage_halfwidth(s.window);
  const std::size_t k_lo = s.bin_of(opt.band_lo_hz);
  const std::size_t k_hi = s.bin_of(band_hi);

  // Locate the fundamental.
  std::size_t k0;
  if (opt.fundamental_hz) {
    // Refine the expected bin to the local maximum (+-hw).
    const std::size_t guess = s.bin_of(*opt.fundamental_hz);
    const std::size_t lo =
        guess > static_cast<std::size_t>(hw) ? guess - hw : 0;
    k0 = s.peak_bin(lo, guess + hw);
  } else {
    const std::size_t search_lo =
        std::max<std::size_t>(k_lo, static_cast<std::size_t>(
                                        kDcExclusionBins) + 1);
    k0 = s.peak_bin(search_lo, k_hi);
  }
  m.fundamental_bin = k0;
  m.fundamental_hz = s.bin_frequency(k0);
  m.signal_power = cluster_sum(s.power, static_cast<long long>(k0), hw);

  // Mark bins excluded from the noise sum: DC cluster, signal cluster,
  // harmonic clusters.
  std::vector<bool> excluded(s.power.size(), false);
  auto exclude = [&](long long center, int half) {
    const long long n = static_cast<long long>(s.power.size());
    for (long long k = center - half; k <= center + half; ++k)
      if (k >= 0 && k < n) excluded[static_cast<std::size_t>(k)] = true;
  };
  exclude(0, kDcExclusionBins);
  exclude(static_cast<long long>(k0), hw);

  m.harmonic_powers.reserve(static_cast<std::size_t>(kHarmonicCount));
  for (int h = 2; h <= kHarmonicCount + 1; ++h) {
    const double fh = alias_frequency(m.fundamental_hz, h, s.fs);
    const std::size_t kh = s.bin_of(fh);
    if (kh < k_lo || kh > k_hi) {
      m.harmonic_powers.push_back(0.0);
      continue;
    }
    const double p = cluster_sum(s.power, static_cast<long long>(kh), hw);
    m.harmonic_powers.push_back(p);
    m.harmonic_power += p;
    exclude(static_cast<long long>(kh), hw);
  }

  // Noise: remaining in-band bins (energy normalization makes the plain
  // sum a true power).
  double noise_raw = 0.0;
  std::size_t worst_bin = 0;
  double worst_bin_power = -1.0;
  for (std::size_t k = k_lo; k <= k_hi && k < s.power.size(); ++k) {
    if (excluded[k]) continue;
    noise_raw += s.power[k];
    if (s.power[k] > worst_bin_power) {
      worst_bin_power = s.power[k];
      worst_bin = k;
    }
  }
  // Worst spur for SFDR: integrate the cluster around the strongest
  // non-excluded bin so spurs compare on the same footing as harmonics.
  double worst_spur = 0.0;
  if (worst_bin_power >= 0.0) {
    const long long n_bins = static_cast<long long>(s.power.size());
    for (long long k = static_cast<long long>(worst_bin) - hw;
         k <= static_cast<long long>(worst_bin) + hw; ++k) {
      if (k < 0 || k >= n_bins) continue;
      if (excluded[static_cast<std::size_t>(k)]) continue;
      worst_spur += s.power[static_cast<std::size_t>(k)];
    }
  }
  for (double hp : m.harmonic_powers) worst_spur = std::max(worst_spur, hp);
  m.noise_power = noise_raw;

  const double eps = 1e-300;
  m.snr_db = db_from_power_ratio(m.signal_power / (m.noise_power + eps));
  m.thd_db = db_from_power_ratio((m.harmonic_power + eps) / (m.signal_power + eps));
  m.sndr_db = db_from_power_ratio(m.signal_power /
                                  (m.noise_power + m.harmonic_power + eps));
  m.sfdr_db = db_from_power_ratio(m.signal_power / (worst_spur + eps));
  m.enob_bits = enob_from_sndr_db(m.sndr_db);
  return m;
}

double dynamic_range_db(const std::vector<double>& level_db,
                        const std::vector<double>& sndr_db) {
  if (level_db.size() != sndr_db.size() || level_db.size() < 2)
    throw std::invalid_argument("dynamic_range_db: bad sweep");
  // Sweep is expected ordered from low level to high.  Find the first
  // upward 0-dB crossing and linearly interpolate the crossing level.
  for (std::size_t i = 1; i < level_db.size(); ++i) {
    if (sndr_db[i - 1] < 0.0 && sndr_db[i] >= 0.0) {
      const double t = (0.0 - sndr_db[i - 1]) / (sndr_db[i] - sndr_db[i - 1]);
      const double cross = level_db[i - 1] + t * (level_db[i] - level_db[i - 1]);
      return -cross;  // distance from 0 dBFS down to the crossing
    }
  }
  if (!sndr_db.empty() && sndr_db.front() >= 0.0)
    return -level_db.front();  // already above 0 dB at the lowest level
  return 0.0;
}

}  // namespace si::dsp
