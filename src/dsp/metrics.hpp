// Tone metrics: SNR / THD / SNDR / SFDR / ENOB extracted from a power
// spectrum, matching the paper's measurement conventions (signal band
// limited SNR, THD over the first harmonics, dynamic range from an
// amplitude sweep).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dsp/spectrum.hpp"

namespace si::dsp {

/// Options controlling tone measurement.  THD sums the 2nd..7th
/// harmonics, each tone integrates the spectrum window's
/// leakage_halfwidth() bins on either side, and 4 bins around DC are
/// excluded from the noise sum.
struct ToneMeasurementOptions {
  /// Expected fundamental frequency; if unset, the largest in-band bin is
  /// taken as the fundamental.
  std::optional<double> fundamental_hz;
  /// Measurement band [band_lo_hz, band_hi_hz]; band_hi defaults to fs/2.
  double band_lo_hz = 0.0;
  std::optional<double> band_hi_hz;
};

/// Result of a single-tone measurement.
struct ToneMetrics {
  double fundamental_hz = 0.0;
  std::size_t fundamental_bin = 0;
  double signal_power = 0.0;
  double noise_power = 0.0;      ///< in-band, ENBW-corrected, ex. harmonics
  double harmonic_power = 0.0;   ///< sum over measured harmonics in band
  std::vector<double> harmonic_powers;  ///< per harmonic (2nd, 3rd, ...)

  double snr_db = 0.0;    ///< signal / noise
  double thd_db = 0.0;    ///< harmonics / signal (negative when clean)
  double sndr_db = 0.0;   ///< signal / (noise + harmonics)
  double sfdr_db = 0.0;   ///< signal / largest non-signal bin cluster
  double enob_bits = 0.0; ///< (sndr - 1.76) / 6.02
};

/// Measures the fundamental tone of `s` per `opt`.
ToneMetrics measure_tone(const PowerSpectrum& s,
                         const ToneMeasurementOptions& opt = {});

/// Converts an SNDR in dB to effective bits.
double enob_from_sndr_db(double sndr_db);

/// Dynamic range extracted from an amplitude sweep: input levels (dB
/// relative to full scale) and the corresponding SNDR values.  The DR is
/// the distance in dB from full scale down to the (interpolated) level
/// where SNDR crosses 0 dB.  Returns 0 if the sweep never crosses.
double dynamic_range_db(const std::vector<double>& level_db,
                        const std::vector<double>& sndr_db);

/// Frequency that harmonic `h` of `f0` aliases to after sampling at `fs`.
double alias_frequency(double f0, int h, double fs);

}  // namespace si::dsp
