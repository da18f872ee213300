// Time-domain stimulus waveforms for independent sources and switch
// controls: DC, sine, pulse trains (clock phases), and piecewise-linear.
#pragma once

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace si::spice {

/// One closed-open [begin, end) span of time, in seconds.  Produced by
/// Waveform::on_intervals; `end` may be +infinity for aperiodic
/// waveforms that stay above threshold forever.
struct TimeInterval {
  double begin = 0.0;
  double end = 0.0;
  double length() const { return end - begin; }
};

/// A scalar function of time used to drive sources and switches.
class Waveform {
 public:
  virtual ~Waveform() = default;
  /// Value at time t (seconds).
  virtual double value(double t) const = 0;
  /// Value used during DC operating-point analysis (usually value(0)).
  virtual double dc_value() const { return value(0.0); }
  /// Repetition period [s]; 0 for aperiodic waveforms.  Lets the ERC
  /// clock-phase rules recover the sampling period from switch controls.
  virtual double period() const { return 0.0; }
  /// Appends every breakpoint (slope discontinuity) of the waveform in
  /// the half-open interval (t0, t1], unordered and possibly with
  /// duplicates.  Pulse trains emit the exact four edge instants per
  /// period (delay + k·T, rise end, fall start, fall end), so the
  /// event queue dispatches fast switch edges inside the step they fall
  /// in and verify derives exact ON intervals.  Smooth waveforms emit
  /// nothing.
  virtual void breakpoints(double t0, double t1,
                           std::vector<double>& out) const {
    (void)t0;
    (void)t1;
    (void)out;
  }
  /// True when every interval over which the value varies begins at a
  /// breakpoint (pulse edges, constants).  Event schedulers may then
  /// watch the breakpoint stream alone instead of sampling the value on
  /// every step; waveforms that drift between breakpoints (sine, PWL
  /// ramps) keep the default and stay under per-step drift detection.
  virtual bool changes_begin_at_breakpoints() const { return false; }

  /// The exact closed-open intervals where value(t) > threshold.
  ///
  /// Periodic waveforms (period() > 0) return the steady-state pattern
  /// of one period, normalised to [0, period()): start-up transients
  /// (pulse delay) are skipped by scanning forward until two
  /// consecutive periods agree.  Aperiodic waveforms are resolved over
  /// [0, horizon]; when the value is still above threshold past the
  /// last breakpoint the final interval extends to +infinity.
  ///
  /// Crossing instants are located by bisection between breakpoints to
  /// one ULP, so overlap/underlap measures derived from two interval
  /// sets are exact at double precision — unlike fixed-rate sampling,
  /// which misses any feature narrower than its grid.  Waveforms with
  /// changes_begin_at_breakpoints() are resolved exactly; smooth
  /// waveforms (sine) are pre-sampled at period/64 between breakpoints,
  /// so grazing excursions narrower than that may be missed.
  std::vector<TimeInterval> on_intervals(double threshold,
                                         double horizon = 1.0) const;
};

/// Constant value.
class DcWave final : public Waveform {
 public:
  explicit DcWave(double level) : level_(level) {}
  double value(double) const override { return level_; }
  bool changes_begin_at_breakpoints() const override { return true; }

 private:
  double level_;
};

/// offset + amplitude * sin(2 pi f (t - delay) + phase), 0 before delay.
class SineWave final : public Waveform {
 public:
  SineWave(double offset, double amplitude, double freq_hz, double delay = 0.0,
           double phase_rad = 0.0);
  double value(double t) const override;
  double dc_value() const override { return offset_; }
  double period() const override { return freq_ > 0.0 ? 1.0 / freq_ : 0.0; }
  /// The only slope discontinuity is the turn-on instant at `delay`.
  void breakpoints(double t0, double t1,
                   std::vector<double>& out) const override;

 private:
  double offset_, amplitude_, freq_, delay_, phase_;
};

/// SPICE-style periodic pulse: v1 -> v2 with linear edges.
class PulseWave final : public Waveform {
 public:
  PulseWave(double v1, double v2, double delay, double rise, double fall,
            double width, double period);
  double value(double t) const override;
  double dc_value() const override { return v1_; }
  double period() const override { return period_; }
  /// Exact edge instants per period k >= 0: delay + k·T + {0, rise,
  /// rise+width, rise+width+fall}.  Handles nonzero delay and rise/fall
  /// times — the naive period()-multiples enumeration misses all four.
  void breakpoints(double t0, double t1,
                   std::vector<double>& out) const override;
  /// Flat between edges; the four edge breakpoints bracket every ramp.
  bool changes_begin_at_breakpoints() const override { return true; }

 private:
  double v1_, v2_, delay_, rise_, fall_, width_, period_;
};

/// Piecewise-linear waveform through (t, v) points; clamps outside range.
class PwlWave final : public Waveform {
 public:
  explicit PwlWave(std::vector<std::pair<double, double>> points);
  double value(double t) const override;
  /// Every knot is a slope discontinuity.
  void breakpoints(double t0, double t1,
                   std::vector<double>& out) const override;

 private:
  std::vector<std::pair<double, double>> points_;
};

/// Two-phase non-overlapping clock generator.  Phase 1 is high during the
/// first part of each period, phase 2 during the second, separated by a
/// non-overlap gap — the standard SI sampling clock.
struct TwoPhaseClock {
  double period;        ///< full clock period [s]
  double high_level;    ///< logic-high voltage
  double low_level;     ///< logic-low voltage
  double edge;          ///< rise/fall time [s]
  double non_overlap;   ///< gap between phases [s]

  /// Builds the phase-1 (sampling) waveform.
  std::unique_ptr<Waveform> phase1() const;
  /// Builds the phase-2 (hold/output) waveform.
  std::unique_ptr<Waveform> phase2() const;
};

}  // namespace si::spice
