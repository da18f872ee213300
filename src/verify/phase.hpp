// Exact static clock-phase timing analysis.  Each switch control
// becomes a set of closed-open ON intervals per steady-state period
// (Waveform::on_intervals); overlap and non-overlap margins between two
// switches are then computed symbolically over the pair's hyperperiod
// instead of by time-sampling — a 1 fs overlap is detected just as
// reliably as a 100 ns one.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spice/elements.hpp"
#include "spice/waveform.hpp"

namespace si::verify {

/// The resolved ON pattern of one switch.
struct SwitchPhase {
  const spice::Switch* sw = nullptr;
  double period = 0.0;  ///< 0 = aperiodic (constant or one-shot control)
  /// ON spans, normalised to [0, period) for periodic controls,
  /// absolute for aperiodic ones.
  std::vector<spice::TimeInterval> on;
  bool always_on = false;
  bool always_off = false;
};

/// Extracts the ON pattern of `sw` from its control waveform and
/// threshold.
SwitchPhase switch_phase(const spice::Switch& sw);

/// switch_phase() for the many switches of one check.  Switches with
/// the same spice::pulse_key share one resolution (every switch of the
/// modulator core runs on one of TwoPhaseClock's two phases); each gets
/// a copy with its own `sw`.  Other controls resolve per switch.
/// on_intervals() is a pure function of those inputs, so every result
/// equals switch_phase(sw).  Each resolution counts in
/// verify.phase_resolutions.
class PhaseResolver {
 public:
  SwitchPhase operator()(const spice::Switch& sw);

  /// Patterns resolved so far (Waveform::on_intervals calls).
  std::size_t resolutions() const { return resolutions_; }

 private:
  SwitchPhase resolve(const spice::Switch& sw);

  std::map<spice::PulseKey, SwitchPhase> pulses_;
  std::size_t resolutions_ = 0;
};

/// Overlap/underlap between two switch ON patterns over their common
/// hyperperiod.
struct OverlapReport {
  double hyperperiod = 0.0;  ///< 0 when either side is aperiodic
  double overlap = 0.0;      ///< total seconds per hyperperiod both are ON
  /// Smallest separation between an ON span of one switch and an ON
  /// span of the other (cyclic).  Negative when they overlap: minus the
  /// longest contiguous double-ON run.  +inf when either side never
  /// turns on.
  double margin = 0.0;
};

/// Computes the overlap report for two switches.  Incommensurate
/// periods (no small rational ratio) are handled conservatively by
/// reporting zero margin when both duty patterns are non-empty.
OverlapReport phase_overlap(const SwitchPhase& a, const SwitchPhase& b);

}  // namespace si::verify
