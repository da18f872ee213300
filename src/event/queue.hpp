// Discrete-event queue for the event-driven transient engine: a binary
// min-heap of waveform breakpoints (clock edges, PWL knots, stimulus
// turn-on instants) with one pending entry per stimulus, refilled
// lazily so a 10^6-clock-period run never materializes its full event
// list.  Each stimulus knows which partition blocks it drives; popping
// an event (or detecting a sampled-value change) stimulates — i.e.
// reactivates — those blocks.
#pragma once

#include <cstddef>
#include <queue>
#include <vector>

#include "event/partition.hpp"
#include "spice/waveform.hpp"

namespace si::event {

/// Events and value changes dispatched by one EventQueue::step().
struct DispatchCounts {
  std::size_t breakpoints = 0;    ///< heap events popped in the interval
  std::size_t value_changes = 0;  ///< stimuli that moved more than tol
};

class EventQueue {
 public:
  /// Collects every stimulus waveform of the circuit (source waveforms,
  /// switch controls) with the blocks it drives, and seeds the heap with
  /// each stimulus's first breakpoint in (0, t_stop].
  EventQueue(const spice::Circuit& c, const CircuitPartition& p,
             double t_stop);

  /// Advances the queue across the step interval (t_prev, t]: pops
  /// every breakpoint in it and samples every stimulus at t.  A block
  /// driven by a popped breakpoint or by a stimulus whose value moved
  /// more than 1e-9 (V or A) since its last firing gets stimulated[b] = 1
  /// (other entries are left untouched, so callers can accumulate).
  ///
  /// A stimulus's reference value only advances when it fires — slow
  /// drifts accumulate until they exceed the tolerance instead of
  /// slipping through one sub-tolerance step at a time.
  DispatchCounts step(double t_prev, double t,
                      std::vector<unsigned char>& stimulated);

  std::size_t stimulus_count() const { return stimuli_.size(); }

 private:
  struct Stimulus {
    const spice::Waveform* wave = nullptr;
    std::vector<int> blocks;  ///< partition blocks this stimulus drives
    double last_value = 0.0;  ///< value at the last firing
    bool hot = false;         ///< inside a breakpoint-opened ramp window
    /// Switch stimuli only: exact threshold-crossing instants from
    /// Waveform::on_intervals — per-period offsets when toggle_period is
    /// positive, absolute instants otherwise.  Merged into the heap so a
    /// switch toggle is an event even when the crossing falls strictly
    /// between breakpoints (smooth controls) or off the sample grid.
    std::vector<double> toggles;
    double toggle_period = 0.0;
  };

  /// Indices of stimuli whose waveforms can drift between breakpoints
  /// (sine, PWL) and therefore need per-step value sampling.  Pulse
  /// clocks and constants are excluded — their change onsets are fully
  /// covered by the breakpoint heap, and on a mostly-latent step this
  /// turns the sampling pass from O(#switches) into O(#drifting
  /// sources).

  void push_next_breakpoint(std::size_t stim, double after);
  /// Earliest toggle instant of `s` strictly after `after` (+inf when
  /// none / not a switch stimulus).
  double next_toggle(const Stimulus& s, double after) const;
  void mark(const Stimulus& s, std::vector<unsigned char>& stimulated) const;

  std::vector<std::size_t> sampled_;
  /// Breakpoint-covered stimuli currently inside a ramp: a fired
  /// breakpoint opens the window, and the stimulus is sampled every step
  /// until its value stops moving (the ramp is over).  This catches the
  /// threshold-crossing step of a switch edge even when the crossing
  /// falls strictly between the ramp's two breakpoints — without paying
  /// for per-step sampling of every flat clock in steady state.
  std::vector<std::size_t> hot_;

  std::vector<Stimulus> stimuli_;
  std::vector<unsigned char> fired_;  ///< per-step firing scratch
  double t_stop_ = 0.0;
  /// (breakpoint time, stimulus index), earliest first.
  using HeapEntry = std::pair<double, std::size_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
  std::vector<double> scratch_;  ///< breakpoint query buffer
};

}  // namespace si::event
