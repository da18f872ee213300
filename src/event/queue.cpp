#include "event/queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "spice/elements.hpp"

namespace si::event {

namespace {

/// A stimulus counts as changed when its sampled value moved more than
/// this since its last firing [V or A].
constexpr double kWaveTol = 1e-9;

/// Blocks reachable from a stimulus: the driving element's own block,
/// plus — when the element pins a rail node (supply, clock phase
/// driver) — the block of every element hanging off that rail node,
/// since a rail edge re-excites all of them at once.
void attach_blocks(const spice::Circuit& c, const CircuitPartition& p,
                   std::size_t elem_idx, std::vector<int>& out) {
  const auto& elements = c.elements();
  const spice::Element& e = *elements[elem_idx];
  out.push_back(p.element_block[elem_idx]);

  std::vector<spice::NodeId> rails;
  for (const auto& t : e.terminals())
    if (t.node != spice::kGroundNode &&
        p.node_block[static_cast<std::size_t>(t.node)] == 0)
      rails.push_back(t.node);
  if (!rails.empty()) {
    for (std::size_t j = 0; j < elements.size(); ++j) {
      if (j == elem_idx) continue;
      for (const auto& t : elements[j]->terminals())
        if (std::find(rails.begin(), rails.end(), t.node) != rails.end()) {
          out.push_back(p.element_block[j]);
          break;
        }
    }
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

EventQueue::EventQueue(const spice::Circuit& c, const CircuitPartition& p,
                       double t_stop)
    : t_stop_(t_stop) {
  const auto& elements = c.elements();
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const spice::Element& e = *elements[i];
    const spice::Waveform* wave = nullptr;
    if (const auto* vs = dynamic_cast<const spice::VoltageSource*>(&e))
      wave = &vs->waveform();
    else if (const auto* is = dynamic_cast<const spice::CurrentSource*>(&e))
      wave = &is->waveform();
    else if (const auto* sw = dynamic_cast<const spice::Switch*>(&e))
      wave = &sw->control();
    if (!wave) continue;

    Stimulus s;
    s.wave = wave;
    s.last_value = wave->value(0.0);
    attach_blocks(c, p, i, s.blocks);
    // A switch control stimulates both sides of the switch, not just the
    // owning side: closing it couples the blocks either way.
    if (const auto* sw = dynamic_cast<const spice::Switch*>(&e)) {
      for (const auto& t : sw->terminals()) {
        if (t.node == spice::kGroundNode) continue;
        const int b = p.node_block[static_cast<std::size_t>(t.node)];
        if (b > 0 &&
            std::find(s.blocks.begin(), s.blocks.end(), b) == s.blocks.end())
          s.blocks.push_back(b);
      }
      std::sort(s.blocks.begin(), s.blocks.end());
      // Exact on/off crossing instants of the control against the
      // switch threshold, merged into the heap by push_next_breakpoint.
      s.toggle_period = wave->period();
      for (const auto& run : wave->on_intervals(sw->threshold())) {
        if (run.begin > 0.0 && std::isfinite(run.begin))
          s.toggles.push_back(run.begin);
        if (std::isfinite(run.end)) {
          double end = run.end;
          // A run ending exactly on the period boundary toggles at the
          // start of the next period: offset 0.
          if (s.toggle_period > 0.0 && end >= s.toggle_period) end = 0.0;
          if (end > 0.0 || s.toggle_period > 0.0) s.toggles.push_back(end);
        }
      }
      std::sort(s.toggles.begin(), s.toggles.end());
      s.toggles.erase(std::unique(s.toggles.begin(), s.toggles.end()),
                      s.toggles.end());
    }

    const std::size_t idx = stimuli_.size();
    if (!wave->changes_begin_at_breakpoints()) sampled_.push_back(idx);
    stimuli_.push_back(std::move(s));
    push_next_breakpoint(idx, 0.0);
  }
  fired_.assign(stimuli_.size(), 0);
}

double EventQueue::next_toggle(const Stimulus& s, double after) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (s.toggles.empty()) return kInf;
  if (s.toggle_period <= 0.0) {
    for (const double t : s.toggles)
      if (t > after) return t;
    return kInf;
  }
  const double base = std::floor(after / s.toggle_period) * s.toggle_period;
  for (int k = 0; k < 3; ++k)
    for (const double off : s.toggles) {
      const double t = base + k * s.toggle_period + off;
      if (t > after) return t;
    }
  return kInf;
}

void EventQueue::push_next_breakpoint(std::size_t stim, double after) {
  const Stimulus& s = stimuli_[stim];
  const spice::Waveform& w = *s.wave;
  // Exact switch-threshold crossings compete with the waveform's own
  // breakpoints for the next event slot (one pending entry per
  // stimulus, so push the earlier of the two).
  const double toggle = next_toggle(s, after);
  // Window the query so periodic stimuli never enumerate breakpoints far
  // beyond the horizon; aperiodic ones are scanned to t_stop once.
  const double period = w.period();
  double t0 = after;
  for (;;) {
    const double t1 =
        period > 0.0 ? std::min(t0 + period, t_stop_) : t_stop_;
    if (t1 <= t0) return;
    scratch_.clear();
    w.breakpoints(t0, t1, scratch_);
    double cand = std::numeric_limits<double>::infinity();
    if (!scratch_.empty())
      cand = *std::min_element(scratch_.begin(), scratch_.end());
    if (toggle > t0 && toggle <= t1) cand = std::min(cand, toggle);
    if (cand <= t1) {
      heap_.push({cand, stim});
      return;
    }
    if (t1 >= t_stop_) return;
    t0 = t1;
  }
}

void EventQueue::mark(const Stimulus& s,
                      std::vector<unsigned char>& stimulated) const {
  for (const int b : s.blocks)
    if (b >= 0 && static_cast<std::size_t>(b) < stimulated.size())
      stimulated[static_cast<std::size_t>(b)] = 1;
}

DispatchCounts EventQueue::step(double t_prev, double t,
                                std::vector<unsigned char>& stimulated) {
  DispatchCounts counts;

  while (!heap_.empty() && heap_.top().first <= t) {
    const auto [bt, stim] = heap_.top();
    heap_.pop();
    if (bt > t_prev) {
      ++counts.breakpoints;
      fired_[stim] = 1;
      Stimulus& s = stimuli_[stim];
      mark(s, stimulated);
      // A breakpoint on a flat-between-edges waveform opens a ramp
      // window: keep sampling it until the value settles so the step
      // where a switch control crosses its threshold always stimulates,
      // even when the crossing falls strictly between the ramp's edge
      // breakpoints (or an edge instant lands a ULP past the grid).
      if (!s.hot && s.wave->changes_begin_at_breakpoints()) {
        s.hot = true;
        hot_.push_back(stim);
      }
    }
    push_next_breakpoint(stim, bt);
  }

  for (std::size_t h = 0; h < hot_.size();) {
    Stimulus& s = stimuli_[hot_[h]];
    const double v = s.wave->value(t);
    if (fired_[hot_[h]] || std::abs(v - s.last_value) > kWaveTol) {
      if (!fired_[hot_[h]]) {
        ++counts.value_changes;
        mark(s, stimulated);
      }
      s.last_value = v;
      ++h;
    } else {
      // Flat again: the ramp is over, stop sampling this stimulus.
      s.hot = false;
      hot_[h] = hot_.back();
      hot_.pop_back();
    }
  }

  // Only drifting waveforms are sampled; breakpoint-covered stimuli
  // (pulse clocks, constants) were fully handled by the heap above.
  for (const std::size_t i : sampled_) {
    Stimulus& s = stimuli_[i];
    const double v = s.wave->value(t);
    if (fired_[i] || std::abs(v - s.last_value) > kWaveTol) {
      if (!fired_[i]) {
        ++counts.value_changes;
        mark(s, stimulated);
      }
      s.last_value = v;
    }
  }
  if (counts.breakpoints > 0) std::fill(fired_.begin(), fired_.end(), 0);
  return counts;
}

}  // namespace si::event
