#include "verify/phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/telemetry.hpp"

namespace si::verify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Smallest q in [1, 64] such that ratio ~= p/q for integer p, or 0.
int rational_den(double ratio) {
  for (int q = 1; q <= 64; ++q) {
    const double p = ratio * q;
    if (std::abs(p - std::round(p)) < 1e-9 * std::max(1.0, std::abs(p)))
      return q;
  }
  return 0;
}

/// Tiles a normalised per-period pattern over [0, h).
std::vector<spice::TimeInterval> tile(const SwitchPhase& sp, double h) {
  std::vector<spice::TimeInterval> out;
  if (sp.period <= 0.0) {
    out = sp.on;  // aperiodic: already absolute
    for (auto& r : out) r.end = std::min(r.end, h);
    return out;
  }
  const int reps = static_cast<int>(std::ceil(h / sp.period)) + 1;
  for (int k = 0; k < reps; ++k) {
    const double base = k * sp.period;
    for (const auto& r : sp.on) {
      if (base + r.begin >= h) continue;
      out.push_back({base + r.begin, std::min(base + r.end, h)});
    }
  }
  return out;
}

}  // namespace

SwitchPhase switch_phase(const spice::Switch& sw) {
  SwitchPhase sp;
  sp.sw = &sw;
  sp.period = sw.control().period();
  sp.on = sw.control().on_intervals(sw.threshold());
  const double span = sp.period > 0.0 ? sp.period : kInf;
  sp.always_off = sp.on.empty();
  sp.always_on = sp.on.size() == 1 && sp.on.front().begin <= 0.0 &&
                 sp.on.front().end >= span;
  return sp;
}

SwitchPhase PhaseResolver::resolve(const spice::Switch& sw) {
  static obs::Counter& resolutions = obs::counter("verify.phase_resolutions");
  ++resolutions_;
  resolutions.add();
  return switch_phase(sw);
}

SwitchPhase PhaseResolver::operator()(const spice::Switch& sw) {
  const std::optional<spice::PulseKey> key = spice::pulse_key(sw);
  if (!key) return resolve(sw);
  auto it = pulses_.find(*key);
  if (it == pulses_.end()) it = pulses_.emplace(*key, resolve(sw)).first;
  SwitchPhase sp = it->second;
  sp.sw = &sw;
  return sp;
}

OverlapReport phase_overlap(const SwitchPhase& a, const SwitchPhase& b) {
  OverlapReport rep;
  if (a.always_off || b.always_off) {
    rep.margin = kInf;
    return rep;
  }

  // Common hyperperiod: q·Pa = p·Pb for a small rational ratio.  Two
  // aperiodic (DC-controlled) switches compare over a token window.
  double h = 0.0;
  if (a.period > 0.0 && b.period > 0.0) {
    const int q = rational_den(a.period / b.period);
    if (q == 0) {
      // Incommensurate clocks: phases drift through every alignment, so
      // some cycle brings the ON spans arbitrarily close.  Report the
      // conservative zero margin (overlap only if one side is always
      // on).
      rep.margin = (a.always_on || b.always_on) ? -kInf : 0.0;
      if (a.always_on && b.always_on) rep.overlap = kInf;
      return rep;
    }
    h = q * a.period;
  } else {
    h = std::max(a.period, b.period);
    if (h <= 0.0) h = 1.0;
  }
  rep.hyperperiod = h;

  const std::vector<spice::TimeInterval> ta = tile(a, h);
  const std::vector<spice::TimeInterval> tb = tile(b, h);

  // Total overlap measure: sum of pairwise intersections.
  for (const auto& ra : ta)
    for (const auto& rb : tb) {
      const double lo = std::max(ra.begin, rb.begin);
      const double hi = std::min(ra.end, rb.end);
      if (hi > lo) rep.overlap += hi - lo;
    }

  // Minimum margin, cyclic over the hyperperiod: largest double-ON run
  // (negated) when overlapping, else the smallest gap between an end of
  // one switch's span and the start of the other's in either direction.
  double worst_overlap = 0.0;
  double min_gap = kInf;
  const auto consider = [&](const spice::TimeInterval& ra,
                            const spice::TimeInterval& rb) {
    const double lo = std::max(ra.begin, rb.begin);
    const double hi = std::min(ra.end, rb.end);
    if (hi > lo) {
      worst_overlap = std::max(worst_overlap, hi - lo);
      return;
    }
    // Cyclic distance between the two disjoint spans.
    const double fwd = rb.begin - ra.end;  // ra before rb
    const double bwd = ra.begin - rb.end;  // rb before ra
    for (const double gap : {fwd, bwd, fwd + h, bwd + h})
      if (gap >= 0.0) min_gap = std::min(min_gap, gap);
  };
  for (const auto& ra : ta)
    for (const auto& rb : tb) consider(ra, rb);

  rep.margin = worst_overlap > 0.0 ? -worst_overlap : min_gap;
  return rep;
}

}  // namespace si::verify
