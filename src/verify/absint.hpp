// Forward abstract interpreter over the circuit IR.  Propagates
// supply / source / device-tolerance intervals to every node across the
// clock's atomic phase segments, resolving class-AB memory pairs, diode
// masters, and current mirrors through dedicated transfer functions and
// everything else through conservative join transfers, until a fixpoint
// (with widening on signal-flow feedback loops) is reached.
//
// Two evaluation modes share the same circuit model:
//   - interval: sound over-approximation of all reachable values for
//     every parameter corner (the screening pass);
//   - concrete: scalar evaluation at one Corner assignment, used to
//     certify a candidate violation with a witness the simulator can
//     reproduce.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"
#include "verify/interval.hpp"
#include "verify/phase.hpp"
#include "verify/sfg.hpp"

namespace si::verify {

struct AbsOptions {
  double supply_rel_tol = 0.02;   ///< DC voltage-source relative tolerance
  double vt_abs_tol = 0.05;       ///< threshold-voltage tolerance [V]
  double beta_rel_tol = 0.05;     ///< KP*W/L relative tolerance
  double current_rel_tol = 0.05;  ///< current-source relative tolerance
  double rail_margin = 0.3;       ///< allowed excursion past the rails [V]
  int max_iterations = 64;        ///< fixpoint pass cap
  int widen_after = 8;            ///< updates per feedback node before widening
};

/// One atomic clock segment [begin, end) of the hyperperiod: every
/// periodic switch holds one on/off state throughout.
struct Segment {
  double begin = 0.0;
  double end = 0.0;
};

/// A concrete corner: scale/shift per toleranced parameter class, plus
/// a per-current-source scale.  Nominal = all scales 1, shifts 0.
struct Corner {
  double vdd_scale = 1.0;
  double vt_n_shift = 0.0;
  double vt_p_shift = 0.0;
  double beta_n_scale = 1.0;
  double beta_p_scale = 1.0;
  std::map<std::string, double> source_scale;
};

/// Analysis record of one detected class-AB memory pair.
struct PairAnalysis {
  const spice::Mosfet* mn = nullptr;
  const spice::Mosfet* mp = nullptr;
  int drain = 0;
  const spice::Switch* sn = nullptr;  ///< n-gate sampling switch (null = diode)
  const spice::Switch* sp = nullptr;  ///< p-gate sampling switch (null = diode)
  int rail_node = -1;                 ///< PMOS source rail (-1 = unidentified)
  double rail_nominal = 0.0;

  // Toleranced parameter intervals.
  Interval vdd, vt_n, vt_p, beta_n, beta_p;
  // Sampling-phase results of the class-AB transfer function.
  Interval i_in, i_n, i_p, v_drain, vov_n, vov_p;

  bool resolved = false;       ///< pair could be analysed at all
  bool input_forked = false;   ///< input current provenance is a split path
  std::vector<std::string> source_deps;  ///< current sources feeding the pair
  std::vector<int> sampling_segments;
  std::vector<int> hold_segments;  ///< gates floating, value held
};

/// Concrete (scalar) operating record of one pair at one Corner.
struct PairOp {
  double vdd = 0.0, vt_n = 0.0, vt_p = 0.0;
  double i_in = 0.0, i_n = 0.0, i_p = 0.0;
  double v_drain = 0.0, vov_n = 0.0, vov_p = 0.0;
  /// Drain voltage during hold (downstream sink at the same corner);
  /// NaN when the hold path is not determinate.
  double v_drain_hold = 0.0;
  bool valid = false;
};

struct AbsResult {
  double hyperperiod = 0.0;
  std::vector<Segment> segments;
  /// v[node][segment]: abstract voltage; empty = nothing proven.
  std::vector<std::vector<Interval>> v;
  /// Per-node hull over all segments.
  std::vector<Interval> hull;
  std::vector<PairAnalysis> pairs;
  /// Per-switch resolved phases, aligned with switch_elements.
  std::vector<SwitchPhase> phases;
  std::vector<const spice::Switch*> switch_elements;
  /// The legal voltage window: [ground - margin, max rail + margin].
  Interval rail_window;
  Sfg sfg;
  std::size_t iterations = 0;
  std::size_t widenings = 0;
  std::size_t nodes_resolved = 0;
};

/// Builds the model and runs the interval fixpoint.
class AbstractInterpreter {
 public:
  AbstractInterpreter(const spice::Circuit& c, const AbsOptions& opt);
  ~AbstractInterpreter();
  AbstractInterpreter(const AbstractInterpreter&) = delete;
  AbstractInterpreter& operator=(const AbstractInterpreter&) = delete;

  /// Runs the interval analysis to fixpoint.
  AbsResult run();

  /// Concrete evaluation of pair `pair` of `r` at `corner`.  Adds the
  /// number of pair input currents it evaluated to `*iin_evals` when
  /// given.  Const and reentrant: all per-call state is local.
  PairOp eval_pair(const AbsResult& r, std::size_t pair,
                   const Corner& corner,
                   std::size_t* iin_evals = nullptr) const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Scalar class-AB solve: both gates diode-tied to the drain, NMOS
/// source grounded, PMOS source at vdd; returns the drain voltage where
/// i_n(v) - i_p(v) = i_in (square-law saturation, monotone, bisected to
/// one ULP).  Exposed for the property checkers and tests.
double class_ab_drain_voltage(double vdd, double vt_n, double vt_p,
                              double beta_n, double beta_p, double i_in);

}  // namespace si::verify
