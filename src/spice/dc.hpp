// DC operating point (Newton-Raphson with damping and gmin stepping)
// and DC sweeps.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/cancel.hpp"
#include "spice/circuit.hpp"

namespace si::spice {

/// Newton iteration controls shared by DC and transient analyses.
struct NewtonOptions {
  int max_iterations = 200;
  double v_abstol = 1e-9;   ///< node voltage convergence tolerance [V]
  double v_reltol = 1e-6;
  double max_step = 0.5;    ///< per-iteration clamp on voltage updates [V]
  double gmin = 1e-12;      ///< leak conductance in nonlinear devices
  /// Cooperative cancellation: when set, every Newton iteration calls
  /// checkpoint(), so a cancelled or deadline-expired token unwinds a
  /// DC / transient / Monte-Carlo solve with runtime::CancelledError
  /// within one iteration.  The token must outlive the solve; nullptr
  /// (the default) disables the check.
  const runtime::CancelToken* cancel = nullptr;
};

struct DcOptions {
  NewtonOptions newton;
  /// If plain Newton fails, retry while stepping a diagonal conductance
  /// from `gmin_start` down to `gmin_final` in decades.
  bool gmin_stepping = true;
  double gmin_start = 1e-2;
  double gmin_final = 1e-12;
  /// Run the static electrical-rule check before solving and throw
  /// erc::ErcError (with the full diagnostic list) on error-severity
  /// findings.  Set false to simulate a known-bad circuit anyway.
  bool erc_gate = true;
};

/// Thrown when the operating point cannot be found.
class ConvergenceError : public std::runtime_error {
 public:
  explicit ConvergenceError(const std::string& what)
      : std::runtime_error(what) {}
};

struct DcResult {
  linalg::Vector x;   ///< converged MNA solution
  int iterations = 0; ///< Newton iterations of the final solve
};

class MnaEngine;

/// Solves the DC operating point.  On success every element has
/// accept()ed the solution (operating points captured, capacitor states
/// initialized).  Throws ConvergenceError on failure.
DcResult dc_operating_point(Circuit& c, const DcOptions& opt = {});

/// Same, but reusing a caller-owned engine (pattern / symbolic caches
/// survive across calls) and optionally warm-starting Newton from
/// `warm_start` instead of zero.  A failed warm start falls back to the
/// usual cold start + gmin-stepping ladder.
DcResult dc_operating_point(Circuit& c, MnaEngine& engine,
                            const DcOptions& opt,
                            const linalg::Vector* warm_start = nullptr);

/// Sweeps a user-controlled parameter: `set_point(value)` mutates the
/// circuit (e.g. a source level), then the operating point is solved and
/// `measure` is evaluated.  Returns one measurement per sweep value.
std::vector<double> dc_sweep(
    Circuit& c, const std::vector<double>& values,
    const std::function<void(double)>& set_point,
    const std::function<double(const SolutionView&)>& measure,
    const DcOptions& opt = {});

}  // namespace si::spice
