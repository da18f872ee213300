// DC operating point (Newton-Raphson with damping and gmin stepping)
// and DC sweeps.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/cancel.hpp"
#include "spice/circuit.hpp"

namespace si::spice {

/// Newton iteration controls shared by DC and transient analyses.  The
/// convergence tolerances and the update clamp are constants of the
/// Newton loop (spice/mna.cpp); the leak conductance is spice::kGmin.
struct NewtonOptions {
  int max_iterations = 200;
  /// Cooperative cancellation: when set, every Newton iteration calls
  /// checkpoint(), so a cancelled or deadline-expired token unwinds a
  /// DC / transient / Monte-Carlo solve with runtime::CancelledError
  /// within one iteration.  The token must outlive the solve; nullptr
  /// (the default) disables the check.
  const runtime::CancelToken* cancel = nullptr;
};

/// If plain Newton fails, dc_operating_point retries from zero while
/// stepping a diagonal conductance from 1e-2 S down to spice::kGmin in
/// decades (the gmin ladder, spice/dc.cpp).
struct DcOptions {
  NewtonOptions newton;
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
