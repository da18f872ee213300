// Scope-restricted MNA engine for the event-driven transient.
//
// A "scope" is the set of MNA unknowns belonging to the currently
// active partition blocks (plus the always-active rail block).  The
// engine solves the SAME full-size system as the monolithic MnaEngine,
// restricted to the scope by the exact Dirichlet reduction:
//
//   - rows of out-of-scope unknowns become identity equations
//     (A[r,r] = 1, b[r] = x[r]) — the unknown holds its value;
//   - out-of-scope columns of in-scope rows are condensed onto the RHS
//     through the held iterate (b[r] -= a_rc * x[c]).
//
// When every block is active the restriction is the identity and the
// assembled system is bit-identical to the monolithic engine's, which
// is what makes the event engine's solved steps agree with the full
// solve to the last digit.  Each distinct active-block mask gets its
// own spice::MnaSystem (cached sparsity pattern, slot memos and
// symbolic factorization when sparse), so steady-state scheduling (the
// same few masks recurring every clock period) runs the allocation-free
// pattern-cached hot path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "event/partition.hpp"
#include "spice/mna.hpp"

namespace si::event {

class ScopedMnaEngine {
 public:
  ScopedMnaEngine(spice::Circuit& c, const CircuitPartition& p);

  /// One damped Newton solve restricted to the blocks with
  /// active[b] != 0 (block 0 is always included).  `x` is the full MNA
  /// vector; only in-scope entries are updated.  Same contract as
  /// MnaEngine::newton otherwise (returns iterations, throws
  /// ConvergenceError).
  int newton(const spice::StampContext& ctx, linalg::Vector& x,
             const spice::NewtonOptions& opt,
             const std::vector<unsigned char>& active);

  /// Calls Element::accept on every in-scope element of the mask (after
  /// a successful newton() with the same mask).  Out-of-scope elements
  /// keep their companion state frozen — holding a latent block means
  /// holding its reactive history too, so the hold is independent of how
  /// many steps it lasts.
  void accept_scope(const std::vector<unsigned char>& active,
                    const spice::SolutionView& sol,
                    const spice::StampContext& ctx);

  /// Aggregate stats over all scope states.
  spice::MnaStats stats() const;

  /// Number of distinct active-block masks solved so far.
  std::size_t scope_states() const { return states_.size(); }

 private:
  /// Per-active-mask solver state: the restricted system and the
  /// in-scope element lists.
  struct ScopeState {
    std::vector<unsigned char> scope;  ///< per-unknown in-scope flags
    std::vector<spice::Element*> linear;
    std::vector<spice::Element*> nonlinear;
    spice::MnaSystem<double> system{/*report=*/false};
  };

  ScopeState& state_for(const std::vector<unsigned char>& active,
                        const spice::StampContext& ctx);
  int iterate(ScopeState& st, const spice::StampContext& ctx,
              linalg::Vector& x, const spice::NewtonOptions& opt);

  spice::Circuit* circuit_;
  const CircuitPartition* partition_;
  std::uint64_t revision_ = 0;

  /// Rows each element writes (terminal node indices + branch rows);
  /// an element is in scope iff any of its rows is.
  std::vector<std::vector<int>> element_rows_;

  std::map<std::vector<unsigned char>, ScopeState> states_;

  // Shared workspaces (same size for every scope: the full system).
  linalg::Vector seed_;  // the caller's seed: a pattern miss restarts here
  linalg::Vector b0_;
  linalg::Vector b_;
  linalg::Vector x_new_;
};

}  // namespace si::event
