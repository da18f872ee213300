#include "spice/mna.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/telemetry.hpp"
#include "runtime/env.hpp"

namespace si::spice {

namespace {

/// Engine-level telemetry handles, registered once and hoisted so the
/// Newton hot loop records through preallocated atomics only.
struct MnaTelemetry {
  obs::Counter& newton_solves = obs::counter("mna.newton_solves");
  obs::Counter& newton_iterations = obs::counter("mna.newton_iterations");
  obs::Counter& pattern_builds = obs::counter("mna.pattern_builds");
  obs::Counter& symbolic_factors = obs::counter("mna.symbolic_factors");
  obs::Counter& numeric_refactors = obs::counter("mna.numeric_refactors");
  obs::Counter& dense_factors = obs::counter("mna.dense_factors");
  obs::Counter& pivot_repivots = obs::counter("mna.pivot_repivots");
  obs::Counter& dense_fallbacks = obs::counter("mna.dense_fallback_engaged");
  obs::Counter& singular_retries = obs::counter("mna.singular_matrix");
  obs::Timer& newton_time = obs::timer("mna.newton");

  static MnaTelemetry& get() {
    static MnaTelemetry t;
    return t;
  }
};

}  // namespace

SolverKind solver_kind_from_env() {
  // A typo must not silently benchmark the auto-selected solver; the
  // shared strict parser throws naming the valid choices.
  const auto v =
      runtime::parse_env_choice("SI_SOLVER", {"auto", "dense", "sparse"});
  if (!v || *v == "auto") return SolverKind::kAuto;
  return *v == "dense" ? SolverKind::kDense : SolverKind::kSparse;
}

SolverKind resolve_solver(SolverKind requested, std::size_t n) {
  if (requested != SolverKind::kAuto) return requested;
  const SolverKind env = solver_kind_from_env();
  if (env != SolverKind::kAuto) return env;
  return n >= kSparseAutoThreshold ? SolverKind::kSparse : SolverKind::kDense;
}

// ------------------------------------------------------------ MnaEngine

MnaEngine::MnaEngine(Circuit& c, SolverKind kind)
    : circuit_(&c), requested_(kind) {}

void MnaEngine::prepare(const StampContext& ctx) {
  Circuit& c = *circuit_;
  c.finalize();
  if (prepared_ && revision_ == c.revision()) return;
  // A sticky dense fallback records a stamp-pattern contract violation
  // for ONE topology.  An edit (revision bump) rebuilds the pattern, so
  // the new topology gets a fresh sparse attempt — without this reset a
  // single pattern miss used to pin the circuit to the dense solver
  // across every later edit.
  if (revision_ != c.revision()) dense_fallback_ = false;
  revision_ = c.revision();
  prepared_ = true;
  ++stats_.workspace_allocs;

  linear_.clear();
  nonlinear_.clear();
  for (const auto& e : c.elements())
    (e->nonlinear() ? nonlinear_ : linear_).push_back(e.get());

  const std::size_t n = c.system_size();
  active_ = dense_fallback_ ? SolverKind::kDense : resolve_solver(requested_, n);
  b0_.assign(n, 0.0);
  b_.assign(n, 0.0);
  x_new_.assign(n, 0.0);
  lu_warm_ = false;
  lin_memo_warm_ = false;
  nl_memo_warm_ = false;

  if (active_ == SolverKind::kDense) {
    a0_dense_.resize(n, n);
    a_dense_.resize(n, n);
    pattern_.reset();
    return;
  }

  // Discovery pass: record every (row, col) an element can touch.  The
  // same topology stamps different coordinate sets per analysis mode
  // (capacitor companions vanish at DC), so record under both; the
  // builder symmetrizes, which also covers the MOSFET drain/source
  // orientation swap.
  linalg::PatternBuilder rec(static_cast<int>(n));
  linalg::Vector scratch_b(n, 0.0);
  linalg::Vector scratch_x(n, 0.0);
  RealStamper r(c, rec, scratch_b, scratch_x);
  StampContext probe = ctx;
  probe.mode = AnalysisMode::kDcOperatingPoint;
  for (const auto& e : c.elements()) e->stamp(r, probe);
  probe.mode = AnalysisMode::kTransient;
  if (probe.dt <= 0.0) probe.dt = 1.0;
  probe.integrator = Integrator::kTrapezoidal;
  for (const auto& e : c.elements()) e->stamp(r, probe);
  pattern_ = rec.build(/*symmetrize=*/true);
  ++stats_.pattern_builds;
  MnaTelemetry::get().pattern_builds.add();
  a0_sparse_ = linalg::SparseMatrixD(pattern_);
  a_sparse_ = linalg::SparseMatrixD(pattern_);
  lu_ = linalg::SparseLuD();  // drop the stale symbolic factorization
}

void MnaEngine::stamp_baseline(const StampContext& ctx,
                               const linalg::Vector& x, double gdiag) {
  Circuit& c = *circuit_;
  const std::size_t n_nodes = c.node_count() - 1;
  b0_.assign(b0_.size(), 0.0);
  ++stats_.base_stamps;
  if (active_ == SolverKind::kDense) {
    a0_dense_.set_zero();
    RealStamper s(c, a0_dense_, b0_, x);
    for (Element* e : linear_) e->stamp(s, ctx);
    for (std::size_t i = 0; i < n_nodes; ++i) a0_dense_(i, i) += gdiag;
  } else {
    a0_sparse_.set_zero();
    if (lin_memo_warm_)
      lin_memo_.start_replay();
    else
      lin_memo_.start_record();
    RealStamper s(c, a0_sparse_, b0_, x, &lin_memo_);
    for (Element* e : linear_) e->stamp(s, ctx);
    lin_memo_warm_ = true;
    const auto& diag = pattern_->diag_slots();
    auto& vals = a0_sparse_.values();
    for (std::size_t i = 0; i < n_nodes; ++i)
      vals[static_cast<std::size_t>(diag[i])] += gdiag;
  }
}

void MnaEngine::assemble_iteration(const StampContext& ctx,
                                   const linalg::Vector& x) {
  Circuit& c = *circuit_;
  b_ = b0_;
  ++stats_.nonlinear_stamps;
  if (active_ == SolverKind::kDense) {
    a_dense_ = a0_dense_;
    RealStamper s(c, a_dense_, b_, x);
    for (Element* e : nonlinear_) e->stamp(s, ctx);
  } else {
    a_sparse_.copy_values_from(a0_sparse_);
    if (nl_memo_warm_)
      nl_memo_.start_replay();
    else
      nl_memo_.start_record();
    RealStamper s(c, a_sparse_, b_, x, &nl_memo_);
    for (Element* e : nonlinear_) e->stamp(s, ctx);
    nl_memo_warm_ = true;
  }
}

void MnaEngine::solve_dense() {
  ++stats_.dense_factors;
  MnaTelemetry::get().dense_factors.add();
  linalg::lu_factor_in_place(a_dense_, perm_);
  linalg::lu_solve_in_place(a_dense_, perm_, b_, x_new_);
}

void MnaEngine::solve_sparse() {
  MnaTelemetry& tm = MnaTelemetry::get();
  if (!lu_warm_) {
    lu_.factor(a_sparse_);
    lu_warm_ = true;
    ++stats_.symbolic_factors;
    tm.symbolic_factors.add();
  } else {
    try {
      lu_.refactor(a_sparse_);
      ++stats_.numeric_refactors;
      tm.numeric_refactors.add();
    } catch (const linalg::PivotDriftError&) {
      // Operating point drifted past the frozen pivot choice: redo the
      // pivoting factorization once and carry on with the new order.
      lu_.factor(a_sparse_);
      ++stats_.symbolic_factors;
      ++stats_.pivot_repivots;
      tm.symbolic_factors.add();
      tm.pivot_repivots.add();
    }
  }
  lu_.solve(b_, x_new_);
}

int MnaEngine::newton(const StampContext& ctx, linalg::Vector& x,
                      const NewtonOptions& opt, double extra_gdiag) {
  MnaTelemetry& tm = MnaTelemetry::get();
  obs::TraceSpan span("mna.newton");
  obs::ScopedTimer timed(tm.newton_time);
  tm.newton_solves.add();
  for (int attempt = 0; attempt < 2; ++attempt) {
    prepare(ctx);
    const std::size_t n = circuit_->system_size();
    const std::size_t n_nodes = circuit_->node_count() - 1;
    if (x.size() != n) x.assign(n, 0.0);

    try {
      stamp_baseline(ctx, x, opt.gmin + extra_gdiag);

      for (int it = 1; it <= opt.max_iterations; ++it) {
        // Cancellation / deadline checkpoint: CancelledError is not a
        // ConvergenceError, so it unwinds past the gmin ladder instead
        // of being retried at a different gmin.
        if (opt.cancel) opt.cancel->checkpoint();
        assemble_iteration(ctx, x);
        tm.newton_iterations.add();
        try {
          if (active_ == SolverKind::kDense)
            solve_dense();
          else
            solve_sparse();
        } catch (const linalg::SingularMatrixError& e) {
          tm.singular_retries.add();
          throw ConvergenceError(std::string("singular MNA matrix: ") +
                                 e.what());
        }

        if (nonlinear_.empty()) {
          // Linear circuits solve exactly in one step; no damping needed.
          x = x_new_;
          return it;
        }

        // Damp: clamp per-node voltage updates to avoid overshooting the
        // square-law device curves, and check convergence on the raw
        // update.
        bool converged = true;
        for (std::size_t i = 0; i < n; ++i) {
          double dv = x_new_[i] - x[i];
          if (i < n_nodes) {
            const double tol = opt.v_abstol + opt.v_reltol * std::abs(x[i]);
            if (std::abs(dv) > tol) converged = false;
            dv = std::clamp(dv, -opt.max_step, opt.max_step);
          }
          x[i] += dv;
        }
        if (converged && it > 1) return it;
      }
      throw ConvergenceError("Newton iteration did not converge in " +
                             std::to_string(opt.max_iterations) +
                             " iterations");
    } catch (const linalg::PatternMissError&) {
      // An element stamped outside the discovered pattern (stamp-pattern
      // contract violation): fall back to the dense path until the next
      // topology edit (prepare() clears the flag on a revision change).
      dense_fallback_ = true;
      prepared_ = false;
      ++stats_.dense_fallbacks;
      tm.dense_fallbacks.add();
    }
  }
  throw ConvergenceError("MNA engine: dense fallback failed to engage");
}

// ------------------------------------------------------------- AcEngine

AcEngine::AcEngine(Circuit& c, SolverKind kind)
    : circuit_(&c), requested_(kind) {}

void AcEngine::prepare() {
  Circuit& c = *circuit_;
  c.finalize();
  if (prepared_ && revision_ == c.revision()) return;
  // Same reset as MnaEngine::prepare(): the fallback is only sticky
  // within one topology revision.
  if (revision_ != c.revision()) dense_fallback_ = false;
  revision_ = c.revision();
  prepared_ = true;
  ++stats_.workspace_allocs;

  const std::size_t n = c.system_size();
  active_ = dense_fallback_ ? SolverKind::kDense : resolve_solver(requested_, n);
  b_.assign(n, std::complex<double>{});
  lu_warm_ = false;
  memo_warm_ = false;

  if (active_ == SolverKind::kDense) {
    a_dense_.resize(n, n);
    pattern_.reset();
    return;
  }

  // Small-signal stamps touch the same coordinates at every frequency
  // (only the admittance values scale with omega), so one discovery
  // pass at an arbitrary nonzero frequency freezes the pattern.
  linalg::PatternBuilder rec(static_cast<int>(n));
  linalg::ComplexVector scratch_b(n);
  ComplexStamper r(c, rec, scratch_b);
  for (const auto& e : c.elements()) e->stamp_ac(r, 1.0);
  pattern_ = rec.build(/*symmetrize=*/true);
  ++stats_.pattern_builds;
  MnaTelemetry::get().pattern_builds.add();
  a_sparse_ = linalg::SparseMatrixZ(pattern_);
  lu_ = linalg::SparseLuZ();
}

void AcEngine::assemble(double omega) {
  MnaTelemetry& tm = MnaTelemetry::get();
  obs::TraceSpan span("ac.assemble");
  for (int attempt = 0; attempt < 2; ++attempt) {
    prepare();
    Circuit& c = *circuit_;
    b_.assign(b_.size(), std::complex<double>{});
    try {
      if (active_ == SolverKind::kDense) {
        a_dense_.set_zero();
        ComplexStamper s(c, a_dense_, b_);
        for (const auto& e : c.elements()) e->stamp_ac(s, omega);
        ++stats_.dense_factors;
        tm.dense_factors.add();
        linalg::lu_factor_in_place(a_dense_, perm_);
      } else {
        a_sparse_.set_zero();
        if (memo_warm_)
          memo_.start_replay();
        else
          memo_.start_record();
        ComplexStamper s(c, a_sparse_, b_, &memo_);
        for (const auto& e : c.elements()) e->stamp_ac(s, omega);
        memo_warm_ = true;
        if (!lu_warm_) {
          lu_.factor(a_sparse_);
          lu_warm_ = true;
          ++stats_.symbolic_factors;
          tm.symbolic_factors.add();
        } else {
          try {
            lu_.refactor(a_sparse_);
            ++stats_.numeric_refactors;
            tm.numeric_refactors.add();
          } catch (const linalg::PivotDriftError&) {
            lu_.factor(a_sparse_);
            ++stats_.symbolic_factors;
            ++stats_.pivot_repivots;
            tm.symbolic_factors.add();
            tm.pivot_repivots.add();
          }
        }
      }
      return;
    } catch (const linalg::PatternMissError&) {
      dense_fallback_ = true;
      prepared_ = false;
      ++stats_.dense_fallbacks;
      tm.dense_fallbacks.add();
    }
  }
}

void AcEngine::solve(const linalg::ComplexVector& b,
                     linalg::ComplexVector& x) {
  if (active_ == SolverKind::kDense)
    linalg::lu_solve_in_place(a_dense_, perm_, b, x);
  else
    lu_.solve(b, x);
}

}  // namespace si::spice
