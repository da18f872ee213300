#include "spice/mna.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/telemetry.hpp"

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
  obs::Counter& pattern_misses = obs::counter("mna.pattern_misses");
  obs::Counter& singular_retries = obs::counter("mna.singular_matrix");
  obs::Timer& newton_time = obs::timer("mna.newton");

  static MnaTelemetry& get() {
    static MnaTelemetry t;
    return t;
  }
};

}  // namespace

MnaStats& MnaStats::operator+=(const MnaStats& o) {
  pattern_builds += o.pattern_builds;
  symbolic_factors += o.symbolic_factors;
  numeric_refactors += o.numeric_refactors;
  dense_factors += o.dense_factors;
  base_stamps += o.base_stamps;
  nonlinear_stamps += o.nonlinear_stamps;
  workspace_allocs += o.workspace_allocs;
  pivot_repivots += o.pivot_repivots;
  pattern_misses += o.pattern_misses;
  return *this;
}

// ------------------------------------------------------------ MnaSystem

template <typename T>
void MnaSystem<T>::resize(std::size_t n) {
  ++stats_.workspace_allocs;
  sparse_ = n >= kSparseAutoThreshold;
  pattern_.reset();
  if (!sparse_) {
    a0_dense_.resize(n, n);
    a_dense_.resize(n, n);
  }
}

template <typename T>
void MnaSystem<T>::reset(const Circuit& c, const StampContext& ctx,
                         const std::vector<Element*>& linear,
                         const std::vector<Element*>& nonlinear,
                         const std::vector<unsigned char>* scope)
  requires std::is_same_v<T, double>
{
  const std::size_t n = c.system_size();
  resize(n);
  if (!sparse_) return;
  // Discovery pass: record every (row, col) an element can touch, under
  // both analysis modes.  The builder symmetrizes, which also covers the
  // MOSFET drain/source orientation swap; a scoped stamper records only
  // in-scope coordinates (frozen rows keep just their diagonal, which
  // the builder always includes).
  linalg::PatternBuilder rec(static_cast<int>(n));
  linalg::Vector scratch_b(n, 0.0);
  linalg::Vector scratch_x(n, 0.0);
  RealStamper r(c, rec, scratch_b, scratch_x);
  r.set_scope(scope);
  StampContext probe = ctx;
  probe.mode = AnalysisMode::kDcOperatingPoint;
  for (Element* e : linear) e->stamp(r, probe);
  for (Element* e : nonlinear) e->stamp(r, probe);
  probe.mode = AnalysisMode::kTransient;
  if (probe.dt <= 0.0) probe.dt = 1.0;
  probe.integrator = Integrator::kTrapezoidal;
  for (Element* e : linear) e->stamp(r, probe);
  for (Element* e : nonlinear) e->stamp(r, probe);
  adopt_pattern(rec);
}

template <typename T>
void MnaSystem<T>::reset(const Circuit& c)
  requires(!std::is_same_v<T, double>)
{
  const std::size_t n = c.system_size();
  resize(n);
  if (!sparse_) return;
  linalg::PatternBuilder rec(static_cast<int>(n));
  linalg::ComplexVector scratch_b(n);
  ComplexStamper r(c, rec, scratch_b);
  for (const auto& e : c.elements()) e->stamp_ac(r, 1.0);
  adopt_pattern(rec);
}

template <typename T>
void MnaSystem<T>::adopt_pattern(const linalg::PatternBuilder& rec) {
  pattern_ = rec.build(/*symmetrize=*/true);
  ++stats_.pattern_builds;
  if (report_) MnaTelemetry::get().pattern_builds.add();
  a0_sparse_ = linalg::SparseMatrix<T>(pattern_);
  a_sparse_ = linalg::SparseMatrix<T>(pattern_);
  lin_memo_ = linalg::SlotMemo();
  nl_memo_ = linalg::SlotMemo();
  lu_ = linalg::SparseLu<T>();  // drop the stale symbolic factorization
  lu_warm_ = false;
}

template <typename T>
void MnaSystem<T>::add_to_pattern(const linalg::PatternMissError& miss) {
  // The stamp violated the stamp-pattern contract (see DESIGN.md).  The
  // pattern grows by the missed coordinate and stays sparse; the miss is
  // counted so gates can insist on none.
  ++stats_.pattern_misses;
  MnaTelemetry::get().pattern_misses.add();
  ++stats_.workspace_allocs;
  const int n = pattern_->dim();
  linalg::PatternBuilder rec(n);
  const auto& row_ptr = pattern_->row_ptr();
  const auto& col_idx = pattern_->col_idx();
  for (int r = 0; r < n; ++r)
    for (std::size_t s = row_ptr[static_cast<std::size_t>(r)];
         s < row_ptr[static_cast<std::size_t>(r) + 1]; ++s)
      rec.add(r, col_idx[s]);
  rec.add(miss.row(), miss.col());
  adopt_pattern(rec);
}

template <typename T>
T& MnaSystem<T>::baseline_diagonal(std::size_t i) {
  if (!sparse_) return a0_dense_(i, i);
  return a0_sparse_.values()[static_cast<std::size_t>(
      pattern_->diag_slots()[i])];
}

template <typename T>
void MnaSystem<T>::add_diagonal(std::size_t count, T g,
                                const std::vector<unsigned char>* scope) {
  for (std::size_t i = 0; i < count; ++i)
    if (!scope || (*scope)[i]) baseline_diagonal(i) += g;
}

template <typename T>
void MnaSystem<T>::freeze_rows(const std::vector<unsigned char>& scope) {
  for (std::size_t r = 0; r < scope.size(); ++r)
    if (!scope[r]) baseline_diagonal(r) = T{1};
}

template <typename T>
void MnaSystem<T>::factor() {
  MnaTelemetry& tm = MnaTelemetry::get();
  if (!sparse_) {
    ++stats_.dense_factors;
    if (report_) tm.dense_factors.add();
    linalg::lu_factor_in_place(a_dense_, perm_);
    return;
  }
  if (!lu_warm_) {
    lu_.factor(a_sparse_);
    lu_warm_ = true;
    ++stats_.symbolic_factors;
    if (report_) tm.symbolic_factors.add();
    return;
  }
  try {
    lu_.refactor(a_sparse_);
    ++stats_.numeric_refactors;
    if (report_) tm.numeric_refactors.add();
  } catch (const linalg::PivotDriftError&) {
    // Operating point drifted past the frozen pivot choice: redo the
    // pivoting factorization once and carry on with the new order.
    lu_.factor(a_sparse_);
    ++stats_.symbolic_factors;
    ++stats_.pivot_repivots;
    if (report_) {
      tm.symbolic_factors.add();
      tm.pivot_repivots.add();
    }
  }
}

template <typename T>
void MnaSystem<T>::solve(const std::vector<T>& b, std::vector<T>& x) const {
  if (sparse_)
    lu_.solve(b, x);
  else
    linalg::lu_solve_in_place(a_dense_, perm_, b, x);
}

template class MnaSystem<double>;
template class MnaSystem<std::complex<double>>;

bool damped_newton_update(linalg::Vector& x, const linalg::Vector& x_new,
                          std::size_t n_nodes, const NewtonOptions& opt) {
  // Clamp per-node voltage updates to avoid overshooting the square-law
  // device curves; convergence is judged on the raw update.
  bool converged = true;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double dv = x_new[i] - x[i];
    if (i < n_nodes) {
      const double tol = opt.v_abstol + opt.v_reltol * std::abs(x[i]);
      if (std::abs(dv) > tol) converged = false;
      dv = std::clamp(dv, -opt.max_step, opt.max_step);
    }
    x[i] += dv;
  }
  return converged;
}

// ------------------------------------------------------------ MnaEngine

void MnaEngine::prepare(const StampContext& ctx) {
  Circuit& c = *circuit_;
  c.finalize();
  if (prepared_ && revision_ == c.revision()) return;
  revision_ = c.revision();
  prepared_ = true;

  linear_.clear();
  nonlinear_.clear();
  for (const auto& e : c.elements())
    (e->nonlinear() ? nonlinear_ : linear_).push_back(e.get());

  const std::size_t n = c.system_size();
  seed_.assign(n, 0.0);
  b0_.assign(n, 0.0);
  b_.assign(n, 0.0);
  x_new_.assign(n, 0.0);
  system_.reset(c, ctx, linear_, nonlinear_);
}

int MnaEngine::newton(const StampContext& ctx, linalg::Vector& x,
                      const NewtonOptions& opt, double extra_gdiag) {
  MnaTelemetry& tm = MnaTelemetry::get();
  obs::TraceSpan span("mna.newton");
  obs::ScopedTimer timed(tm.newton_time);
  tm.newton_solves.add();
  prepare(ctx);
  if (x.size() != circuit_->system_size())
    x.assign(circuit_->system_size(), 0.0);
  seed_ = x;
  while (true) {
    try {
      return iterate(ctx, x, opt, opt.gmin + extra_gdiag);
    } catch (const linalg::PatternMissError& miss) {
      // Restart from the caller's seed, not from the iterate the miss
      // interrupted: the result must not depend on where a miss fell.
      system_.add_to_pattern(miss);
      x = seed_;
    }
  }
}

int MnaEngine::iterate(const StampContext& ctx, linalg::Vector& x,
                       const NewtonOptions& opt, double gdiag) {
  MnaTelemetry& tm = MnaTelemetry::get();
  Circuit& c = *circuit_;
  const std::size_t n_nodes = c.node_count() - 1;
  b0_.assign(b0_.size(), 0.0);
  {
    RealStamper s = system_.baseline_stamper(c, b0_, x);
    for (Element* e : linear_) e->stamp(s, ctx);
  }
  system_.add_diagonal(n_nodes, gdiag);

  for (int it = 1; it <= opt.max_iterations; ++it) {
    // Cancellation / deadline checkpoint: CancelledError is not a
    // ConvergenceError, so it unwinds past the gmin ladder instead of
    // being retried at a different gmin.
    if (opt.cancel) opt.cancel->checkpoint();
    b_ = b0_;
    RealStamper s = system_.iteration_stamper(c, b_, x);
    for (Element* e : nonlinear_) e->stamp(s, ctx);
    tm.newton_iterations.add();
    try {
      system_.factor();
      system_.solve(b_, x_new_);
    } catch (const linalg::SingularMatrixError& e) {
      tm.singular_retries.add();
      throw ConvergenceError(std::string("singular MNA matrix: ") + e.what());
    }

    if (nonlinear_.empty()) {
      // Linear circuits solve exactly in one step; no damping needed.
      x = x_new_;
      return it;
    }
    if (damped_newton_update(x, x_new_, n_nodes, opt) && it > 1) return it;
  }
  throw ConvergenceError("Newton iteration did not converge in " +
                         std::to_string(opt.max_iterations) + " iterations");
}

// ------------------------------------------------------------- AcEngine

void AcEngine::assemble(double omega) {
  obs::TraceSpan span("ac.assemble");
  Circuit& c = *circuit_;
  c.finalize();
  if (!prepared_ || revision_ != c.revision()) {
    revision_ = c.revision();
    prepared_ = true;
    system_.reset(c);
  }
  while (true) {
    b_.assign(c.system_size(), std::complex<double>{});
    try {
      ComplexStamper s = system_.iteration_stamper(c, b_);
      for (const auto& e : c.elements()) e->stamp_ac(s, omega);
      system_.factor();
      return;
    } catch (const linalg::PatternMissError& miss) {
      system_.add_to_pattern(miss);
    }
  }
}

}  // namespace si::spice
