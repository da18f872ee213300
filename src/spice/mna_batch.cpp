#include "spice/mna_batch.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/telemetry.hpp"
#include "spice/circuit.hpp"

namespace si::spice {

namespace {

/// Batched Monte-Carlo telemetry, hoisted so the batch hot loop records
/// through preallocated atomics only.
struct McBatchTelemetry {
  obs::Counter& batches = obs::counter("mc.batch.batches");
  obs::Counter& lanes_filled = obs::counter("mc.batch.lanes_filled");
  obs::Counter& lane_ejections = obs::counter("mc.batch.lane_ejections");
  obs::Counter& batched_solves = obs::counter("mc.batch.batched_solves");
  obs::Counter& scalar_solves = obs::counter("mc.batch.scalar_solves");

  static McBatchTelemetry& get() {
    static McBatchTelemetry t;
    return t;
  }
};

}  // namespace

BatchedDcEngine::BatchedDcEngine(Circuit& c, std::size_t lanes, Options opt)
    : circuit_(&c), lanes_(lanes), opt_(opt) {
  if (lanes_ == 0)
    throw std::invalid_argument("BatchedDcEngine: lanes must be >= 1");
}

StampContext BatchedDcEngine::dc_context() const {
  StampContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.gmin = opt_.newton.gmin;
  return ctx;
}

void BatchedDcEngine::prepare() {
  Circuit& c = *circuit_;
  c.finalize();
  if (prepared_ && revision_ == c.revision()) return;
  prepared_ = false;  // poison until the rebuild below fully succeeds

  linear_.clear();
  nonlinear_.clear();
  for (const auto& e : c.elements())
    (e->nonlinear() ? nonlinear_ : linear_).push_back(e.get());

  n_ = c.system_size();
  n_nodes_ = c.node_count() - 1;
  const StampContext ctx = dc_context();

  // Nominal operating point, solved once with the full gmin-stepping
  // ladder.  It serves two roles: every trial's Newton starts from it
  // (a pure, trial-independent seed a small mismatch draw converges
  // from in a few iterations), and the shared symbolic factorization is
  // frozen from the first-iteration matrix AT this point — where the
  // devices are biased and the pivots are healthy, unlike at x = 0
  // where a cutoff transistor leaves whole rows at gmin.
  if (opt_.nominal_seed.size() == n_) {
    x_nominal_ = opt_.nominal_seed;  // ladder precomputed by the caller
  } else {
    DcOptions dopt;
    dopt.newton = opt_.newton;
    dopt.erc_gate = false;
    x_nominal_ = dc_operating_point(c, dopt).x;
  }

  // Discovery pass, identical to MnaSystem::reset(): record under both
  // analysis modes and symmetrize, so the frozen pattern covers every
  // parameter draw (draws move values, never coordinates — apart from
  // the MOSFET orientation swap, which symmetrization absorbs).
  {
    linalg::PatternBuilder rec(static_cast<int>(n_));
    linalg::Vector scratch_b(n_, 0.0);
    linalg::Vector scratch_x(n_, 0.0);
    RealStamper r(c, rec, scratch_b, scratch_x);
    StampContext probe = ctx;
    probe.mode = AnalysisMode::kDcOperatingPoint;
    for (const auto& e : c.elements()) e->stamp(r, probe);
    probe.mode = AnalysisMode::kTransient;
    probe.dt = 1.0;
    probe.integrator = Integrator::kTrapezoidal;
    for (const auto& e : c.elements()) e->stamp(r, probe);
    pattern_ = rec.build(/*symmetrize=*/true);
    obs::counter("mna.pattern_builds").add();
  }

  // Shared-symbolic reference: the first Newton iteration's matrix with
  // the circuit's CURRENT (nominal) parameters at the nominal operating
  // point — deterministic and independent of any trial, so every lane
  // and every scalar re-run eliminates in the same frozen order.
  a_nominal_ = linalg::SparseMatrixD(pattern_);
  {
    linalg::Vector scratch_b(n_, 0.0);
    RealStamper s(c, a_nominal_, scratch_b, x_nominal_);
    for (Element* e : linear_) e->stamp(s, ctx);
    const auto& diag = pattern_->diag_slots();
    auto& vals = a_nominal_.values();
    for (std::size_t i = 0; i < n_nodes_; ++i)
      vals[static_cast<std::size_t>(diag[i])] += opt_.newton.gmin;
    for (Element* e : nonlinear_) e->stamp(s, ctx);
  }
  try {
    lu_nominal_.factor(a_nominal_);
    lu_scalar_.factor(a_nominal_);
  } catch (const linalg::SingularMatrixError& e) {
    throw ConvergenceError(std::string("singular nominal MNA matrix: ") +
                           e.what());
  }
  obs::counter("mna.symbolic_factors").add(2);
  scalar_lu_warm_ = true;
  scalar_repivoted_ = false;

  blu_.adopt_symbolic(lu_nominal_, lanes_);
  blu_.set_drift_tol(opt_.batch_drift_tol);
  ab0_ = linalg::BatchedSparseMatrixD(pattern_, lanes_);
  ab_ = linalg::BatchedSparseMatrixD(pattern_, lanes_);
  lin_memo_warm_ = false;
  nl_memo_warm_ = false;
  s_lin_memo_warm_ = false;
  s_nl_memo_warm_ = false;
  b0_lane_.assign(lanes_, linalg::Vector(n_, 0.0));
  b_lane_.assign(lanes_, linalg::Vector(n_, 0.0));
  x_lane_.assign(lanes_, linalg::Vector(n_, 0.0));
  b_soa_.assign(n_ * lanes_, 0.0);
  x_soa_.assign(n_ * lanes_, 0.0);
  live_.assign(lanes_, 0);
  b0_s_.assign(n_, 0.0);
  b_s_.assign(n_, 0.0);
  x_new_.assign(n_, 0.0);
  a0_scalar_ = linalg::SparseMatrixD(pattern_);
  a_scalar_ = linalg::SparseMatrixD(pattern_);

  revision_ = c.revision();
  prepared_ = true;
}

void BatchedDcEngine::solve_batch(
    const std::uint64_t* seeds, std::size_t count,
    const std::function<void(std::uint64_t)>& apply,
    BatchedLaneResult* results) {
  prepare();
  if (count == 0) return;
  if (count > lanes_)
    throw std::invalid_argument("BatchedDcEngine::solve_batch: count > lanes");
  McBatchTelemetry& tm = McBatchTelemetry::get();
  tm.batches.add();
  tm.lanes_filled.add(count);

  Circuit& c = *circuit_;
  const StampContext ctx = dc_context();
  const NewtonOptions& opt = opt_.newton;
  const std::size_t L = lanes_;

  for (std::size_t k = 0; k < L; ++k) live_[k] = k < count ? 1 : 0;
  for (std::size_t k = 0; k < count; ++k) {
    x_lane_[k] = x_nominal_;  // the shared, trial-independent Newton seed
    results[k] = BatchedLaneResult{};
  }

  // Per-lane baseline: linear elements stamped once per trial, plus
  // gmin on the node diagonals — the exact stamp_baseline of the scalar
  // reference, lane by lane through the one shared linear memo.
  ab0_.set_zero();
  const auto& diag = pattern_->diag_slots();
  for (std::size_t k = 0; k < count; ++k) {
    b0_lane_[k].assign(n_, 0.0);
    apply(seeds[k]);
    if (lin_memo_warm_)
      lin_memo_.start_replay();
    else
      lin_memo_.start_record();
    RealStamper s(c, ab0_, k, b0_lane_[k], x_lane_[k], &lin_memo_);
    for (Element* e : linear_) e->stamp(s, ctx);
    lin_memo_warm_ = true;
    auto& vals = ab0_.values();
    for (std::size_t i = 0; i < n_nodes_; ++i)
      vals[static_cast<std::size_t>(diag[i]) * L + k] += opt.gmin;
  }

  std::size_t active = count;
  for (int it = 1; it <= opt.max_iterations && active > 0; ++it) {
    ab_.copy_values_from(ab0_);
    for (std::size_t k = 0; k < count; ++k) {
      if (!live_[k]) continue;
      b_lane_[k] = b0_lane_[k];
      apply(seeds[k]);
      if (nl_memo_warm_)
        nl_memo_.start_replay();
      else
        nl_memo_.start_record();
      RealStamper s(c, ab_, k, b_lane_[k], x_lane_[k], &nl_memo_);
      for (Element* e : nonlinear_) e->stamp(s, ctx);
      nl_memo_warm_ = true;
    }

    const std::size_t ejected = blu_.refactor(ab_, live_);
    if (ejected > 0) {
      tm.lane_ejections.add(ejected);
      for (std::size_t k = 0; k < count; ++k)
        if (!live_[k] && !results[k].converged && !results[k].ejected)
          results[k].ejected = true;
      active -= ejected;
      if (active == 0) break;
    }

    for (std::size_t k = 0; k < count; ++k)
      if (live_[k])
        for (std::size_t i = 0; i < n_; ++i)
          b_soa_[i * L + k] = b_lane_[k][i];
    blu_.solve(b_soa_, x_soa_);
    tm.batched_solves.add();

    if (nonlinear_.empty()) {
      // Linear circuits solve exactly in one step (scalar reference
      // semantics: return after the first iteration, no damping).
      for (std::size_t k = 0; k < count; ++k) {
        if (!live_[k]) continue;
        for (std::size_t i = 0; i < n_; ++i) x_lane_[k][i] = x_soa_[i * L + k];
        results[k].converged = true;
        results[k].iterations = it;
        live_[k] = 0;
      }
      return;
    }

    // Per-lane damping and convergence, mirroring MnaEngine::newton.
    for (std::size_t k = 0; k < count; ++k) {
      if (!live_[k]) continue;
      linalg::Vector& x = x_lane_[k];
      bool converged = true;
      for (std::size_t i = 0; i < n_; ++i) {
        double dv = x_soa_[i * L + k] - x[i];
        if (i < n_nodes_) {
          const double tol = opt.v_abstol + opt.v_reltol * std::abs(x[i]);
          if (std::abs(dv) > tol) converged = false;
          dv = std::clamp(dv, -opt.max_step, opt.max_step);
        }
        x[i] += dv;
      }
      if (converged && it > 1) {
        results[k].converged = true;
        results[k].iterations = it;
        live_[k] = 0;
        --active;
      }
    }
  }

  // Lanes that never converged leave on the ejection path too: the
  // scalar re-run owns the harder trial (and its caller the gmin
  // ladder), keeping per-trial results independent of batch grouping.
  std::size_t timed_out = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (!live_[k]) continue;
    results[k].ejected = true;
    live_[k] = 0;
    ++timed_out;
  }
  if (timed_out > 0) tm.lane_ejections.add(timed_out);
}

int BatchedDcEngine::solve_scalar(
    std::uint64_t seed, const std::function<void(std::uint64_t)>& apply,
    linalg::Vector& x) {
  prepare();
  McBatchTelemetry& tm = McBatchTelemetry::get();
  Circuit& c = *circuit_;
  const StampContext ctx = dc_context();
  const NewtonOptions& opt = opt_.newton;

  // A previous trial's drift re-pivoted the scalar LU on that trial's
  // values; restore the shared nominal symbolic so this trial's result
  // cannot depend on which trials preceded it.
  if (scalar_repivoted_) {
    lu_scalar_.factor(a_nominal_);
    scalar_repivoted_ = false;
    obs::counter("mna.symbolic_factors").add();
  }

  x = x_nominal_;
  a0_scalar_.set_zero();
  b0_s_.assign(n_, 0.0);
  apply(seed);
  {
    if (s_lin_memo_warm_)
      s_lin_memo_.start_replay();
    else
      s_lin_memo_.start_record();
    RealStamper s(c, a0_scalar_, b0_s_, x, &s_lin_memo_);
    for (Element* e : linear_) e->stamp(s, ctx);
    s_lin_memo_warm_ = true;
    const auto& diag = pattern_->diag_slots();
    auto& vals = a0_scalar_.values();
    for (std::size_t i = 0; i < n_nodes_; ++i)
      vals[static_cast<std::size_t>(diag[i])] += opt.gmin;
  }

  for (int it = 1; it <= opt.max_iterations; ++it) {
    b_s_ = b0_s_;
    a_scalar_.copy_values_from(a0_scalar_);
    apply(seed);
    if (s_nl_memo_warm_)
      s_nl_memo_.start_replay();
    else
      s_nl_memo_.start_record();
    RealStamper s(c, a_scalar_, b_s_, x, &s_nl_memo_);
    for (Element* e : nonlinear_) e->stamp(s, ctx);
    s_nl_memo_warm_ = true;

    try {
      try {
        lu_scalar_.refactor(a_scalar_);
      } catch (const linalg::PivotDriftError&) {
        // The ejection recovery: re-pivot on this trial's own values.
        lu_scalar_.factor(a_scalar_);
        scalar_repivoted_ = true;
        obs::counter("mna.pivot_repivots").add();
      }
    } catch (const linalg::SingularMatrixError& e) {
      throw ConvergenceError(std::string("singular MNA matrix: ") + e.what());
    }
    lu_scalar_.solve(b_s_, x_new_);
    tm.scalar_solves.add();

    if (nonlinear_.empty()) {
      x = x_new_;
      return it;
    }
    bool converged = true;
    for (std::size_t i = 0; i < n_; ++i) {
      double dv = x_new_[i] - x[i];
      if (i < n_nodes_) {
        const double tol = opt.v_abstol + opt.v_reltol * std::abs(x[i]);
        if (std::abs(dv) > tol) converged = false;
        dv = std::clamp(dv, -opt.max_step, opt.max_step);
      }
      x[i] += dv;
    }
    if (converged && it > 1) return it;
  }
  throw ConvergenceError("batched-MC scalar solve did not converge in " +
                         std::to_string(opt.max_iterations) + " iterations");
}

}  // namespace si::spice
