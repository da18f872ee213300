#include "event/scoped_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/telemetry.hpp"

namespace si::event {

using spice::Element;
using spice::RealStamper;
using spice::StampContext;

namespace {

struct ScopedTelemetry {
  obs::Counter& scope_builds = obs::counter("event.scope_builds");
  obs::Counter& scoped_solves = obs::counter("event.scoped_solves");
  obs::Timer& solve_time = obs::timer("event.scoped_solve");

  static ScopedTelemetry& get() {
    static ScopedTelemetry t;
    return t;
  }
};

}  // namespace

ScopedMnaEngine::ScopedMnaEngine(spice::Circuit& c, const CircuitPartition& p)
    : circuit_(&c), partition_(&p) {
  c.finalize();
  revision_ = c.revision();
  const std::size_t n = c.system_size();
  const std::size_t n_nodes = c.node_count() - 1;
  seed_.assign(n, 0.0);
  b0_.assign(n, 0.0);
  b_.assign(n, 0.0);
  x_new_.assign(n, 0.0);

  const auto& elements = c.elements();
  element_rows_.resize(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    auto& rows = element_rows_[i];
    for (const auto& t : elements[i]->terminals())
      if (t.node != spice::kGroundNode) rows.push_back(t.node - 1);
    for (const int br : elements[i]->branches())
      rows.push_back(static_cast<int>(n_nodes) + br);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
}

spice::MnaStats ScopedMnaEngine::stats() const {
  spice::MnaStats total;
  for (const auto& [mask, st] : states_) total += st.system.stats();
  return total;
}

ScopedMnaEngine::ScopeState& ScopedMnaEngine::state_for(
    const std::vector<unsigned char>& active, const StampContext& ctx) {
  auto it = states_.find(active);
  if (it != states_.end()) return it->second;
  ScopeState& st = states_[active];
  spice::Circuit& c = *circuit_;
  const std::size_t n = c.system_size();
  ScopedTelemetry::get().scope_builds.add();

  st.scope.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int blk = partition_->unknown_block[i];
    if (blk == 0 || active[static_cast<std::size_t>(blk)])
      st.scope[i] = 1;
  }

  const auto& elements = c.elements();
  for (std::size_t i = 0; i < elements.size(); ++i) {
    bool any_active = false;
    bool any_rail = false;
    for (const int r : element_rows_[i]) {
      if (!st.scope[static_cast<std::size_t>(r)]) continue;
      if (partition_->unknown_block[static_cast<std::size_t>(r)] == 0)
        any_rail = true;
      else
        any_active = true;
    }
    if (!any_active && !any_rail) continue;  // every row frozen: exact skip
    Element* e = elements[i].get();
    if (!any_active) {
      // Only rail rows in scope: the element belongs to a latent block
      // and merely contributes its (held) current to a supply/clock-rail
      // KCL row.  Its controlling unknowns are frozen, and rail voltages
      // are source-pinned within a step, so the stamp values cannot move
      // between Newton iterations — stamping once per step in the
      // baseline is enough, even for nonlinear devices.  This keeps the
      // per-iteration restamp list proportional to the *active* blocks
      // instead of to every device hanging off vdd.
      st.linear.push_back(e);
      continue;
    }
    (e->nonlinear() ? st.nonlinear : st.linear).push_back(e);
  }

  st.system.reset(c, ctx, st.linear, st.nonlinear, &st.scope);
  return st;
}

void ScopedMnaEngine::accept_scope(const std::vector<unsigned char>& active,
                                   const spice::SolutionView& sol,
                                   const StampContext& ctx) {
  auto it = states_.find(active);
  if (it == states_.end())
    throw std::logic_error(
        "ScopedMnaEngine::accept_scope: no solve ran for this mask");
  for (Element* e : it->second.linear) e->accept(sol, ctx);
  for (Element* e : it->second.nonlinear) e->accept(sol, ctx);
}

int ScopedMnaEngine::newton(const StampContext& ctx, linalg::Vector& x,
                            const spice::NewtonOptions& opt,
                            const std::vector<unsigned char>& active) {
  spice::Circuit& c = *circuit_;
  c.finalize();
  if (c.revision() != revision_)
    throw std::logic_error(
        "ScopedMnaEngine: circuit topology changed after partitioning");
  if (active.size() != partition_->block_count())
    throw std::logic_error("ScopedMnaEngine: active mask size mismatch");

  ScopedTelemetry& tm = ScopedTelemetry::get();
  obs::ScopedTimer timed(tm.solve_time);
  tm.scoped_solves.add();

  if (x.size() != c.system_size()) x.assign(c.system_size(), 0.0);
  ScopeState& st = state_for(active, ctx);
  seed_ = x;
  while (true) {
    try {
      return iterate(st, ctx, x, opt);
    } catch (const linalg::PatternMissError& miss) {
      // Same recovery as MnaEngine::newton: grow this scope's pattern
      // and restart from the caller's seed.
      st.system.add_to_pattern(miss);
      x = seed_;
    }
  }
}

int ScopedMnaEngine::iterate(ScopeState& st, const StampContext& ctx,
                             linalg::Vector& x,
                             const spice::NewtonOptions& opt) {
  spice::Circuit& c = *circuit_;
  const std::size_t n_nodes = c.node_count() - 1;
  b0_.assign(b0_.size(), 0.0);
  {
    RealStamper s = st.system.baseline_stamper(c, b0_, x);
    s.set_scope(&st.scope);
    for (Element* e : st.linear) e->stamp(s, ctx);
  }
  st.system.add_diagonal(n_nodes, opt.gmin, &st.scope);
  // Identity equations for held unknowns: A[r,r] = 1, b[r] = x[r].
  // Frozen rows and columns carry no other entries (the scoped stamper
  // dropped the rows and condensed the columns), so the solve passes
  // the held values through exactly.
  st.system.freeze_rows(st.scope);
  for (std::size_t r = 0; r < x.size(); ++r)
    if (!st.scope[r]) b0_[r] = x[r];

  for (int it = 1; it <= opt.max_iterations; ++it) {
    // Same cancellation checkpoint as MnaEngine::newton: the event
    // engine honors per-job deadlines at Newton-iteration granularity
    // too.
    if (opt.cancel) opt.cancel->checkpoint();
    b_ = b0_;
    RealStamper s = st.system.iteration_stamper(c, b_, x);
    s.set_scope(&st.scope);
    for (Element* e : st.nonlinear) e->stamp(s, ctx);
    try {
      st.system.factor();
      st.system.solve(b_, x_new_);
    } catch (const linalg::SingularMatrixError& e) {
      throw spice::ConvergenceError(
          std::string("singular scoped MNA matrix: ") + e.what());
    }

    if (st.nonlinear.empty()) {
      // No in-scope nonlinear device: the restricted system is linear
      // and solves exactly in one step.
      x = x_new_;
      return it;
    }
    // Frozen unknowns pass through the shared update with dv == 0.
    if (spice::damped_newton_update(x, x_new_, n_nodes, opt) && it > 1)
      return it;
  }
  throw spice::ConvergenceError(
      "scoped Newton iteration did not converge in " +
      std::to_string(opt.max_iterations) + " iterations");
}

}  // namespace si::event
