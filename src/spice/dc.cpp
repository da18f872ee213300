#include "spice/dc.hpp"

#include "erc/check.hpp"
#include "obs/telemetry.hpp"
#include "spice/mna.hpp"

namespace si::spice {

namespace {

/// First rung of the gmin ladder [S]; each rung is a decade below the
/// last, down to kGmin.
constexpr double kGminLadderStart = 1e-2;

}  // namespace

DcResult dc_operating_point(Circuit& c, MnaEngine& engine,
                            const DcOptions& opt,
                            const linalg::Vector* warm_start) {
  if (opt.erc_gate) erc::enforce(c);
  c.finalize();
  StampContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;

  linalg::Vector x;
  if (warm_start && warm_start->size() == c.system_size())
    x = *warm_start;
  else
    x.assign(c.system_size(), 0.0);

  DcResult r;
  bool solved = true;
  try {
    r.iterations = engine.newton(ctx, x, opt.newton);
  } catch (const ConvergenceError&) {
    solved = false;
  }

  if (!solved) {
    // gmin stepping: solve an easier (leaky) circuit first and walk the
    // leak down in decades, warm-starting each solve; the final solve
    // carries the kGmin leak alone.  The 1.0001 absorbs the rounding of
    // the repeated decade steps.
    obs::counter("dc.gmin_ladder_engaged").add();
    x.assign(c.system_size(), 0.0);
    for (double g = kGminLadderStart; g > kGmin * 1.0001; g *= 0.1)
      engine.newton(ctx, x, opt.newton, g);
    r.iterations = engine.newton(ctx, x, opt.newton);
  }

  SolutionView sol(c, x);
  for (const auto& e : c.elements()) e->accept(sol, ctx);
  r.x = std::move(x);
  return r;
}

DcResult dc_operating_point(Circuit& c, const DcOptions& opt) {
  MnaEngine engine(c);
  return dc_operating_point(c, engine, opt, nullptr);
}

std::vector<double> dc_sweep(
    Circuit& c, const std::vector<double>& values,
    const std::function<void(double)>& set_point,
    const std::function<double(const SolutionView&)>& measure,
    const DcOptions& opt) {
  std::vector<double> out;
  out.reserve(values.size());
  // One engine for the whole sweep (the pattern and symbolic
  // factorization are shared between points) and warm-start each point
  // from the previous solution: adjacent sweep points are close, so
  // Newton usually converges in a couple of iterations without the
  // gmin ladder.  The cold-start fallback inside dc_operating_point
  // still catches points where the warm start fails.
  MnaEngine engine(c);
  linalg::Vector prev;
  for (double v : values) {
    set_point(v);
    DcResult r =
        dc_operating_point(c, engine, opt, prev.empty() ? nullptr : &prev);
    SolutionView sol(c, r.x);
    out.push_back(measure(sol));
    prev = std::move(r.x);
  }
  return out;
}

}  // namespace si::spice
