// MnaEngine behavior: solver selection (auto / SI_SOLVER / explicit),
// dense-vs-sparse parity on transistor-level netlists (DC, and the
// AcEngine sweep), symbolic-reuse accounting, and pattern-cache
// invalidation on circuit edits.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
using namespace si::cells::netlists;

/// Saves/clears SI_SOLVER for the test's duration.
class EnvGuard {
 public:
  EnvGuard() {
    if (const char* v = std::getenv("SI_SOLVER")) saved_ = v;
    unsetenv("SI_SOLVER");
  }
  ~EnvGuard() {
    if (saved_.empty())
      unsetenv("SI_SOLVER");
    else
      setenv("SI_SOLVER", saved_.c_str(), 1);
  }

 private:
  std::string saved_;
};

TEST(SolverSelect, AutoUsesSizeThreshold) {
  EnvGuard env;
  EXPECT_EQ(resolve_solver(SolverKind::kAuto, kSparseAutoThreshold - 1),
            SolverKind::kDense);
  EXPECT_EQ(resolve_solver(SolverKind::kAuto, kSparseAutoThreshold),
            SolverKind::kSparse);
  // Every larger system stays on the one flat sparse path.
  EXPECT_EQ(resolve_solver(SolverKind::kAuto, 4096), SolverKind::kSparse);
}

TEST(SolverSelect, ExplicitRequestWins) {
  EnvGuard env;
  setenv("SI_SOLVER", "sparse", 1);
  EXPECT_EQ(resolve_solver(SolverKind::kDense, 1000), SolverKind::kDense);
  EXPECT_EQ(resolve_solver(SolverKind::kSparse, 2), SolverKind::kSparse);
}

TEST(SolverSelect, EnvOverridesAuto) {
  EnvGuard env;
  setenv("SI_SOLVER", "sparse", 1);
  EXPECT_EQ(resolve_solver(SolverKind::kAuto, 2), SolverKind::kSparse);
  setenv("SI_SOLVER", "dense", 1);
  EXPECT_EQ(resolve_solver(SolverKind::kAuto, 1000), SolverKind::kDense);
  setenv("SI_SOLVER", "auto", 1);
  EXPECT_EQ(resolve_solver(SolverKind::kAuto, 2), SolverKind::kDense);
  setenv("SI_SOLVER", "", 1);
  EXPECT_EQ(resolve_solver(SolverKind::kAuto, 2), SolverKind::kDense);
}

TEST(SolverSelect, RejectsUnknownEnvValues) {
  EnvGuard env;
  // A typo such as SI_SOLVER=sprase used to silently mean "auto" and
  // benchmark the wrong solver; it must fail loudly, naming the valid
  // values.
  setenv("SI_SOLVER", "sprase", 1);
  try {
    (void)solver_kind_from_env();
    FAIL() << "expected std::invalid_argument for SI_SOLVER=sprase";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sprase"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid values: auto, dense, sparse"),
              std::string::npos)
        << msg;
  }
  // No other solver name is accepted, `schur` included.
  setenv("SI_SOLVER", "schur", 1);
  EXPECT_THROW((void)solver_kind_from_env(), std::invalid_argument);
  setenv("SI_SOLVER", "bogus", 1);
  EXPECT_THROW((void)resolve_solver(SolverKind::kAuto, 2),
               std::invalid_argument);
  // Explicit requests never consult the environment.
  EXPECT_EQ(resolve_solver(SolverKind::kDense, 2), SolverKind::kDense);
}

TEST(SolverSelect, EnvDrivesEngineThroughAnalyses) {
  EnvGuard env;
  setenv("SI_SOLVER", "sparse", 1);
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  MemoryPairOptions opt;
  opt.switches_always_on = true;
  build_class_ab_memory_pair(c, opt, "m_");
  MnaEngine engine(c);
  DcOptions dco;
  dc_operating_point(c, engine, dco);
  EXPECT_EQ(engine.active_solver(), SolverKind::kSparse);
  EXPECT_EQ(engine.stats().pattern_builds, 1u);
}

/// Builds one Table 2 modulator-core circuit with supply and a small
/// differential input.
ModulatorCoreHandles build_modulator_fixture(Circuit& c, int sections) {
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  ModulatorCoreOptions opt;
  const auto h = build_modulator_core(c, sections, opt, "mod_");
  c.add<CurrentSource>("Iinp", c.ground(), h.in_p, 4e-6);
  c.add<CurrentSource>("Iinm", c.ground(), h.in_m, -4e-6);
  return h;
}

TEST(MnaEngine, DenseSparseDcParityOnModulatorCore) {
  auto solve = [](SolverKind kind) {
    Circuit c;
    build_modulator_fixture(c, 1);
    MnaEngine engine(c, kind);
    DcOptions opt;
    opt.erc_gate = false;
    return dc_operating_point(c, engine, opt).x;
  };
  const auto xd = solve(SolverKind::kDense);
  const auto xs = solve(SolverKind::kSparse);
  ASSERT_EQ(xd.size(), xs.size());
  for (std::size_t i = 0; i < xd.size(); ++i)
    EXPECT_NEAR(xd[i], xs[i], 1e-9) << "unknown " << i;
}

TEST(MnaEngine, SymbolicFactorizationReusedAcrossTransientSteps) {
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_stage(c, opt, "s_");
  c.add<CurrentSource>("Iin", c.ground(), h.in, 5e-6);
  c.finalize();

  MnaEngine engine(c, SolverKind::kSparse);
  NewtonOptions nopt;
  StampContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  si::linalg::Vector x;
  engine.newton(ctx, x, nopt);
  {
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx);
  }

  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = opt.pair.clock_period / 200.0;
  const int steps = 40;
  for (int k = 1; k <= steps; ++k) {
    ctx.time = k * ctx.dt;
    engine.newton(ctx, x, nopt);
    SolutionView sol(c, x);
    for (const auto& e : c.elements()) e->accept(sol, ctx);
  }

  const MnaStats& st = engine.stats();
  EXPECT_EQ(st.pattern_builds, 1u);
  // One pivoting factorization (plus at most a rare pivot-drift rescue);
  // every other iteration reuses the frozen pattern numerically.
  EXPECT_LE(st.symbolic_factors, 2u);
  EXPECT_GE(st.numeric_refactors, static_cast<std::uint64_t>(steps));
  EXPECT_EQ(st.workspace_allocs, 1u);
}

TEST(MnaEngine, PatternCacheInvalidatedOnCircuitEdit) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.finalize();

  MnaEngine engine(c, SolverKind::kSparse);
  NewtonOptions nopt;
  StampContext ctx;
  si::linalg::Vector x;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 1u);
  EXPECT_NEAR(x[b - 1], 0.5, 1e-8);  // gmin shifts the ideal value slightly

  // Edit: new element, new node, re-finalize — the engine must rebuild
  // its pattern and symbolic factorization on the next solve.
  const NodeId d = c.node("d");
  c.add<Resistor>("R3", b, d, 1e3);
  c.add<Resistor>("R4", d, c.ground(), 1e3);
  c.finalize();
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
  // Divider now 1k into (1k + 2k || ...): check against the dense path.
  Circuit ref;
  const NodeId ra = ref.node("a");
  const NodeId rb = ref.node("b");
  const NodeId rd = ref.node("d");
  ref.add<VoltageSource>("V1", ra, ref.ground(), 1.0);
  ref.add<Resistor>("R1", ra, rb, 1e3);
  ref.add<Resistor>("R2", rb, ref.ground(), 1e3);
  ref.add<Resistor>("R3", rb, rd, 1e3);
  ref.add<Resistor>("R4", rd, ref.ground(), 1e3);
  MnaEngine dense(ref, SolverKind::kDense);
  si::linalg::Vector xr;
  dense.newton(ctx, xr, nopt);
  ASSERT_EQ(x.size(), xr.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xr[i], 1e-12);
}

/// Deliberately violates the stamp-pattern contract: bridges its two
/// nodes only once ctx.time reaches t_on, so pattern discovery before
/// t_on never sees the (a, b) coordinates and the first post-t_on stamp
/// raises PatternMissError.
class LatePathElement : public Element {
 public:
  LatePathElement(std::string name, NodeId a, NodeId b, double t_on)
      : Element(std::move(name)), a_(a), b_(b), t_on_(t_on) {}

  std::vector<Terminal> terminals() const override {
    return {{a_, "p", false}, {b_, "m", false}};
  }

  void stamp(RealStamper& s, const StampContext& ctx) override {
    if (ctx.mode == AnalysisMode::kTransient && ctx.time >= t_on_)
      s.conductance(a_, b_, 1e-3);
  }

 private:
  NodeId a_, b_;
  double t_on_;
};

TEST(MnaEngine, DenseFallbackIsStickyPerTopologyAndResetsOnEdit) {
  si::obs::set_enabled(true);
#if SI_OBS_ENABLED
  si::obs::Counter& engaged = si::obs::counter("mna.dense_fallback_engaged");
  const std::uint64_t engaged_before = engaged.value();
#endif

  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.add<Resistor>("R3", d, c.ground(), 1e3);
  c.add<LatePathElement>("X1", b, d, /*t_on=*/0.5);
  c.finalize();

  MnaEngine engine(c, SolverKind::kSparse);
  NewtonOptions nopt;
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = 1e-3;
  si::linalg::Vector x;

  // Before t_on the discovered pattern is complete: sparse, no fallback.
  ctx.time = 1e-3;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.active_solver(), SolverKind::kSparse);
  EXPECT_EQ(engine.stats().dense_fallbacks, 0u);
  EXPECT_NEAR(x[b - 1], 0.5, 1e-6);

  // Crossing t_on stamps outside the frozen pattern: the solve still
  // succeeds (dense rescue) and the engagement is counted, not silent.
  ctx.time = 1.0;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.active_solver(), SolverKind::kDense);
  EXPECT_EQ(engine.stats().dense_fallbacks, 1u);
#if SI_OBS_ENABLED
  EXPECT_EQ(engaged.value(), engaged_before + 1);
#endif
  // b now loaded by R2 || (1k bridge + R3) = 1k || 2k.
  EXPECT_NEAR(x[b - 1], 0.4, 1e-6);

  // Same topology: the fallback is sticky — no sparse retry per solve.
  ctx.time = 1.1;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.active_solver(), SolverKind::kDense);
  EXPECT_EQ(engine.stats().dense_fallbacks, 1u);

  // Edit the circuit (revision bump): the fallback must clear and the
  // rebuilt pattern — discovered at a post-t_on time — works sparsely.
  // This used to pin the engine to the dense solver forever.
  c.add<Resistor>("R4", d, c.ground(), 1e6);
  c.finalize();
  ctx.time = 1.2;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.active_solver(), SolverKind::kSparse);
  EXPECT_EQ(engine.stats().dense_fallbacks, 1u);
#if SI_OBS_ENABLED
  EXPECT_EQ(engaged.value(), engaged_before + 1);
#endif
  EXPECT_NEAR(x[b - 1], 0.4, 1e-3);  // R4 = 1M barely loads node d

  si::obs::set_enabled(false);
}

TEST(MnaEngine, AutoPicksSparseForLargeNetlists) {
  EnvGuard env;
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  DelayStageOptions opt;
  const auto h = build_delay_line_chain(c, 6, opt, "dl_");
  c.add<CurrentSource>("Iin", c.ground(), h.in, 5e-6);
  c.finalize();
  ASSERT_GE(c.system_size(), kSparseAutoThreshold);
  MnaEngine engine(c);
  DcOptions dco;
  dco.erc_gate = false;
  dc_operating_point(c, engine, dco);
  EXPECT_EQ(engine.active_solver(), SolverKind::kSparse);
}

TEST(AcEngine, SparseSweepMatchesDense) {
  // The small-signal engine's sparse path (pattern discovery at one
  // frequency, refactor per frequency) against the dense one.
  auto sweep = [](SolverKind kind) {
    Circuit c;
    c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    DelayStageOptions opt;
    const auto h = build_delay_line_chain(c, 12, opt, "dl_");
    auto& iin = c.add<CurrentSource>("Iin", c.ground(), h.in, 5e-6);
    iin.set_ac_magnitude(1e-6);
    DcOptions dco;
    dco.erc_gate = false;
    dc_operating_point(c, dco);
    AcEngine engine(c, kind);
    std::vector<std::complex<double>> out;
    si::linalg::ComplexVector x;
    for (const double f : {1e3, 1e5, 1e7}) {
      engine.assemble(2.0 * std::numbers::pi * f);
      engine.solve(engine.rhs(), x);
      out.push_back(x[static_cast<std::size_t>(h.out) - 1]);
    }
    EXPECT_EQ(engine.active_solver(), kind);
    return out;
  };
  const auto ds = sweep(SolverKind::kDense);
  const auto ss = sweep(SolverKind::kSparse);
  ASSERT_EQ(ds.size(), ss.size());
  for (std::size_t i = 0; i < ds.size(); ++i)
    EXPECT_LE(std::abs(ss[i] - ds[i]), 1e-9 * (1.0 + std::abs(ds[i])))
        << "frequency point " << i;
}

TEST(DcSweep, WarmStartMatchesPerPointColdSolves) {
  auto build = [](Circuit& c) {
    c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    MemoryPairOptions opt;
    opt.switches_always_on = true;
    const auto h = build_class_ab_memory_pair(c, opt, "m_");
    return h;
  };

  std::vector<double> levels;
  for (int k = -5; k <= 5; ++k) levels.push_back(k * 2e-6);

  // Warm-started sweep (shared engine, previous point as initial guess).
  Circuit cs;
  const auto hs = build(cs);
  auto& iin = cs.add<CurrentSource>("Iin", cs.ground(), hs.d, 0.0);
  const auto swept = dc_sweep(
      cs, levels, [&](double v) { iin.set_waveform(std::make_unique<DcWave>(v)); },
      [&](const SolutionView& sol) { return sol.voltage(hs.d); });

  // Cold reference: a fresh circuit and zero-start solve per point.
  for (std::size_t k = 0; k < levels.size(); ++k) {
    Circuit cc;
    const auto hc = build(cc);
    cc.add<CurrentSource>("Iin", cc.ground(), hc.d, levels[k]);
    const auto r = dc_operating_point(cc);
    SolutionView sol(cc, r.x);
    EXPECT_NEAR(swept[k], sol.voltage(hc.d), 1e-7) << "point " << k;
  }
}

}  // namespace
