// The baseline key: MnaEngine stamps the linear part of the MNA matrix
// again only when the analysis mode, dt, the integrator, the extra
// diagonal or a switch state changes, and rebuilds the right-hand side
// alone on every other solve (DESIGN.md, "Stamp-partition contract").
//
// These tests pin the key from both sides: every linear element's
// matrix stamp depends on nothing outside it, and the engine stamps
// again or reuses exactly as the key says, with every solve matching a
// fresh engine's.  The lazy Switch::accept is pinned through AC.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "mna_fixtures.hpp"
#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/elements.hpp"
#include "spice/mna.hpp"
#include "spice/mosfet.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
using si::linalg::Matrix;
using si::linalg::Vector;

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One element's stamp at `ctx` through a dense RealStamper.
struct Stamp {
  Matrix a;
  Vector b;
};

Stamp stamp_of(const Circuit& c, Element& e, const StampContext& ctx) {
  const std::size_t n = c.system_size();
  Stamp s{Matrix(n, n), Vector(n, 0.0)};
  const Vector x(n, 0.0);
  RealStamper r(c, s.a, s.b, x);
  e.stamp(r, ctx);
  return s;
}

/// The same stamp through the RHS-only writer.
Vector rhs_of(const Circuit& c, Element& e, const StampContext& ctx) {
  Vector b(c.system_size(), 0.0);
  const Vector x(c.system_size(), 0.0);
  RealStamper r(c, b, x);
  e.stamp(r, ctx);
  return b;
}

// Switch controls: each is on at kOn1 and kOn2 and off at kOff.
constexpr double kOn1 = 2e-7;
constexpr double kOn2 = 3e-7;
constexpr double kOff = 7e-7;

TEST(BaselineKey, LinearMatrixStampsDependOnlyOnTheKey) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<Resistor>("R1", a, b, 1e3);
  auto& cap = c.add<Capacitor>("C1", b, c.ground(), 1e-12);
  c.add<CurrentSource>("I1", c.ground(), a,
                       std::make_unique<SineWave>(1e-6, 2e-6, 1e6));
  auto& v1 = c.add<VoltageSource>("V1", d, c.ground(),
                                  std::make_unique<SineWave>(1.0, 0.5, 1e6));
  c.add<Vccs>("G1", a, c.ground(), b, c.ground(), 1e-3);
  c.add<Vcvs>("E1", c.node("e"), c.ground(), a, b, 2.0);
  c.add<Cccs>("F1", b, c.ground(), v1, 0.5);
  c.add<Ccvs>("H1", c.node("h"), c.ground(), v1, 1e3);
  c.add<Switch>("Spulse", a, d,
                std::make_unique<PulseWave>(0.0, 1.0, 0.0, 1e-9, 1e-9, 4e-7,
                                            1e-6));
  c.add<Switch>("Spwl", b, d,
                std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
                    {0.0, 0.0}, {1e-7, 1.0}, {5e-7, 1.0}, {6e-7, 0.0}}));
  c.add<Switch>("Ssine", a, c.ground(), std::make_unique<SineWave>(0.0, 1.0, 1e6));
  c.add<Switch>("Sdc", b, c.ground(), std::make_unique<DcWave>(1.0));
  c.finalize();

  for (AnalysisMode mode :
       {AnalysisMode::kDcOperatingPoint, AnalysisMode::kTransient}) {
    for (Integrator integ : {Integrator::kTrapezoidal, Integrator::kBackwardEuler}) {
      StampContext k1{mode, kOn1, 1e-9, integ};
      StampContext k2{mode, kOn2, 1e-9, integ};
      for (const auto& e : c.elements()) {
        const Stamp s1 = stamp_of(c, *e, k1);
        // Move the capacitor's companion history between the stamps:
        // it reaches the RHS only.
        Vector x(c.system_size(), 0.0);
        x[static_cast<std::size_t>(b - 1)] = 0.7;
        cap.accept(SolutionView(c, x), k1);
        const Stamp s2 = stamp_of(c, *e, k2);
        EXPECT_TRUE(same_bits(s1.a, s2.a))
            << e->name() << " mode=" << static_cast<int>(mode);
        // The RHS-only writer makes the full stamp's RHS adds.
        EXPECT_TRUE(same_bits(rhs_of(c, *e, k2), s2.b)) << e->name();
      }
    }
  }

  // A switch's matrix stamp moves across its edge (transient mode).
  const StampContext on{AnalysisMode::kTransient, kOn1, 1e-9,
                        Integrator::kTrapezoidal};
  const StampContext off{AnalysisMode::kTransient, kOff, 1e-9,
                         Integrator::kTrapezoidal};
  for (const char* name : {"Spulse", "Spwl", "Ssine"}) {
    Element& sw = *c.find(name);
    EXPECT_FALSE(same_bits(stamp_of(c, sw, on).a, stamp_of(c, sw, off).a))
        << name;
  }
}

/// Switch states at `ctx`, one per Switch in element order: the part of
/// the baseline key the circuit holds.
std::vector<bool> switch_states(const Circuit& c, const StampContext& ctx) {
  std::vector<bool> out;
  for (const auto& e : c.elements())
    if (const auto* sw = dynamic_cast<const Switch*>(e.get()))
      out.push_back(sw->is_on(ctx.time, ctx.mode));
  return out;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// Solves on `engine` from `x` and checks that it stamped the baseline
/// again iff `expect_stamp`, and that it matches a fresh engine's solve
/// from the same seed within 1e-9 V.
void check_solve(Circuit& c, MnaEngine& engine, const StampContext& ctx,
                 Vector& x, bool expect_stamp, double gdiag = 0.0) {
  const NewtonOptions nopt;
  const MnaStats before = engine.stats();
  Vector fresh_x = x;
  engine.newton(ctx, x, nopt, gdiag);
  MnaEngine fresh(c);
  fresh.newton(ctx, fresh_x, nopt, gdiag);
  EXPECT_EQ(engine.stats().base_stamps - before.base_stamps,
            expect_stamp ? 1u : 0u)
      << "t=" << ctx.time << " dt=" << ctx.dt << " gdiag=" << gdiag;
  EXPECT_EQ(engine.stats().base_reuses - before.base_reuses,
            expect_stamp ? 0u : 1u)
      << "t=" << ctx.time << " dt=" << ctx.dt << " gdiag=" << gdiag;
  EXPECT_LE(max_abs_diff(x, fresh_x), 1e-9) << "t=" << ctx.time;
}

TEST(BaselineReuse, TransientStampsAgainExactlyWhenTheKeyMoves) {
  // The 2-stage Table 1 chain (14 unknowns), dense and padded sparse:
  // a DC start, then 1.5025 clock periods, so the run crosses six clock
  // edges and ends on a partial step.
  for (bool sparse : {false, true}) {
    Circuit c;
    c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    si::cells::netlists::DelayStageOptions opt;
    const auto h =
        si::cells::netlists::build_delay_line_chain(c, 2, opt, "dl_");
    const double T = opt.pair.clock_period;
    c.add<CurrentSource>("Iin", c.ground(), h.in,
                         std::make_unique<SineWave>(1e-6, 3e-6, 1.0 / (4.0 * T)));
    if (sparse) si::test::pad_unknowns(c);
    c.finalize();

    MnaEngine engine(c);
    StampContext ctx;
    Vector x(c.system_size(), 0.0);
    check_solve(c, engine, ctx, x, /*expect_stamp=*/true);
    for (const auto& e : c.elements()) e->accept(SolutionView(c, x), ctx);
    // The same DC context again reuses the baseline.
    check_solve(c, engine, ctx, x, /*expect_stamp=*/false);

    const double dt = T / 200.0;
    const double t_stop = 1.5025 * T;
    const auto full = static_cast<std::size_t>(t_stop / dt);
    std::vector<bool> prev = switch_states(c, ctx);
    ctx.mode = AnalysisMode::kTransient;
    int stamps = 0;
    for (std::size_t k = 1; k <= full + 1; ++k) {
      const double prev_dt = ctx.dt;
      ctx.time = k <= full ? static_cast<double>(k) * dt : t_stop;
      ctx.dt = k <= full ? dt : t_stop - static_cast<double>(full) * dt;
      const std::vector<bool> now = switch_states(c, ctx);
      const bool expect = k == 1 || now != prev || ctx.dt != prev_dt;
      stamps += expect;
      check_solve(c, engine, ctx, x, expect);
      for (const auto& e : c.elements()) e->accept(SolutionView(c, x), ctx);
      prev = now;
    }
    // The first step, each of the six edges and the partial step.
    EXPECT_EQ(stamps, 8) << "sparse=" << sparse;
  }
}

TEST(BaselineReuse, EachGminRungStampsAgain) {
  // SpiceDc.GminLadderRescuesSingularColdStart's circuit: a 3.3 V supply
  // behind 0.01 ohm feeds a PMOS (gate grounded) whose drain is shared
  // with an NMOS gated at 1.5 V.  The cold start is singular; the
  // ladder's rungs each change the extra diagonal.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId g = c.node("g");
  const NodeId s = c.node("s");
  const NodeId n = c.node("n");
  const MosfetParams p;
  c.add<VoltageSource>("Vdd", vdd, c.ground(), 3.3);
  c.add<Resistor>("Rs", vdd, s, 0.01);
  c.add<VoltageSource>("Vg", g, c.ground(), 1.5);
  c.add<Mosfet>("Mp", MosType::kPmos, n, c.ground(), s, p);
  c.add<Mosfet>("Mn", MosType::kNmos, n, g, c.ground(), p);
  c.finalize();

  MnaEngine engine(c);
  const StampContext ctx;
  Vector x(c.system_size(), 0.0);
  EXPECT_THROW(engine.newton(ctx, x, NewtonOptions{}), ConvergenceError);
  EXPECT_EQ(engine.stats().base_stamps, 1u);
  x.assign(c.system_size(), 0.0);
  for (double gd = 1e-2; gd > kGmin * 1.0001; gd *= 0.1)
    check_solve(c, engine, ctx, x, /*expect_stamp=*/true, gd);
  check_solve(c, engine, ctx, x, /*expect_stamp=*/true);
  // The final rung's key again: reused.
  check_solve(c, engine, ctx, x, /*expect_stamp=*/false);
}

TEST(BaselineReuse, DcSweepPointsReuseOneBaseline) {
  // A sweep point moves a source level, which reaches the RHS only: the
  // whole sweep stamps its baseline once, and each point matches a
  // fresh engine's solve from the same warm start.
  si::obs::set_enabled(true);
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  si::cells::netlists::DelayStageOptions opt;
  const auto h = si::cells::netlists::build_delay_line_chain(c, 2, opt, "dl_");
  auto& iin = c.add<CurrentSource>("Iin", c.ground(), h.in, 0.0);
  const std::vector<double> levels = {-4e-6, -2e-6, 0.0, 2e-6, 4e-6};
  std::vector<Vector> xs;
  DcOptions dopt;
  dopt.erc_gate = false;
  si::obs::Counter& stamps = si::obs::counter("mna.baseline_stamps");
  si::obs::Counter& reuses = si::obs::counter("mna.baseline_reuses");
  const std::uint64_t stamps0 = stamps.value();
  const std::uint64_t reuses0 = reuses.value();
  (void)dc_sweep(
      c, levels, [&](double v) { iin.set_level(v); },
      [&](const SolutionView& sol) {
        xs.push_back(sol.raw());
        return 0.0;
      },
      dopt);
  EXPECT_EQ(stamps.value() - stamps0, 1u);
  EXPECT_EQ(reuses.value() - reuses0, levels.size() - 1);
  for (std::size_t k = 0; k < levels.size(); ++k) {
    iin.set_level(levels[k]);
    MnaEngine fresh(c);
    const DcResult r =
        dc_operating_point(c, fresh, dopt, k ? &xs[k - 1] : nullptr);
    EXPECT_LE(max_abs_diff(r.x, xs[k]), 1e-9) << "point " << k;
  }
  si::obs::set_enabled(false);
}

TEST(BaselineReuse, ModeChangeAloneStampsAgain) {
  // DC and transient at the same dt, with the switch in the same state:
  // only the mode differs, and the capacitor's companion appears.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<CurrentSource>("I1", c.ground(), a, 1e-3);
  c.add<Resistor>("R1", a, c.ground(), 1e3);
  c.add<Switch>("S", a, b, std::make_unique<DcWave>(1.0));
  c.add<Capacitor>("C1", b, c.ground(), 1e-9);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.finalize();
  MnaEngine engine(c);
  StampContext ctx{AnalysisMode::kDcOperatingPoint, 0.0, 1e-7,
                   Integrator::kBackwardEuler};
  Vector x(c.system_size(), 0.0);
  check_solve(c, engine, ctx, x, /*expect_stamp=*/true);
  for (const auto& e : c.elements()) e->accept(SolutionView(c, x), ctx);
  ctx.mode = AnalysisMode::kTransient;
  ctx.time = 1e-7;
  check_solve(c, engine, ctx, x, /*expect_stamp=*/true);
}

constexpr double kRon = 10.0;
constexpr double kRoff = 1e9;

/// A linear switched network with an AC source: Iin into a, R1 a-0,
/// switch S between a and b, R2 b-0 and C1 b-0.  S is driven by `ctrl`;
/// without a control, a resistor of `r_fixed` stands in its place.
struct SwitchedRc {
  Circuit c;
  explicit SwitchedRc(std::unique_ptr<Waveform> ctrl, double r_fixed = 0.0) {
    const NodeId a = c.node("a");
    const NodeId b = c.node("b");
    c.add<CurrentSource>("Iin", c.ground(), a, 1e-6).set_ac_magnitude(1.0);
    c.add<Resistor>("R1", a, c.ground(), 1e3);
    if (ctrl)
      c.add<Switch>("S", a, b, std::move(ctrl), kRon, kRoff);
    else
      c.add<Resistor>("S", a, b, r_fixed);
    c.add<Resistor>("R2", b, c.ground(), 2e3);
    c.add<Capacitor>("C1", b, c.ground(), 1e-9);
  }
  AcResult ac() {
    AcOptions o;
    o.erc_gate = false;
    return ac_analysis(c, log_space(1e3, 1e7, 3), o);
  }
};

std::unique_ptr<Waveform> clock() {
  return std::make_unique<PulseWave>(0.0, 1.0, 0.0, 1e-9, 1e-9, 4e-7, 1e-6);
}

void expect_same_ac(const AcResult& got, const AcResult& want) {
  ASSERT_EQ(got.solutions.size(), want.solutions.size());
  for (std::size_t k = 0; k < want.solutions.size(); ++k)
    for (std::size_t i = 0; i < want.solutions[k].size(); ++i) {
      EXPECT_EQ(got.solutions[k][i].real(), want.solutions[k][i].real());
      EXPECT_EQ(got.solutions[k][i].imag(), want.solutions[k][i].imag());
    }
}

TEST(SwitchAccept, AcAfterTransientSeesTheFinalSwitchState) {
  // The switch records its accepted time and mode and evaluates its
  // control when AC stamps it.  A transient that ends with the switch
  // on (off) gives, bit for bit, the small-signal system of the same
  // circuit with the switch held on (off) by a DC control, and of a
  // resistor of r_on (r_off) in its place.
  DcOptions dopt;
  dopt.erc_gate = false;
  for (const auto& [t_stop, on] : {std::pair{3e-7, true}, std::pair{7e-7, false}}) {
    SwitchedRc clocked(clock());
    TransientOptions topt;
    topt.t_stop = t_stop;
    topt.dt = 1e-8;
    topt.erc_gate = false;
    Transient(clocked.c, topt).run();
    const AcResult got = clocked.ac();

    SwitchedRc held(std::make_unique<DcWave>(on ? 1.0 : 0.0));
    (void)dc_operating_point(held.c, dopt);
    expect_same_ac(got, held.ac());
    SwitchedRc fixed(nullptr, on ? kRon : kRoff);
    (void)dc_operating_point(fixed.c, dopt);
    expect_same_ac(got, fixed.ac());
  }
}

TEST(SwitchAccept, AcBeforeAnyAcceptSeesTheSwitchOff) {
  SwitchedRc never_accepted(std::make_unique<DcWave>(1.0));
  SwitchedRc off(nullptr, kRoff);
  expect_same_ac(never_accepted.ac(), off.ac());
}

TEST(BaselineReuse, ModulatorCoreStampsOncePerSwitchPattern) {
  // The 8-section core over 2 clock periods: one full stamp for the DC
  // start, one for the first transient step, one per switch-state
  // change, and a reuse on every other solve.
  si::obs::set_enabled(true);
  Circuit c;
  c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  si::cells::netlists::ModulatorCoreOptions opt;
  const auto h = si::cells::netlists::build_modulator_core(c, 8, opt, "mod_");
  const double T = opt.stage.pair.clock_period;
  const double f = 1.0 / (8.0 * T);
  c.add<CurrentSource>("Iinp", c.ground(), h.in_p,
                       std::make_unique<SineWave>(0.0, 4e-6, f));
  c.add<CurrentSource>("Iinm", c.ground(), h.in_m,
                       std::make_unique<SineWave>(0.0, -4e-6, f));
  TransientOptions topt;
  topt.t_stop = 2.0 * T;
  topt.dt = T / 200.0;
  topt.erc_gate = false;

  // Switch-state changes between consecutive grid steps, read from the
  // circuit's own switches.
  c.finalize();
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  std::vector<bool> prev = switch_states(c, {AnalysisMode::kTransient, topt.dt});
  std::uint64_t changes = 0;
  for (int k = 2; k <= 400; ++k) {
    ctx.time = k * topt.dt;
    const std::vector<bool> now = switch_states(c, ctx);
    changes += now != prev;
    prev = now;
  }
  EXPECT_EQ(changes, 8u);  // four clock edges per period

  si::obs::Counter& solves = si::obs::counter("mna.newton_solves");
  si::obs::Counter& stamps = si::obs::counter("mna.baseline_stamps");
  si::obs::Counter& reuses = si::obs::counter("mna.baseline_reuses");
  const std::uint64_t solves0 = solves.value();
  const std::uint64_t stamps0 = stamps.value();
  const std::uint64_t reuses0 = reuses.value();
  const TransientResult res = Transient(c, topt).run();
  ASSERT_EQ(res.steps_accepted, 400u);
  EXPECT_EQ(solves.value() - solves0, 401u);  // the DC start and 400 steps
  EXPECT_EQ(stamps.value() - stamps0, 2u + changes);
  EXPECT_EQ(reuses.value() - reuses0, 401u - 2u - changes);
  si::obs::set_enabled(false);
}

}  // namespace
