// MNA engine behavior: the size rule that picks the dense or sparse
// representation, dense-vs-sparse parity on transistor-level netlists
// (DC, and the AcEngine sweep) with each circuit run as is and padded
// past the threshold, symbolic-reuse accounting, pattern-cache
// invalidation and MOSFET rebinding on circuit edits, pattern-miss
// recovery (in the baseline and at bind time), and the stamp writers —
// RealStamper's backends and the MOSFETs' bound slot blocks — agreeing
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <complex>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mna_fixtures.hpp"
#include "obs/telemetry.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/mosfet.hpp"
#include "spice/transient.hpp"

namespace {

using namespace si::spice;
using namespace si::cells::netlists;
using si::test::LatePathElement;
using si::test::pad_unknowns;
using si::test::ThresholdBridge;

/// One solve of a 1 V divider padded to `n` unknowns; returns the stats.
MnaStats divider_stats(std::size_t n) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  pad_unknowns(c, n);
  EXPECT_EQ(c.system_size(), n);
  MnaEngine engine(c);
  si::linalg::Vector x;
  engine.newton(StampContext{}, x, NewtonOptions{});
  EXPECT_NEAR(x[b - 1], 0.5, 1e-8);
  return engine.stats();
}

TEST(SolverSelect, AutoUsesSizeThreshold) {
  // The representation follows the system size alone.
  const MnaStats below = divider_stats(kSparseAutoThreshold - 1);
  EXPECT_EQ(below.dense_factors, 1u);
  EXPECT_EQ(below.pattern_builds, 0u);
  EXPECT_EQ(below.symbolic_factors, 0u);
  const MnaStats at = divider_stats(kSparseAutoThreshold);
  EXPECT_EQ(at.dense_factors, 0u);
  EXPECT_EQ(at.pattern_builds, 1u);
  EXPECT_EQ(at.symbolic_factors, 1u);
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
  // The 1-section core has 19 unknowns and solves dense; padded past
  // the threshold it solves sparse.
  auto solve = [](bool pad) {
    Circuit c;
    build_modulator_fixture(c, 1);
    c.finalize();
    const std::size_t nodes = c.node_count();
    if (pad) pad_unknowns(c);
    MnaEngine engine(c);
    DcOptions opt;
    opt.erc_gate = false;
    const auto x = dc_operating_point(c, engine, opt).x;
    EXPECT_EQ(engine.stats().dense_factors > 0, !pad);
    EXPECT_EQ(engine.stats().symbolic_factors > 0, pad);
    return si::test::original_unknowns(c, nodes, x);
  };
  const auto xd = solve(false);
  const auto xs = solve(true);
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
  pad_unknowns(c);

  MnaEngine engine(c);
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
  EXPECT_EQ(st.dense_factors, 0u);
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
  pad_unknowns(c);

  MnaEngine engine(c);
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
  EXPECT_EQ(engine.stats().dense_factors, 0u);
  // Check against the same divider unpadded, which solves dense.
  Circuit ref;
  const NodeId ra = ref.node("a");
  const NodeId rb = ref.node("b");
  const NodeId rd = ref.node("d");
  ref.add<VoltageSource>("V1", ra, ref.ground(), 1.0);
  ref.add<Resistor>("R1", ra, rb, 1e3);
  ref.add<Resistor>("R2", rb, ref.ground(), 1e3);
  ref.add<Resistor>("R3", rb, rd, 1e3);
  ref.add<Resistor>("R4", rd, ref.ground(), 1e3);
  MnaEngine dense(ref);
  si::linalg::Vector xr;
  dense.newton(ctx, xr, nopt);
  EXPECT_EQ(dense.stats().dense_factors, 1u);
  const SolutionView sol(c, x);
  const SolutionView rsol(ref, xr);
  for (const char* name : {"a", "b", "d"})
    EXPECT_NEAR(sol.voltage(c.node(name)), rsol.voltage(ref.node(name)), 1e-12)
        << name;
  EXPECT_NEAR(sol.branch_current(0), rsol.branch_current(0), 1e-12);
}

TEST(MnaEngine, PatternMissGrowsPatternAndResetsOnEdit) {
  si::obs::set_enabled(true);
  si::obs::Counter& misses = si::obs::counter("mna.pattern_misses");
  const std::uint64_t misses_before = misses.value();

  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.add<Resistor>("R3", d, c.ground(), 1e3);
  c.add<LatePathElement>("X1", b, d, /*dt_on=*/2e-3);
  pad_unknowns(c);

  MnaEngine engine(c);
  NewtonOptions nopt;
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = 1e-3;
  si::linalg::Vector x;

  // Below dt_on the discovered pattern is complete.
  ctx.time = 1e-3;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 1u);
  EXPECT_EQ(engine.stats().pattern_misses, 0u);
  EXPECT_NEAR(x[b - 1], 0.5, 1e-6);

  // A step of dt_on stamps outside the pattern: the engine grows the
  // pattern by the missed coordinate, stays sparse, and counts the miss.
  ctx.time = 1.0;
  ctx.dt = 2e-3;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
  EXPECT_EQ(engine.stats().dense_factors, 0u);
  EXPECT_EQ(misses.value(), misses_before + 1);
  // b now loaded by R2 || (1k bridge + R3) = 1k || 2k.
  EXPECT_NEAR(x[b - 1], 0.4, 1e-6);

  // The grown pattern holds: no rebuild on the next solve.
  ctx.time = 1.1;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);

  // An edit (revision bump) rediscovers the pattern — at dt_on, so the
  // bridge is part of it and nothing misses.
  c.add<Resistor>("R4", d, c.ground(), 1e6);
  c.finalize();
  ctx.time = 1.2;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 3u);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().dense_factors, 0u);
  EXPECT_NEAR(x[b - 1], 0.4, 1e-3);  // R4 = 1M barely loads node d

  si::obs::set_enabled(false);
}

TEST(MnaEngine, RejectsNonlinearElementThatIsNotAMosfet) {
  // MOSFETs are the engine's only nonlinear elements: each is restamped
  // through the slot block the system bound for it.  Any other element
  // reporting nonlinear() is refused, by name, before the first solve.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<ThresholdBridge>("X1", b, c.ground(), /*v_on=*/0.25);
  MnaEngine engine(c);
  si::linalg::Vector x;
  try {
    engine.newton(StampContext{}, x, NewtonOptions{});
    ADD_FAILURE() << "no std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("'X1' is not a Mosfet"),
              std::string::npos)
        << e.what();
  }
}

/// The pattern MnaSystem::reset discovers for `c`: every element's
/// stamp at `x` under both analysis modes, symmetrized.
std::shared_ptr<const si::linalg::SparsePattern> discover_pattern(
    const Circuit& c, const StampContext& ctx, const si::linalg::Vector& x) {
  si::linalg::PatternBuilder rec(static_cast<int>(c.system_size()));
  si::linalg::Vector scratch_b(c.system_size(), 0.0);
  RealStamper r(c, rec, scratch_b, x);
  StampContext dc_ctx = ctx;
  dc_ctx.mode = AnalysisMode::kDcOperatingPoint;
  StampContext tran_ctx = ctx;
  tran_ctx.mode = AnalysisMode::kTransient;
  if (tran_ctx.dt <= 0.0) tran_ctx.dt = 1.0;
  for (const auto& e : c.elements()) e->stamp(r, dc_ctx);
  for (const auto& e : c.elements()) e->stamp(r, tran_ctx);
  return rec.build(/*symmetrize=*/true);
}

/// One assembly, factor and solve of `sys` at `x`: baseline, gmin, then
/// the MOSFETs, through their bound blocks as MnaEngine iterates or,
/// when `nonlinear` is given, through the virtual Mosfet::stamp: a
/// RealStamper adds onto a copy of the iteration matrix (sparse over the
/// discovered pattern, dense below the threshold), which is written
/// back before the factor.  The RHS is left in `*b` when given.
si::linalg::Vector solve_once(MnaSystem<double>& sys, const Circuit& c,
                              const StampContext& ctx,
                              const std::vector<Element*>& linear,
                              const si::linalg::Vector& x,
                              const std::vector<Element*>* nonlinear = nullptr,
                              si::linalg::Vector* b = nullptr) {
  const std::size_t n = c.system_size();
  si::linalg::Vector b0(n, 0.0), rhs, x_new;
  {
    RealStamper s = sys.baseline_stamper(c, b0, x);
    for (Element* e : linear) e->stamp(s, ctx);
  }
  sys.add_diagonal(c.node_count() - 1, kGmin);
  rhs = b0;
  double* a = sys.load_iteration();
  if (!nonlinear) {
    sys.stamp_bound(a, ctx, rhs, x);
  } else if (n >= kSparseAutoThreshold) {
    si::linalg::SparseMatrixD as(discover_pattern(c, ctx, x));
    std::vector<double>& values = as.values();
    std::copy(a, a + values.size(), values.begin());
    RealStamper s(c, as, rhs, x);
    for (Element* e : *nonlinear) e->stamp(s, ctx);
    std::copy(values.begin(), values.end(), a);
  } else {
    si::linalg::Matrix ad(n, n);
    std::copy(a, a + n * n, ad.data());
    RealStamper s(c, ad, rhs, x);
    for (Element* e : *nonlinear) e->stamp(s, ctx);
    std::copy(ad.data(), ad.data() + n * n, a);
  }
  sys.factor();
  sys.solve(rhs, x_new);
  if (b) *b = rhs;
  return x_new;
}

TEST(MnaSystem, BindOutsidePatternGrowsItBeforeAnyIteration) {
  // A pattern discovered without the MOSFET lacks its drain-gate
  // coordinates.  bind() takes them through the stamp-pattern recovery
  // (counted as misses, one rebuild each) instead of writing out of
  // range, and the system then solves exactly as one whose discovery
  // saw the device.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add<VoltageSource>("Vdd", vdd, c.ground(), 3.3);
  c.add<VoltageSource>("Vg", g, c.ground(), 1.5);
  c.add<Resistor>("RL", vdd, d, 20e3);
  MosfetParams mp;
  mp.cgd = 5e-15;
  c.add<Mosfet>("M1", MosType::kNmos, d, g, c.ground(), mp);
  pad_unknowns(c);
  std::vector<Element*> linear, nonlinear;
  for (const auto& e : c.elements())
    (e->nonlinear() ? nonlinear : linear).push_back(e.get());
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = 1e-9;
  si::linalg::Vector x(c.system_size(), 0.0);
  x[static_cast<std::size_t>(vdd - 1)] = 3.3;
  x[static_cast<std::size_t>(d - 1)] = 2.0;
  x[static_cast<std::size_t>(g - 1)] = 1.5;

  MnaSystem<double> full;
  full.reset(c, ctx, linear, nonlinear);
  full.bind(nonlinear);
  MnaSystem<double> late;
  late.reset(c, ctx, linear, {});
  const std::uint64_t builds = late.stats().pattern_builds;
  late.bind(nonlinear);
  EXPECT_EQ(full.stats().pattern_misses, 0u);
  EXPECT_GE(late.stats().pattern_misses, 1u);
  EXPECT_EQ(late.stats().pattern_builds,
            builds + late.stats().pattern_misses);

  const auto xf = solve_once(full, c, ctx, linear, x);
  const auto xl = solve_once(late, c, ctx, linear, x);
  ASSERT_EQ(xf.size(), xl.size());
  for (std::size_t i = 0; i < xf.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(xf[i]),
              std::bit_cast<std::uint64_t>(xl[i]))
        << "unknown " << i;
}

TEST(MnaEngine, MosfetAddedAfterSolveIsRebound) {
  // Dense (the 1-section core) and sparse (padded): after a solve, add
  // a MOSFET on a new node and re-finalize.  The next solve must bind
  // it, and equal a fresh engine's solve of the edited circuit bit for
  // bit.
  for (const bool pad : {false, true}) {
    auto build = [pad](Circuit& c) {
      build_modulator_fixture(c, 1);
      if (pad) pad_unknowns(c);
    };
    auto extend = [](Circuit& c) {
      const NodeId x = c.node("x");
      c.add<Resistor>("Rx", c.node("vdd"), x, 50e3);
      c.add<Mosfet>("Mx", MosType::kNmos, x, c.node("vdd"), c.ground(),
                    MosfetParams{});
      c.finalize();
    };
    DcOptions dco;
    dco.erc_gate = false;

    Circuit edited;
    build(edited);
    MnaEngine engine(edited);
    dc_operating_point(edited, engine, dco);
    const std::uint64_t builds = engine.stats().pattern_builds;
    extend(edited);
    const auto xe = dc_operating_point(edited, engine, dco).x;
    EXPECT_EQ(engine.stats().pattern_builds, builds + (pad ? 1u : 0u));
    EXPECT_EQ(engine.stats().dense_factors > 0, !pad);

    Circuit fresh;
    build(fresh);
    extend(fresh);
    MnaEngine fresh_engine(fresh);
    const auto xf = dc_operating_point(fresh, fresh_engine, dco).x;
    ASSERT_EQ(xe.size(), xf.size());
    for (std::size_t i = 0; i < xe.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(xe[i]),
                std::bit_cast<std::uint64_t>(xf[i]))
          << (pad ? "sparse" : "dense") << " unknown " << i;
    const SolutionView sol(edited, xe);
    EXPECT_LT(sol.voltage(edited.node("x")), 1.0);  // Mx pulls x down
  }
}

TEST(MnaEngine, AutoPicksSparseForLargeNetlists) {
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
  EXPECT_EQ(engine.stats().pattern_builds, 1u);
  EXPECT_GE(engine.stats().symbolic_factors, 1u);
  EXPECT_EQ(engine.stats().dense_factors, 0u);
}

/// First entry where `a` and `b` differ in any bit, or "" when every
/// bit agrees (so -0.0 and 0.0 differ, as a changed write order would).
std::string bit_mismatch(const si::linalg::Matrix& a,
                         const si::linalg::Matrix& b) {
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t k = 0; k < a.cols(); ++k)
      if (std::bit_cast<std::uint64_t>(a(r, k)) !=
          std::bit_cast<std::uint64_t>(b(r, k)))
        return "A(" + std::to_string(r) + "," + std::to_string(k) + ")";
  return "";
}

std::string bit_mismatch(const si::linalg::Vector& a,
                         const si::linalg::Vector& b) {
  for (std::size_t r = 0; r < a.size(); ++r)
    if (std::bit_cast<std::uint64_t>(a[r]) !=
        std::bit_cast<std::uint64_t>(b[r]))
      return "b(" + std::to_string(r) + ")";
  return "";
}

/// Stamps every element of `c` at a perturbed operating point `x0` in
/// `ctx` through each writer and checks matrix and RHS against the dense
/// RealStamper in every bit:
///  - a sparse RealStamper with a slot memo: recording, replay, and
///    replay after one MOSFET's drain and source swap (the memo patches
///    its shifted sequence);
///  - the slot-bound writer MnaEngine iterates with: each MOSFET through
///    its MosfetSlots (dense r·n + c and sparse pattern slots), every
///    other element through RealStamper, in element order.
/// Returns the discovered pattern and the memo after the three passes.
std::pair<std::shared_ptr<const si::linalg::SparsePattern>,
          si::linalg::SlotMemo>
expect_writers_agree(const Circuit& c, const StampContext& ctx,
                     const si::linalg::Vector& x0, const std::string& what) {
  const std::size_t n = c.system_size();
  const auto pattern = discover_pattern(c, ctx, x0);
  si::linalg::SparseMatrixD as(pattern);
  si::linalg::SlotMemo memo;

  // Each MOSFET's blocks, by element index, as MnaSystem::bind resolves
  // them.
  std::vector<const Mosfet*> mos;
  std::vector<MosfetSlots> dense_slots, sparse_slots;
  for (const auto& e : c.elements()) {
    const auto* m = dynamic_cast<const Mosfet*>(e.get());
    mos.push_back(m);
    dense_slots.push_back(
        m ? MosfetSlots::resolve(*m, nullptr, static_cast<int>(n))
          : MosfetSlots{});
    sparse_slots.push_back(
        m ? MosfetSlots::resolve(*m, pattern.get(), static_cast<int>(n))
          : MosfetSlots{});
  }

  // Pulling a MOSFET's drain 0.25 V past its source swaps the device's
  // effective drain and source.
  const Mosfet* swap = nullptr;
  for (const Mosfet* m : mos)
    if (m && m->drain() != c.ground()) {
      swap = m;
      break;
    }
  EXPECT_NE(swap, nullptr) << what;
  if (!swap) return {pattern, memo};
  si::linalg::Vector x_swapped = x0;
  {
    const SolutionView sol(c, x0);
    const double sign = swap->type() == MosType::kNmos ? 1.0 : -1.0;
    const bool forward =
        sign * sol.voltage(swap->drain()) >= sign * sol.voltage(swap->source());
    x_swapped[static_cast<std::size_t>(swap->drain() - 1)] =
        sol.voltage(swap->source()) + (forward ? -0.25 : 0.25) * sign;
  }

  std::vector<std::uint64_t> replayed_coords;
  for (int pass = 0; pass < 3; ++pass) {
    const si::linalg::Vector& x = pass < 2 ? x0 : x_swapped;
    const std::string label = what + " pass " + std::to_string(pass);
    si::linalg::Matrix ad(n, n);
    si::linalg::Vector bd(n, 0.0);
    {
      RealStamper s(c, ad, bd, x);
      for (const auto& e : c.elements()) e->stamp(s, ctx);
    }
    as.set_zero();
    si::linalg::Vector bs(n, 0.0);
    if (pass == 0)
      memo.start_record();
    else
      memo.start_replay();
    {
      RealStamper s(c, as, bs, x, &memo);
      for (const auto& e : c.elements()) e->stamp(s, ctx);
    }
    EXPECT_EQ(bit_mismatch(as.to_dense(), ad), "") << label;
    EXPECT_EQ(bit_mismatch(bs, bd), "") << label;
    if (pass == 1) replayed_coords = memo.coords;

    // The slot-bound writer, dense and sparse.
    si::linalg::Matrix adb(n, n);
    si::linalg::Vector bdb(n, 0.0);
    si::linalg::SparseMatrixD asb(pattern);
    si::linalg::Vector bsb(n, 0.0);
    {
      RealStamper sd(c, adb, bdb, x);
      RealStamper ss(c, asb, bsb, x);
      for (std::size_t k = 0; k < c.elements().size(); ++k) {
        if (!mos[k]) {
          c.elements()[k]->stamp(sd, ctx);
          c.elements()[k]->stamp(ss, ctx);
          continue;
        }
        SlotStamper wd(adb.data(), bdb.data(), x.data(), dense_slots[k]);
        mos[k]->stamp(wd, ctx);
        SlotStamper ws(asb.values().data(), bsb.data(), x.data(),
                       sparse_slots[k]);
        mos[k]->stamp(ws, ctx);
      }
    }
    EXPECT_EQ(bit_mismatch(adb, ad), "") << label << " bound dense";
    EXPECT_EQ(bit_mismatch(bdb, bd), "") << label << " bound dense";
    EXPECT_EQ(bit_mismatch(asb.to_dense(), ad), "") << label << " bound sparse";
    EXPECT_EQ(bit_mismatch(bsb, bd), "") << label << " bound sparse";
  }
  // The swap shifted the recorded sequence, so the memo was patched.
  EXPECT_NE(memo.coords, replayed_coords) << what;
  return {pattern, memo};
}

/// MnaEngine's restamp (load_iteration + stamp_bound) against the
/// RealStamper restamp (the virtual Mosfet::stamp over the MOSFETs in
/// element order) on two systems over one pattern: the RHS and the
/// solution of one factor and solve agree in every bit, so the bound
/// devices are stamped in the engine's order.
void expect_bound_restamp_matches(const Circuit& c, const StampContext& ctx,
                                  const si::linalg::Vector& x,
                                  const std::string& what) {
  std::vector<Element*> linear, nonlinear;
  for (const auto& e : c.elements())
    (e->nonlinear() ? nonlinear : linear).push_back(e.get());
  MnaSystem<double> bound, memo;
  bound.reset(c, ctx, linear, nonlinear);
  bound.bind(nonlinear);
  memo.reset(c, ctx, linear, nonlinear);
  si::linalg::Vector b_bound, b_memo;
  const auto x_bound = solve_once(bound, c, ctx, linear, x, nullptr, &b_bound);
  const auto x_memo = solve_once(memo, c, ctx, linear, x, &nonlinear, &b_memo);
  EXPECT_EQ(bit_mismatch(b_bound, b_memo), "") << what << " system RHS";
  EXPECT_EQ(bit_mismatch(x_bound, x_memo), "") << what << " system solution";
}

/// The contexts a MOSFET stamps differently in: DC (capacitors open),
/// trapezoidal and backward-Euler companions.
std::vector<std::pair<std::string, StampContext>> stamp_contexts(double dt) {
  StampContext dc;
  dc.mode = AnalysisMode::kDcOperatingPoint;
  StampContext trap;
  trap.mode = AnalysisMode::kTransient;
  trap.dt = dt;
  trap.time = 37.0 * dt;
  StampContext be = trap;
  be.integrator = Integrator::kBackwardEuler;
  return {{"dc", dc}, {"trap", trap}, {"be", be}};
}

/// What the modulator cores lack: a grounded gate, a grounded drain, a
/// diode-connected device (drain = gate), an explicit bulk with
/// gamma > 0, and cgd > 0 on every device.  Returns an iterate after
/// giving every capacitor companion a DC and a transient history, so
/// the companions carry current.
si::linalg::Vector build_terminal_corners(Circuit& c, double dt) {
  const NodeId vdd = c.node("vdd");
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  const NodeId e = c.node("e");
  c.add<VoltageSource>("Vdd", vdd, c.ground(), 3.3);
  for (const NodeId node : {a, b, d, e})
    c.add<Resistor>("R" + c.node_name(node), node, c.ground(), 10e3);
  MosfetParams mp;
  mp.cgs = 20e-15;
  mp.cgd = 7e-15;
  MosfetParams body = mp;
  body.gamma = 0.45;
  c.add<Mosfet>("Mgg", MosType::kNmos, a, c.ground(), b, mp);  // gate grounded
  c.add<Mosfet>("Mgd", MosType::kPmos, c.ground(), a, e, mp);  // drain grounded
  c.add<Mosfet>("Mdio", MosType::kPmos, d, d, vdd, mp);        // diode
  c.add<Mosfet>("Mblk", MosType::kNmos, b, e, d, a, body);     // bulk at a
  c.add<Mosfet>("Mcs", MosType::kNmos, e, b, c.ground(), mp);
  c.finalize();
  const std::size_t n = c.system_size();
  si::linalg::Vector x0(n, 0.0), x1(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    x0[i] = 0.4 + 0.37 * static_cast<double>(i);
    x1[i] = x0[i] + 0.05 * std::cos(static_cast<double>(i));
  }
  const auto contexts = stamp_contexts(dt);
  const SolutionView s0(c, x0), s1(c, x1);
  for (const auto& el : c.elements()) el->accept(s0, contexts[0].second);
  for (const auto& el : c.elements()) el->accept(s1, contexts[1].second);
  return x1;
}

TEST(StamperBackends, SparseSlotMemoMatchesDenseBitForBit) {
  // The 8-section modulator core (sparse in the engine), the 1-section
  // core (19 unknowns, dense) and the terminal-corner circuit, each at a
  // perturbed operating point in DC, trapezoidal and backward-Euler
  // contexts.  Every writer must agree in every bit.
  const double dt = ModulatorCoreOptions{}.stage.pair.clock_period / 200.0;
  {
    Circuit c;
    const si::linalg::Vector x = build_terminal_corners(c, dt);
    for (const auto& [name, ctx] : stamp_contexts(dt)) {
      expect_writers_agree(c, ctx, x, "corners " + name);
      expect_bound_restamp_matches(c, ctx, x, "corners " + name);
    }
  }
  for (const int sections : {8, 1}) {
    Circuit c;
    build_modulator_fixture(c, sections);
    c.finalize();
    const std::size_t n = c.system_size();
    DcOptions dopt;
    dopt.erc_gate = false;
    si::linalg::Vector x0 = dc_operating_point(c, dopt).x;
    for (std::size_t i = 0; i < n; ++i)
      x0[i] += 1e-3 * std::sin(static_cast<double>(i) + 0.5);
    const std::string core = std::to_string(sections) + "-section ";
    std::shared_ptr<const si::linalg::SparsePattern> pattern;
    si::linalg::SlotMemo memo;
    for (const auto& [name, ctx] : stamp_contexts(dt)) {
      auto agreed = expect_writers_agree(c, ctx, x0, core + name);
      expect_bound_restamp_matches(c, ctx, x0, core + name);
      if (name == "trap") std::tie(pattern, memo) = std::move(agreed);
    }
    if (sections != 8) continue;

    // A replayed stamp outside the pattern still throws, located.
    const int node_rows = static_cast<int>(c.node_count()) - 1;
    int row = -1, col = -1;
    for (int r = 0; r < node_rows && row < 0; ++r)
      for (int k = 0; k < node_rows && row < 0; ++k)
        if (pattern->find(r, k) < 0) {
          row = r;
          col = k;
        }
    ASSERT_GE(row, 0) << core;
    si::linalg::SparseMatrixD as(pattern);
    si::linalg::Vector bs(n, 0.0);
    memo.start_replay();
    RealStamper s(c, as, bs, x0, &memo);
    try {
      s.transconductance(row + 1, c.ground(), col + 1, c.ground(), 1e-3);
      ADD_FAILURE() << core << ": no PatternMissError";
    } catch (const si::linalg::PatternMissError& miss) {
      EXPECT_EQ(miss.row(), row) << core;
      EXPECT_EQ(miss.col(), col) << core;
    }
  }
}

TEST(AcEngine, SparseSweepMatchesDense) {
  // The small-signal engine's sparse path (pattern discovery at one
  // frequency, refactor per frequency) against the dense one: a 4-stage
  // delay line (26 unknowns) as is, and padded past the threshold.
  auto sweep = [](bool pad) {
    Circuit c;
    c.add<VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
    DelayStageOptions opt;
    const auto h = build_delay_line_chain(c, 4, opt, "dl_");
    auto& iin = c.add<CurrentSource>("Iin", c.ground(), h.in, 5e-6);
    iin.set_ac_magnitude(1e-6);
    if (pad) pad_unknowns(c);
    DcOptions dco;
    dco.erc_gate = false;
    dc_operating_point(c, dco);
    AcEngine engine(c);
    std::vector<std::complex<double>> out;
    si::linalg::ComplexVector x;
    for (const double f : {1e3, 1e5, 1e7}) {
      engine.assemble(2.0 * std::numbers::pi * f);
      engine.solve(engine.rhs(), x);
      out.push_back(x[static_cast<std::size_t>(h.out) - 1]);
    }
    EXPECT_EQ(engine.stats().dense_factors, pad ? 0u : 3u);
    EXPECT_EQ(engine.stats().pattern_builds, pad ? 1u : 0u);
    EXPECT_EQ(engine.stats().symbolic_factors > 0, pad);
    return out;
  };
  const auto ds = sweep(false);
  const auto ss = sweep(true);
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
