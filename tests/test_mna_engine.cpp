// MNA engine behavior: the size rule that picks the dense or sparse
// representation, dense-vs-sparse parity on transistor-level netlists
// (DC, and the AcEngine sweep) with each circuit run as is and padded
// past the threshold, symbolic-reuse accounting, pattern-cache
// invalidation on circuit edits, pattern-miss recovery, and the
// stamper's write path agreeing bit for bit across its backends.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <complex>
#include <numbers>
#include <vector>

#include "event/partition.hpp"
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
#if SI_OBS_ENABLED
  si::obs::Counter& misses = si::obs::counter("mna.pattern_misses");
  const std::uint64_t misses_before = misses.value();
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
  pad_unknowns(c);

  MnaEngine engine(c);
  NewtonOptions nopt;
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = 1e-3;
  si::linalg::Vector x;

  // Before t_on the discovered pattern is complete.
  ctx.time = 1e-3;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 1u);
  EXPECT_EQ(engine.stats().pattern_misses, 0u);
  EXPECT_NEAR(x[b - 1], 0.5, 1e-6);

  // Crossing t_on stamps outside the pattern: the engine grows the
  // pattern by the missed coordinate, stays sparse, and counts the miss.
  ctx.time = 1.0;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
  EXPECT_EQ(engine.stats().dense_factors, 0u);
#if SI_OBS_ENABLED
  EXPECT_EQ(misses.value(), misses_before + 1);
#endif
  // b now loaded by R2 || (1k bridge + R3) = 1k || 2k.
  EXPECT_NEAR(x[b - 1], 0.4, 1e-6);

  // The grown pattern holds: no rebuild on the next solve.
  ctx.time = 1.1;
  engine.newton(ctx, x, nopt);
  EXPECT_EQ(engine.stats().pattern_builds, 2u);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);

  // An edit (revision bump) rediscovers the pattern — at a post-t_on
  // time, so the bridge is part of it and nothing misses.
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

TEST(MnaEngine, PatternMissRetryRestartsFromSeed) {
  // The bridge first stamps in Newton iteration 2 (iteration 1 lifts
  // v(b) from 0 to 0.5 V).  The retry after the miss must start from
  // the caller's seed, not from the iterate the miss interrupted, so it
  // matches a repeat solve from the same seed bit for bit.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<VoltageSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, c.ground(), 1e3);
  c.add<Resistor>("R3", d, c.ground(), 1e3);
  c.add<ThresholdBridge>("X1", b, d, /*v_on=*/0.25);
  pad_unknowns(c);

  MnaEngine engine(c);
  const NewtonOptions nopt;
  const StampContext ctx;
  const si::linalg::Vector seed(c.system_size(), 0.0);

  si::linalg::Vector retried = seed;
  const int retried_iters = engine.newton(ctx, retried, nopt);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(engine.stats().dense_factors, 0u);
  EXPECT_NEAR(retried[b - 1], 0.4, 1e-6);

  si::linalg::Vector repeat = seed;
  const int repeat_iters = engine.newton(ctx, repeat, nopt);
  EXPECT_EQ(engine.stats().pattern_misses, 1u);
  EXPECT_EQ(retried_iters, repeat_iters);
  ASSERT_EQ(retried.size(), repeat.size());
  for (std::size_t i = 0; i < retried.size(); ++i)
    EXPECT_EQ(retried[i], repeat[i]) << "unknown " << i;
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

TEST(StamperBackends, SparseSlotMemoMatchesDenseBitForBit) {
  // Every element of the 8-section modulator core stamped at a perturbed
  // operating point in a transient context, through a dense stamper and
  // through a sparse one with a slot memo: recording, replay, and replay
  // after one MOSFET's drain and source swap (the memo patches its
  // shifted sequence).  Then again under a scope that freezes every
  // odd-numbered event block.  Matrix and RHS must agree in every bit.
  Circuit c;
  build_modulator_fixture(c, 8);
  c.finalize();
  const std::size_t n = c.system_size();
  DcOptions dopt;
  dopt.erc_gate = false;
  si::linalg::Vector x0 = dc_operating_point(c, dopt).x;
  for (std::size_t i = 0; i < n; ++i)
    x0[i] += 1e-3 * std::sin(static_cast<double>(i) + 0.5);
  StampContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.dt = ModulatorCoreOptions{}.stage.pair.clock_period / 200.0;
  ctx.time = 37.0 * ctx.dt;

  const si::event::CircuitPartition part = si::event::partition_circuit(c);
  std::vector<unsigned char> frozen_odd(n);
  for (std::size_t i = 0; i < n; ++i)
    frozen_odd[i] = part.unknown_block[i] % 2 == 0;

  const std::vector<unsigned char>* scopes[] = {nullptr, &frozen_odd};
  for (const std::vector<unsigned char>* scope : scopes) {
    const std::string what = scope ? "scoped" : "unscoped";
    // Discovery as MnaSystem::reset runs it: both modes, under the scope.
    si::linalg::PatternBuilder rec(static_cast<int>(n));
    {
      si::linalg::Vector scratch_b(n, 0.0);
      RealStamper r(c, rec, scratch_b, x0);
      r.set_scope(scope);
      StampContext dc_ctx = ctx;
      dc_ctx.mode = AnalysisMode::kDcOperatingPoint;
      for (const auto& e : c.elements()) e->stamp(r, dc_ctx);
      for (const auto& e : c.elements()) e->stamp(r, ctx);
    }
    const auto pattern = rec.build(/*symmetrize=*/true);
    si::linalg::SparseMatrixD as(pattern);
    si::linalg::SlotMemo memo;

    // A MOSFET with its drain row in scope: pulling its drain past its
    // source swaps the device's effective drain and source.
    const Mosfet* swap = nullptr;
    for (const auto& e : c.elements()) {
      const auto* m = dynamic_cast<const Mosfet*>(e.get());
      if (m && m->drain() != c.ground() &&
          (!scope || (*scope)[static_cast<std::size_t>(m->drain() - 1)])) {
        swap = m;
        break;
      }
    }
    ASSERT_NE(swap, nullptr) << what;
    si::linalg::Vector x_swapped = x0;
    {
      const SolutionView sol(c, x0);
      const double toward = swap->type() == MosType::kNmos ? -0.25 : 0.25;
      x_swapped[static_cast<std::size_t>(swap->drain() - 1)] =
          sol.voltage(swap->source()) + toward;
    }

    std::vector<std::uint64_t> replayed_coords;
    for (int pass = 0; pass < 3; ++pass) {
      const si::linalg::Vector& x = pass < 2 ? x0 : x_swapped;
      const std::string label = what + " pass " + std::to_string(pass);
      si::linalg::Matrix ad(n, n);
      si::linalg::Vector bd(n, 0.0);
      {
        RealStamper s(c, ad, bd, x);
        s.set_scope(scope);
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
        s.set_scope(scope);
        for (const auto& e : c.elements()) e->stamp(s, ctx);
      }
      EXPECT_EQ(bit_mismatch(as.to_dense(), ad), "") << label;
      EXPECT_EQ(bit_mismatch(bs, bd), "") << label;
      if (pass == 1) replayed_coords = memo.coords;
    }
    // The swap shifted the recorded sequence, so the memo was patched.
    EXPECT_NE(memo.coords, replayed_coords) << what;

    // A replayed stamp outside the pattern still throws, located.
    const int node_rows = static_cast<int>(c.node_count()) - 1;
    auto stamped = [&](int i) {
      return !scope || (*scope)[static_cast<std::size_t>(i)] != 0;
    };
    int row = -1, col = -1;
    for (int r = 0; r < node_rows && row < 0; ++r)
      for (int k = 0; k < node_rows && row < 0; ++k)
        if (stamped(r) && stamped(k) && pattern->find(r, k) < 0) {
          row = r;
          col = k;
        }
    ASSERT_GE(row, 0) << what;
    as.set_zero();
    si::linalg::Vector bs(n, 0.0);
    memo.start_replay();
    RealStamper s(c, as, bs, x0, &memo);
    s.set_scope(scope);
    try {
      s.transconductance(row + 1, c.ground(), col + 1, c.ground(), 1e-3);
      ADD_FAILURE() << what << ": no PatternMissError";
    } catch (const si::linalg::PatternMissError& miss) {
      EXPECT_EQ(miss.row(), row) << what;
      EXPECT_EQ(miss.col(), col) << what;
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
