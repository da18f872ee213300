#include <gtest/gtest.h>

#include <cmath>

#include "obs/telemetry.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/elements.hpp"
#include "spice/mosfet.hpp"

namespace {

using namespace si::spice;

TEST(SpiceDc, ResistorDivider) {
  Circuit c;
  const NodeId vin = c.node("in");
  const NodeId mid = c.node("mid");
  c.add<VoltageSource>("V1", vin, c.ground(), 3.3);
  c.add<Resistor>("R1", vin, mid, 10e3);
  c.add<Resistor>("R2", mid, c.ground(), 20e3);
  const DcResult r = dc_operating_point(c);
  SolutionView sol(c, r.x);
  EXPECT_NEAR(sol.voltage(mid), 2.2, 1e-7);
  EXPECT_NEAR(sol.voltage(vin), 3.3, 1e-7);
}

TEST(SpiceDc, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  // 1 mA from ground into n1 through the source.
  c.add<CurrentSource>("I1", c.ground(), n1, 1e-3);
  c.add<Resistor>("R1", n1, c.ground(), 1e3);
  const DcResult r = dc_operating_point(c);
  SolutionView sol(c, r.x);
  EXPECT_NEAR(sol.voltage(n1), 1.0, 1e-9);
}

TEST(SpiceDc, VoltageSourceBranchCurrent) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  auto& v1 = c.add<VoltageSource>("V1", n1, c.ground(), 5.0);
  c.add<Resistor>("R1", n1, c.ground(), 1e3);
  const DcResult r = dc_operating_point(c);
  SolutionView sol(c, r.x);
  // 5 mA flows out of the source's + terminal, so the branch current
  // (into the + terminal) is -5 mA.
  EXPECT_NEAR(sol.branch_current(v1.branch()), -5e-3, 1e-9);
  EXPECT_NEAR(v1.dissipated_power(sol), 25e-3, 1e-9);
}

TEST(SpiceDc, VccsAmplifier) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("Vin", in, c.ground(), 0.1);
  c.add<Vccs>("G1", out, c.ground(), in, c.ground(), 1e-3);
  c.add<Resistor>("RL", out, c.ground(), 10e3);
  const DcResult r = dc_operating_point(c);
  SolutionView sol(c, r.x);
  // i = gm * vin = 0.1 mA into RL, but current flows out of node 'out':
  // v(out) = -gm * vin * RL = -1 V.
  EXPECT_NEAR(sol.voltage(out), -1.0, 1e-7);
}

TEST(SpiceDc, VcvsGain) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("Vin", in, c.ground(), 0.25);
  c.add<Vcvs>("E1", out, c.ground(), in, c.ground(), 4.0);
  c.add<Resistor>("RL", out, c.ground(), 1e3);
  const DcResult r = dc_operating_point(c);
  SolutionView sol(c, r.x);
  EXPECT_NEAR(sol.voltage(out), 1.0, 1e-9);
}

TEST(SpiceDc, SeriesResistorsKirchhoff) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  c.add<VoltageSource>("V1", a, c.ground(), 9.0);
  c.add<Resistor>("R1", a, b, 1e3);
  c.add<Resistor>("R2", b, d, 2e3);
  c.add<Resistor>("R3", d, c.ground(), 3e3);
  const DcResult r = dc_operating_point(c);
  SolutionView sol(c, r.x);
  EXPECT_NEAR(sol.voltage(b), 9.0 * 5.0 / 6.0, 1e-7);
  EXPECT_NEAR(sol.voltage(d), 9.0 * 3.0 / 6.0, 1e-7);
}

TEST(SpiceDc, GroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("0"), c.ground());
  EXPECT_EQ(c.node("gnd"), c.ground());
  EXPECT_EQ(c.node("GND"), c.ground());
  EXPECT_EQ(c.node("sig"), c.node("sig"));
  EXPECT_NE(c.node("sig"), c.ground());
}

TEST(SpiceDc, FindElementByName) {
  Circuit c;
  c.add<Resistor>("Rx", c.node("a"), c.ground(), 1.0);
  EXPECT_NE(c.find("Rx"), nullptr);
  EXPECT_EQ(c.find("nope"), nullptr);
}

TEST(SpiceDc, DiodeConnectedNmosBias) {
  // Diode-connected NMOS fed by a current source: Vgs should satisfy
  // I = beta/2 * (Vgs - Vt)^2 (ignoring lambda at small vds... here
  // vds = vgs so include the (1 + lambda vds) factor).
  Circuit c;
  const NodeId g = c.node("gate");
  MosfetParams p;
  p.w = 20e-6;
  p.l = 2e-6;
  p.kp = 100e-6;
  p.vt0 = 0.8;
  p.lambda = 0.0;
  auto& m = c.add<Mosfet>("M1", MosType::kNmos, g, g, c.ground(), p);
  c.add<CurrentSource>("Ib", c.ground(), g, 50e-6);  // push 50 uA into gate
  const DcResult r = dc_operating_point(c);
  SolutionView sol(c, r.x);
  const double beta = p.beta();
  const double vgs_expected = p.vt0 + std::sqrt(2.0 * 50e-6 / beta);
  EXPECT_NEAR(sol.voltage(g), vgs_expected, 1e-6);
  EXPECT_EQ(m.region(), MosRegion::kSaturation);
  EXPECT_NEAR(m.id(), 50e-6, 1e-9);
}

TEST(SpiceDc, NmosCurrentMirrorCopiesCurrent) {
  Circuit c;
  const NodeId g = c.node("gate");
  const NodeId out = c.node("out");
  MosfetParams p;
  p.lambda = 0.0;  // ideal mirror
  c.add<Mosfet>("M1", MosType::kNmos, g, g, c.ground(), p);
  c.add<Mosfet>("M2", MosType::kNmos, out, g, c.ground(), p);
  c.add<CurrentSource>("Iref", c.ground(), g, 100e-6);
  c.add<VoltageSource>("Vd", out, c.ground(), 2.0);  // keep M2 saturated
  const DcResult r = dc_operating_point(c);
  (void)r;
  const auto* m2 = dynamic_cast<const Mosfet*>(c.find("M2"));
  ASSERT_NE(m2, nullptr);
  EXPECT_NEAR(m2->id(), 100e-6, 1e-9);
}

TEST(SpiceDc, GminSteppingRescuesHardCircuit) {
  // The mid node of two diode-connected devices stacked across the
  // supply touches only MOSFET terminals.  Plain Newton still converges
  // here (the gmin ladder does not engage); the ladder itself is
  // covered by GminLadderRescuesSingularColdStart.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId mid = c.node("mid");
  MosfetParams p;
  c.add<VoltageSource>("Vdd", vdd, c.ground(), 3.3);
  c.add<Mosfet>("M1", MosType::kPmos, mid, mid, vdd, p);
  c.add<Mosfet>("M2", MosType::kNmos, mid, mid, c.ground(), p);
  const DcResult r = dc_operating_point(c);
  SolutionView sol(c, r.x);
  EXPECT_GT(sol.voltage(mid), 0.0);
  EXPECT_LT(sol.voltage(mid), 3.3);
}

struct LadderCircuit {
  Circuit c;
  NodeId s = 0;  ///< PMOS source, behind the supply resistor
  NodeId n = 0;
  const Mosfet* mp = nullptr;
  const Mosfet* mn = nullptr;
};

/// A 3.3 V supply behind `r_supply` feeds a PMOS (gate grounded) whose
/// drain `n` is shared with an NMOS gated at 1.5 V.
void build_ladder_circuit(LadderCircuit& lc, double r_supply) {
  Circuit& c = lc.c;
  const NodeId vdd = c.node("vdd");
  const NodeId g = c.node("g");
  lc.s = c.node("s");
  lc.n = c.node("n");
  const MosfetParams p;
  c.add<VoltageSource>("Vdd", vdd, c.ground(), 3.3);
  c.add<Resistor>("Rs", vdd, lc.s, r_supply);
  c.add<VoltageSource>("Vg", g, c.ground(), 1.5);
  lc.mp = &c.add<Mosfet>("Mp", MosType::kPmos, lc.n, c.ground(), lc.s, p);
  lc.mn = &c.add<Mosfet>("Mn", MosType::kNmos, lc.n, g, c.ground(), p);
}

TEST(SpiceDc, GminLadderRescuesSingularColdStart) {
  // At x = 0 both devices are off, so the diagonal at n holds only the
  // gmin leaks.  Behind 0.01 ohm the matrix scale puts that below the
  // pivot threshold: the cold start is singular and the ladder's leaky
  // first rungs carry the solve.
  si::obs::set_enabled(true);
  si::obs::Counter& ladders = si::obs::counter("dc.gmin_ladder_engaged");
  const std::uint64_t before = ladders.value();
  LadderCircuit lc;
  build_ladder_circuit(lc, 0.01);
  const DcResult r = dc_operating_point(lc.c);
  EXPECT_EQ(ladders.value(), before + 1);

  // Behind 1 ohm the same cold start is regular and plain Newton
  // converges.
  LadderCircuit plain;
  build_ladder_circuit(plain, 1.0);
  (void)dc_operating_point(plain.c);
  EXPECT_EQ(ladders.value(), before + 1);
  si::obs::set_enabled(false);

  // Kirchhoff's current law at n: the PMOS sources what the NMOS sinks,
  // plus the three kGmin leaks (across each device, and n to ground).
  const SolutionView sol(lc.c, r.x);
  const double vn = sol.voltage(lc.n);
  const double vs = sol.voltage(lc.s);
  EXPECT_NEAR(vn, 3.1844, 1e-4);
  EXPECT_EQ(lc.mn->region(), MosRegion::kSaturation);
  EXPECT_GT(lc.mn->id(), 1e-6);
  const double leaks = kGmin * ((vn - vs) + vn + vn);
  EXPECT_NEAR(lc.mp->id() + lc.mn->id() + leaks, 0.0, 1e-9 * lc.mn->id());
}

TEST(SpiceDc, DcSweepResistorLoadLine) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  auto& src = c.add<CurrentSource>("I1", c.ground(), n1, 0.0);
  c.add<Resistor>("R1", n1, c.ground(), 2e3);
  const std::vector<double> currents{1e-3, 2e-3, 3e-3};
  const auto volts = dc_sweep(
      c, currents, [&](double i) { src.set_level(i); },
      [&](const SolutionView& sol) { return sol.voltage(n1); });
  ASSERT_EQ(volts.size(), 3u);
  for (std::size_t k = 0; k < currents.size(); ++k)
    EXPECT_NEAR(volts[k], currents[k] * 2e3, 1e-7);
}

}  // namespace
